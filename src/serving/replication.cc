#include "serving/replication.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/crc32c.h"
#include "io/atomic_file.h"
#include "io/shard_snapshot.h"
#include "io/wal_segment.h"
#include "serving/shard_layout.h"

namespace cce::serving {

ShardLogShipper::ShardLogShipper(const Options& options)
    : options_(options),
      env_(options.env != nullptr ? options.env : io::Env::Default()),
      last_entries_(std::max<size_t>(1, options.shards)) {
  options_.shards = std::max<size_t>(1, options_.shards);
  if (options_.registry != nullptr) {
    obs::Registry& reg = *options_.registry;
    cycles_ = reg.GetCounter("cce_ship_cycles_total",
                             "Ship cycles completed (manifest published).");
    shard_skips_ = reg.GetCounter(
        "cce_ship_shard_skips_total",
        "Shards a ship cycle skipped because the generation fence kept "
        "failing (compaction raced the copy); the shard keeps its previous "
        "shipped state.");
    shipped_bytes_ = reg.GetCounter(
        "cce_ship_shipped_bytes_total",
        "Bytes written into the ship directory (segments + snapshots).");
    published_seq_gauge_ = reg.GetGauge(
        "cce_ship_published_seq",
        "Watermark of the last published ship manifest.");
    tmp_orphans_removed_ = reg.GetCounter(
        "cce_tmp_orphans_removed_total",
        "Orphaned *.tmp files swept from the durability dir at startup.");
  }
  SweepOrphanTmpFiles();
}

void ShardLogShipper::SweepOrphanTmpFiles() {
  std::vector<std::string> names;
  // The ship dir is created lazily by the first Ship(); a missing or
  // unlistable dir has nothing to sweep.
  if (!env_->ListDir(options_.ship_dir, &names).ok()) return;
  for (const std::string& name : names) {
    if (!io::IsAtomicTempName(name)) continue;
    if (env_->RemoveFile(options_.ship_dir + "/" + name).ok() &&
        tmp_orphans_removed_ != nullptr) {
      tmp_orphans_removed_->Increment();
    }
  }
}

Status ShardLogShipper::ReadShardState(size_t shard,
                                       std::string* snapshot_content,
                                       bool* has_snapshot,
                                       std::string* wal_content) {
  const std::string snapshot_path =
      options_.source_dir + "/" + ShardFileName(shard, "snapshot");
  const std::string wal_path =
      options_.source_dir + "/" + ShardFileName(shard, "wal");
  snapshot_content->clear();
  wal_content->clear();
  // Snapshot before WAL: a compaction that lands between the two reads
  // rewrote *both*, so the WAL header's base_recorded will disagree with
  // this snapshot's covers count and the fence below catches it. (The
  // reverse order has the same property; only doing it consistently
  // matters.)
  *has_snapshot = env_->FileExists(snapshot_path);
  if (*has_snapshot) {
    CCE_RETURN_IF_ERROR(env_->ReadFileToString(snapshot_path,
                                               snapshot_content));
  }
  Status read = env_->ReadFileToString(wal_path, wal_content);
  if (!read.ok() && read.code() != StatusCode::kNotFound) return read;
  return Status::Ok();
}

Status ShardLogShipper::ShipShard(size_t shard, uint64_t published_seq,
                                  io::ShipManifest::Shard* entry) {
  std::string snapshot_content;
  std::string wal_content;
  bool has_snapshot = false;
  std::optional<io::ShardSnapshotView> snapshot;
  io::WalSegmentView view;
  // One retry absorbs the common race (a single compaction landing
  // between the snapshot read and the WAL read); a shard that fences
  // twice is skipped this cycle and retried on the next.
  Status fenced = Status::Ok();
  for (int attempt = 0; attempt < 2; ++attempt) {
    snapshot.reset();  // the view borrows snapshot_content, re-read below
    CCE_RETURN_IF_ERROR(ReadShardState(shard, &snapshot_content,
                                       &has_snapshot, &wal_content));
    if (wal_content.empty()) {
      // No log yet (in-memory leader shard, or a leader that has not
      // recorded): nothing to ship, which is itself consistent.
      view = io::WalSegmentView{};
      view.header_ok = true;
      fenced = Status::Ok();
      if (!has_snapshot) break;
    }
    if (!wal_content.empty()) {
      view = io::ScanWalSegment(wal_content);
      if (!view.header_ok) {
        fenced = Status::IoError("shard " + std::to_string(shard) +
                                 " wal header unreadable mid-ship");
        continue;
      }
    }
    if (has_snapshot) {
      // The fence needs only the header; the follower decodes and checks
      // the whole file when it applies it.
      auto opened = io::ShardSnapshotView::Open(
          snapshot_content, ShardFileName(shard, "snapshot"));
      if (!opened.ok()) {
        fenced = opened.status();
        continue;
      }
      snapshot = *opened;
      if (snapshot->covers() != view.base_recorded) {
        fenced = Status::Unavailable(
            "shard " + std::to_string(shard) +
            " generation fence: snapshot covers " +
            std::to_string(snapshot->covers()) + " != wal base " +
            std::to_string(view.base_recorded));
        continue;
      }
    } else if (view.base_recorded != 0) {
      fenced = Status::Unavailable(
          "shard " + std::to_string(shard) + " wal base " +
          std::to_string(view.base_recorded) + " without a snapshot");
      continue;
    }
    fenced = Status::Ok();
    break;
  }
  CCE_RETURN_IF_ERROR(fenced);

  // Digest over every shipped row with seq < P, in sequence order. The
  // snapshot's rows all precede the log's frames (frames are appended
  // after the compaction that wrote the snapshot), so stored order is
  // sequence order.
  uint32_t digest = 0;
  uint64_t rows = 0;
  if (has_snapshot) {
    Instance x;
    for (size_t r = 0; r < snapshot->rows(); ++r) {
      const uint64_t seq = snapshot->seq(r);
      if (seq >= published_seq) break;  // rows are seq-ascending
      snapshot->ReadValues(r, &x);
      const std::string payload =
          io::EncodeWalRecordPayload(x, snapshot->label(r), seq);
      digest = crc32c::Extend(digest, payload.data(), payload.size());
      ++rows;
    }
  }
  for (const io::WalFrame& frame : view.frames) {
    if (frame.seq >= published_seq) continue;
    const std::string payload =
        io::EncodeWalRecordPayload(frame.x, frame.y, frame.seq);
    digest = crc32c::Extend(digest, payload.data(), payload.size());
    ++rows;
  }

  // Ship the exact bytes (snapshot verbatim, WAL's valid prefix): the
  // follower re-runs the same parsers over the same bytes.
  const std::string shipped_wal = wal_content.substr(0, view.valid_end);
  const std::string wal_dest =
      options_.ship_dir + "/" + ShippedShardFileName(shard, "wal");
  const std::string snapshot_dest =
      options_.ship_dir + "/" + ShippedShardFileName(shard, "snapshot");
  if (has_snapshot) {
    CCE_RETURN_IF_ERROR(
        io::AtomicWriteFile(env_, snapshot_dest, snapshot_content));
  } else {
    (void)env_->RemoveFile(snapshot_dest);
  }
  CCE_RETURN_IF_ERROR(io::AtomicWriteFile(env_, wal_dest, shipped_wal));
  if (shipped_bytes_ != nullptr) {
    shipped_bytes_->Add(shipped_wal.size() +
                        (has_snapshot ? snapshot_content.size() : 0));
  }

  entry->index = shard;
  entry->published = published_seq;
  entry->wal_base = view.base_recorded;
  entry->wal_bytes = view.valid_end;
  entry->has_snapshot = has_snapshot;
  entry->rows = rows;
  entry->digest = digest;
  return Status::Ok();
}

Status ShardLogShipper::Ship(uint64_t published_seq) {
  if (!ship_dir_ready_) {
    CCE_RETURN_IF_ERROR(env_->CreateDir(options_.ship_dir));
    ship_dir_ready_ = true;
  }
  io::ShipManifest manifest;
  manifest.published_seq = published_seq;
  for (size_t shard = 0; shard < options_.shards; ++shard) {
    io::ShipManifest::Shard entry;
    Status shipped = ShipShard(shard, published_seq, &entry);
    if (!shipped.ok()) {
      if (shard_skips_ != nullptr) shard_skips_->Increment();
      if (last_entries_[shard].has_value()) {
        // Fail-soft: the previous shipped files are still intact (every
        // ship write is atomic) and their watermark still holds.
        entry = *last_entries_[shard];
      } else {
        // Never shipped: an explicitly-empty record at watermark 0, so
        // followers hold their view at 0 instead of trusting a gap.
        entry = io::ShipManifest::Shard{};
        entry.index = shard;
      }
    }
    last_entries_[shard] = entry;
    manifest.shards.push_back(entry);
  }
  CCE_RETURN_IF_ERROR(io::SaveShipManifest(
      env_, options_.ship_dir + "/" + kShipManifestName, manifest));
  last_manifest_ = manifest;
  if (cycles_ != nullptr) cycles_->Increment();
  if (published_seq_gauge_ != nullptr) {
    published_seq_gauge_->Set(static_cast<int64_t>(published_seq));
  }
  return Status::Ok();
}

}  // namespace cce::serving
