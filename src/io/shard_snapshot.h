#ifndef CCE_IO_SHARD_SNAPSHOT_H_
#define CCE_IO_SHARD_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/schema.h"
#include "core/types.h"
#include "io/env.h"

namespace cce::io {

/// The shard snapshot file format, shared by the leader's ContextShard
/// (the one encoder, in compaction), the log shipper (which reads only the
/// header to fence against a compaction racing the ship), and the
/// follower's bootstrap path.
///
/// Layout `CCESNAP 2` (binary, little-endian, fixed width; the raw
/// read/serialize form of a flat record array):
///
///   header (40 bytes)
///     [0, 8)    magic "CCESNAP\x02"
///     [8, 12)   u32 version = 2
///     [12, 20)  u64 covers   records ever recorded when written
///     [20, 28)  u64 rows
///     [28, 32)  u32 features (F)
///     [32, 36)  u32 schema block bytes
///     [36, 40)  u32 masked CRC32C of bytes [0, 36)
///   body
///     schema block: u32 labels, then per feature u32 domain size,
///                   u32 name length, name bytes
///     rows × record: u64 seq, u32 label, u32 value × F   (seq-ascending)
///   trailer
///     u32 masked CRC32C of the body
///
/// The covers count closes the torn-compaction window: a crash between the
/// snapshot rename and the WAL reset leaves log frames the snapshot already
/// contains, and covers - base_recorded is exactly how many to skip. It
/// doubles as the snapshot's *generation number* for replication: a
/// (snapshot, wal) pair is mutually consistent iff covers equals the log
/// header's base_recorded.
///
/// The earlier text layout (`CCESNAP 1`: magic line, covers line, seqs
/// line, then SaveDataset text) is still decoded so an existing directory
/// migrates: recovery rewrites such a file as `CCESNAP 2`.
inline constexpr char kShardSnapshotMagic[8] = {'C', 'C', 'E', 'S',
                                                'N', 'A', 'P', '\x02'};
inline constexpr uint32_t kShardSnapshotVersion = 2;
inline constexpr size_t kShardSnapshotHeaderBytes = 40;

/// The feature space a snapshot was written under: exactly what
/// CheckShardSchemaCompatible compares against the live schema.
struct ShardSnapshotSchema {
  std::vector<std::string> feature_names;
  std::vector<uint32_t> domain_sizes;
  uint32_t num_labels = 0;

  static ShardSnapshotSchema Of(const Schema& schema);
};

struct ShardSnapshotRow {
  uint64_t seq = 0;
  Instance x;
  Label y = 0;
};

struct LoadedShardSnapshot {
  /// Layout the bytes were in: 2, or 1 for a text file awaiting migration.
  uint32_t version = 0;
  uint64_t covers = 0;
  ShardSnapshotSchema schema;
  /// Seq-ascending; every row is valid under `schema`.
  std::vector<ShardSnapshotRow> rows;
};

/// Builds a `CCESNAP 2` file: construct with the row count, Add each row in
/// sequence order, then Finish.
class ShardSnapshotEncoder {
 public:
  ShardSnapshotEncoder(const Schema& schema, uint64_t covers, size_t rows);
  void Add(uint64_t seq, const Instance& x, Label y);
  /// The finished file. Exactly `rows` rows must have been added.
  std::string Finish() &&;

 private:
  std::string bytes_;
  size_t features_;
  size_t rows_;
  size_t added_ = 0;
  size_t cursor_;
};

/// A `CCESNAP 2` file with a checked header and a located body. Opening
/// reads only the header and sizes: it checks the header CRC and that
/// rows × record width matches the byte length, but not the body CRC nor
/// any row, so it is the cheap generation fence. The view borrows `bytes`.
class ShardSnapshotView {
 public:
  static Result<ShardSnapshotView> Open(std::string_view bytes,
                                        const std::string& origin);

  uint64_t covers() const { return covers_; }
  size_t rows() const { return rows_; }
  size_t features() const { return features_; }
  uint64_t seq(size_t row) const;
  Label label(size_t row) const;
  /// Copies the row's values into `x` (resized to features()).
  void ReadValues(size_t row, Instance* x) const;

 private:
  friend Result<LoadedShardSnapshot> DecodeShardSnapshot(
      std::string_view bytes, const std::string& origin);
  const char* Record(size_t row) const;

  std::string_view schema_block_;
  std::string_view body_;  // schema block + records
  const char* records_ = nullptr;
  uint32_t body_crc_ = 0;
  uint64_t covers_ = 0;
  size_t rows_ = 0;
  size_t features_ = 0;
  size_t record_bytes_ = 0;
};

/// Decodes a whole snapshot (a file read or a shipped copy): a `CCESNAP 2`
/// file is checked end to end (both CRCs, the schema block, and every row
/// against it, seqs strictly ascending); a `CCESNAP 1` text file goes
/// through the migration reader. Anything else is an IoError.
Result<LoadedShardSnapshot> DecodeShardSnapshot(std::string_view bytes,
                                                const std::string& origin);

/// Reads and decodes the snapshot at `path` through `env`.
Result<LoadedShardSnapshot> LoadShardSnapshot(Env* env,
                                              const std::string& path);

/// A recovered snapshot must describe the same feature space as the live
/// schema: feature names, domain sizes and the label count all fit.
/// Anything else means the file belongs to a different deployment — the
/// one damage class recovery treats as a hard error instead of
/// quarantining away.
Status CheckShardSchemaCompatible(const Schema& live,
                                  const ShardSnapshotSchema& stored);

}  // namespace cce::io

#endif  // CCE_IO_SHARD_SNAPSHOT_H_
