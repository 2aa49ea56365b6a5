#ifndef CCE_SERVING_LIVE_INDEX_H_
#define CCE_SERVING_LIVE_INDEX_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/deadline.h"
#include "common/rw_lock.h"
#include "common/status.h"
#include "core/bitset_conformity.h"
#include "core/dataset.h"
#include "core/key_result.h"
#include "obs/metrics.h"
#include "serving/context_shard.h"
#include "serving/read_path.h"

namespace cce::serving {

/// The one Explain read model, shared by the leader proxy and its read
/// replicas (docs/algorithms.md "The live index"): a
/// BitsetConformityChecker over the served window in which the row with
/// global sequence number `seq` sits at bit position seq − base. Writers
/// update it in place — the leader's Record (after the WAL append) and
/// eviction, a replica's catch-up — and Explain only searches it: the
/// greedy reads value[f][x0[f]] and live & ~label[y0] directly
/// (Srk::ExplainIndexedBatch), with no merge, copy or per-call bitmap
/// build.
///
/// Keys are bit-identical to Srk::ExplainInstance on the sequence-merged
/// context, because bit positions ascend with sequence: the live rows in
/// position order *are* that context, and the tie-break sample (its first
/// 2048 rows) is the first 2048 live positions.
///
/// Position space. Removal clears only the live bit, so evicted rows leave
/// a dead prefix behind. It is reclaimed (base advances by whole words)
/// once it exceeds the live row count, which keeps the bitmaps within
/// about twice the window. A row whose sequence is below base — a Record
/// that claimed its number before a reclaim and reached the index after —
/// moves base back down by whole words; the vacated positions come back
/// clear.
///
/// Thread safety: all methods may be called concurrently. Mutations take
/// the write side of a writer-priority lock; a Reader holds the read side
/// for its lifetime, so one batch of searches runs under one acquisition
/// and a waiting writer waits for at most the searches already running.
class LiveIndex {
 public:
  /// `builds` (not owned; may be null) counts Rebuild calls — the
  /// cce_bitmap_rebuilds_total cell.
  explicit LiveIndex(std::shared_ptr<const Schema> schema,
                     obs::Counter* builds = nullptr);

  /// Replaces the contents with `rows` (any order, distinct sequences).
  void Rebuild(const std::vector<ContextShard::Row>& rows);

  /// Adds the row with sequence `seq`; `seq` must not be in the index.
  void Insert(uint64_t seq, const Instance& x, Label y);

  /// Removes the row with sequence `seq`; a no-op when it is not live.
  void Remove(uint64_t seq);

  /// Removes the oldest rows (lowest sequences) until at most `capacity`
  /// remain; 0 means unbounded.
  void TrimToCapacity(size_t capacity);

  /// Rows currently live.
  size_t live_rows() const;

  /// A read view: holds the read lock until destroyed. Searches through one
  /// Reader all see the same window.
  class Reader {
   public:
    /// Live rows in the window this reader sees.
    size_t rows() const { return index_->bits_->live_rows(); }

    /// Keys for every item against this window, positionally, with
    /// per-item deadlines: the one Explain read of leader and replica, and
    /// a scalar Explain is a batch of one. kFailedPrecondition when the
    /// window is empty. `path.alpha` is the bound; with
    /// `path.parallel_conformity` several items run across `path.pool`
    /// (a lone item counts serially), and the fan-out is added to
    /// `path.conformity_shards`. `degraded_view` flags every key
    /// degraded (the window is incomplete or may be stale);
    /// `deadline_degraded`, when set, receives the number of keys the
    /// search itself degraded at their deadline.
    Result<std::vector<KeyResult>> SearchBatch(
        const std::vector<BatchQuery>& items, const ReadPath& path,
        bool degraded_view, size_t* deadline_degraded = nullptr) const;

   private:
    friend class LiveIndex;
    explicit Reader(const LiveIndex* index)
        : index_(index), lock_(index->mu_) {}

    const LiveIndex* index_;
    std::shared_lock<WriterPriorityMutex> lock_;
  };

  Reader Read() const { return Reader(this); }

 private:
  void InsertLocked(uint64_t seq, const Instance& x, Label y);
  /// Drops the dead prefix once it exceeds the live rows.
  void ReclaimLocked();
  void ResetLocked(uint64_t base);

  std::shared_ptr<const Schema> schema_;
  /// The checker's context: always empty, rows live only in the bitmaps.
  Context empty_;
  obs::Counter* builds_;

  mutable WriterPriorityMutex mu_;
  std::unique_ptr<BitsetConformityChecker> bits_;
  /// Sequence number at bit position 0; a multiple of 64.
  uint64_t base_ = 0;
};

}  // namespace cce::serving

#endif  // CCE_SERVING_LIVE_INDEX_H_
