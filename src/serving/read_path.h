#ifndef CCE_SERVING_READ_PATH_H_
#define CCE_SERVING_READ_PATH_H_

#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cce.h"
#include "core/counterfactual.h"
#include "core/dataset.h"
#include "core/key_result.h"
#include "core/srk.h"
#include "obs/metrics.h"
#include "serving/context_shard.h"

namespace cce::serving {

/// The key-search configuration, shared by the leader proxy and its read
/// replicas: both search a LiveIndex with the same ReadPath, which is what
/// makes a caught-up replica's keys bit-identical to the leader's, not
/// merely equivalent. The helpers below run the same configuration over a
/// materialized, sequence-ordered Context instead: the sorted-merge
/// oracle that served keys are tested against, and Counterfactuals.
struct ReadPath {
  /// Conformity bound for the key search.
  double alpha = 1.0;
  /// Live index: run counts on `pool`. SearchKey / SearchKeyBatch: use the
  /// blocked-bitset engine instead of sorted-merge. Keys are unchanged
  /// either way (docs/algorithms.md).
  bool parallel_conformity = false;
  /// Worker pool for the counts; null runs them serially.
  ThreadPool* pool = nullptr;
  /// Optional engine-stat sinks (cce_bitmap_rebuilds_total /
  /// cce_conformity_shards_total cells); null skips the export.
  obs::Counter* bitmap_rebuilds = nullptr;
  obs::Counter* conformity_shards = nullptr;
};

/// Srk options for `path`: its alpha, plus its pool and `stats` when
/// parallel_conformity is set.
Srk::Options SearchOptions(const ReadPath& path, Srk::EngineStats* stats);

/// Adds an engine's counters to the path's sinks.
void ExportEngineStats(const Srk::EngineStats& stats, const ReadPath& path);

/// Builds the search context from rows already merged into global
/// sequence order (the caller sorts; this only materializes).
Context MaterializeContext(std::shared_ptr<const Schema> schema,
                           const std::vector<ContextShard::Row>& rows);

/// One item of a batched key search: (x, y) plus that item's own deadline.
struct BatchQuery {
  Instance x;
  Label y = 0;
  Deadline deadline;
};

/// The earliest item deadline: the bound on anything a batch waits for as
/// a whole (admission, a hedge's head start).
Deadline EarliestDeadline(const std::vector<BatchQuery>& items);

/// Relative keys for every item against `context` under `path`'s engine
/// configuration (Srk::ExplainBatch: one shared bitmap build on the bitset
/// engine), with keys bit-identical to searching each item alone. Results
/// are positional: result i answers item i. Exports engine stats into the
/// path's counter sinks.
Result<std::vector<KeyResult>> SearchKeyBatch(
    const Context& context, const std::vector<BatchQuery>& items,
    const ReadPath& path);

/// SearchKeyBatch of one item.
Result<KeyResult> SearchKey(const Context& context, const Instance& x,
                            Label y, const Deadline& deadline,
                            const ReadPath& path);

/// Closest counterfactual witnesses for (x, y) against `context`.
Result<std::vector<RelativeCounterfactual>> SearchCounterfactuals(
    const Context& context, const Instance& x, Label y);

}  // namespace cce::serving

#endif  // CCE_SERVING_READ_PATH_H_
