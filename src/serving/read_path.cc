#include "serving/read_path.h"

#include <atomic>
#include <utility>


namespace cce::serving {

Context MaterializeContext(std::shared_ptr<const Schema> schema,
                           const std::vector<ContextShard::Row>& rows) {
  Context context(std::move(schema));
  for (const ContextShard::Row& row : rows) context.Add(row.x, row.y);
  return context;
}

Srk::Options SearchOptions(const ReadPath& path, Srk::EngineStats* stats) {
  Srk::Options options;
  options.alpha = path.alpha;
  if (path.parallel_conformity) {
    options.parallel_conformity = true;
    options.pool = path.pool;
    options.stats = stats;
  }
  return options;
}

void ExportEngineStats(const Srk::EngineStats& stats, const ReadPath& path) {
  const uint64_t builds = stats.bitmap_builds.load(std::memory_order_relaxed);
  if (builds > 0 && path.bitmap_rebuilds != nullptr) {
    path.bitmap_rebuilds->Add(builds);
  }
  const uint64_t shards = stats.shard_tasks.load(std::memory_order_relaxed);
  if (shards > 0 && path.conformity_shards != nullptr) {
    path.conformity_shards->Add(shards);
  }
}

Deadline EarliestDeadline(const std::vector<BatchQuery>& items) {
  Deadline earliest = Deadline::Infinite();
  for (const BatchQuery& item : items) {
    if (item.deadline.expiry() < earliest.expiry()) earliest = item.deadline;
  }
  return earliest;
}

Result<std::vector<KeyResult>> SearchKeyBatch(
    const Context& context, const std::vector<BatchQuery>& items,
    const ReadPath& path) {
  std::vector<Srk::BatchItem> batch;
  batch.reserve(items.size());
  for (const BatchQuery& item : items) {
    batch.push_back(Srk::BatchItem{item.x, item.y, item.deadline});
  }
  Srk::EngineStats stats;
  Result<std::vector<KeyResult>> keys =
      Srk::ExplainBatch(context, batch, SearchOptions(path, &stats));
  ExportEngineStats(stats, path);
  return keys;
}

Result<KeyResult> SearchKey(const Context& context, const Instance& x,
                            Label y, const Deadline& deadline,
                            const ReadPath& path) {
  Result<std::vector<KeyResult>> keys =
      SearchKeyBatch(context, {{x, y, deadline}}, path);
  if (!keys.ok()) return keys.status();
  return std::move(keys->front());
}

Result<std::vector<RelativeCounterfactual>> SearchCounterfactuals(
    const Context& context, const Instance& x, Label y) {
  return CounterfactualFinder::FindForInstance(context, x, y, {});
}

}  // namespace cce::serving
