// Google-benchmark micro-benchmarks for the core algorithms: SRK scaling
// in |I| and n, OSRK/SSRK per-arrival update cost, the conformity
// checker's index construction, and the serial-vs-bitset engine
// comparison at 1/2/4/8 pool threads (EXPERIMENTS.md "Bitset conformity
// engine" records the numbers), and the served live-index search with and
// without its count pool (docs/algorithms.md "The live index").

#include <benchmark/benchmark.h>

#include <memory>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/bitset_conformity.h"
#include "core/conformity.h"
#include "core/osrk.h"
#include "core/srk.h"
#include "core/ssrk.h"
#include "data/generators.h"
#include "serving/live_index.h"
#include "tests/test_util.h"

namespace cce {
namespace {

void BM_SrkVsContextSize(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Dataset context = testing::RandomContext(rows, 12, 6, 42);
  for (auto _ : state) {
    auto key = Srk::Explain(context, 0, {});
    benchmark::DoNotOptimize(key);
  }
  state.SetComplexityN(static_cast<int64_t>(rows));
}
BENCHMARK(BM_SrkVsContextSize)->Range(512, 32768)->Complexity();

void BM_SrkVsFeatures(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Dataset context = testing::RandomContext(4096, n, 6, 42);
  for (auto _ : state) {
    auto key = Srk::Explain(context, 0, {});
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_SrkVsFeatures)->RangeMultiplier(2)->Range(4, 64);

void BM_SrkAlpha(benchmark::State& state) {
  Dataset context = testing::RandomContext(8192, 12, 6, 42);
  Srk::Options options;
  options.alpha = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto key = Srk::Explain(context, 0, options);
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_SrkAlpha)->Arg(100)->Arg(95)->Arg(90);

void BM_OsrkUpdate(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Dataset context = testing::RandomContext(rows, 12, 6, 42);
  Osrk::Options options;
  auto osrk = Osrk::Create(context.schema_ptr(), context.instance(0),
                           context.label(0), options);
  CCE_CHECK_OK(osrk.status());
  size_t row = 1;
  for (auto _ : state) {
    (*osrk)->Observe(context.instance(row), context.label(row));
    row = row + 1 < context.size() ? row + 1 : 1;
  }
}
BENCHMARK(BM_OsrkUpdate)->Range(1024, 16384);

void BM_SsrkUpdate(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Dataset universe = testing::RandomContext(rows, 12, 6, 42);
  auto ssrk = Ssrk::Create(universe, universe.instance(0),
                           universe.label(0), {});
  CCE_CHECK_OK(ssrk.status());
  size_t row = 1;
  for (auto _ : state) {
    (*ssrk)->Observe(universe.instance(row), universe.label(row));
    row = row + 1 < universe.size() ? row + 1 : 1;
  }
}
BENCHMARK(BM_SsrkUpdate)->Range(1024, 16384);

void BM_ConformityIndexBuild(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Dataset context = testing::RandomContext(rows, 12, 6, 42);
  for (auto _ : state) {
    ConformityChecker checker(&context);
    benchmark::DoNotOptimize(checker);
  }
  state.SetComplexityN(static_cast<int64_t>(rows));
}
BENCHMARK(BM_ConformityIndexBuild)->Range(1024, 32768)->Complexity();

// -- Engine comparison: sorted-merge reference vs blocked bitset. ---------
//
// Same context, same key, same query; the bitset benchmarks take the pool
// width as the second argument (0 = no pool, the serial bitset path).
// Shards are RowBitmap::kShardWords (256 Ki rows), so the 2 Mi-row case
// fans out 8 shards per count.

void BM_ViolatorCountSorted(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Dataset context = testing::RandomContext(rows, 12, 6, 42);
  ConformityChecker checker(&context);
  FeatureSet key = {0, 3, 7};
  for (auto _ : state) {
    size_t violators =
        checker.CountViolators(context.instance(0), context.label(0), key);
    benchmark::DoNotOptimize(violators);
  }
}
BENCHMARK(BM_ViolatorCountSorted)->Arg(1 << 18)->Arg(1 << 21);

void BM_ViolatorCountBitset(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  size_t threads = static_cast<size_t>(state.range(1));
  Dataset context = testing::RandomContext(rows, 12, 6, 42);
  std::unique_ptr<ThreadPool> pool;
  BitsetConformityChecker::Options options;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    options.pool = pool.get();
  }
  BitsetConformityChecker checker(&context, options);
  FeatureSet key = {0, 3, 7};
  for (auto _ : state) {
    size_t violators =
        checker.CountViolators(context.instance(0), context.label(0), key);
    benchmark::DoNotOptimize(violators);
  }
}
BENCHMARK(BM_ViolatorCountBitset)
    ->Args({1 << 18, 0})
    ->Args({1 << 21, 0})
    ->Args({1 << 21, 1})
    ->Args({1 << 21, 2})
    ->Args({1 << 21, 4})
    ->Args({1 << 21, 8});

void BM_SrkSorted(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Dataset context = testing::RandomContext(rows, 12, 6, 42);
  for (auto _ : state) {
    auto key = Srk::Explain(context, 0, {});
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_SrkSorted)->Arg(1 << 15)->Arg(1 << 18);

void BM_SrkBitset(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  size_t threads = static_cast<size_t>(state.range(1));
  Dataset context = testing::RandomContext(rows, 12, 6, 42);
  std::unique_ptr<ThreadPool> pool;
  Srk::Options options;
  options.parallel_conformity = true;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    options.pool = pool.get();
  }
  // Bitmap construction happens inside Explain, so this measures the
  // honest end-to-end latency a proxy Explain pays, rebuild included.
  for (auto _ : state) {
    auto key = Srk::Explain(context, 0, options);
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_SrkBitset)
    ->Args({1 << 15, 0})
    ->Args({1 << 18, 0})
    ->Args({1 << 18, 1})
    ->Args({1 << 18, 2})
    ->Args({1 << 18, 4})
    ->Args({1 << 18, 8});

void BM_BitsetIncrementalAddRow(benchmark::State& state) {
  Dataset context = testing::RandomContext(4096, 12, 6, 42);
  BitsetConformityChecker checker(&context);
  size_t row = 0;
  for (auto _ : state) {
    size_t id = checker.AddRow(context.instance(row), context.label(row));
    checker.RemoveRow(id);  // keep the live set bounded
    row = row + 1 < context.size() ? row + 1 : 0;
  }
}
BENCHMARK(BM_BitsetIncrementalAddRow);

void BM_ConformityPrecision(benchmark::State& state) {
  Dataset context = testing::RandomContext(16384, 12, 6, 42);
  ConformityChecker checker(&context);
  FeatureSet key = {0, 1, 5};
  for (auto _ : state) {
    double precision =
        checker.Precision(context.instance(0), context.label(0), key);
    benchmark::DoNotOptimize(precision);
  }
}
BENCHMARK(BM_ConformityPrecision);

// -- The live index: what a served Explain's search costs. ----------------
//
// One serving::LiveIndex over an Adult-shaped window, searched exactly as
// the proxy and the replica search it (LiveIndex::Reader::SearchBatch).
// Args are {window rows, items per search, pool width (0 = no pool)}; one
// item is a scalar Explain, whose candidate counts then spread over the
// pool, and several items spread over it item by item. per_key is the
// wall time per answered item, so the rows compare directly.

void BM_LiveIndexSearch(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  const size_t items = static_cast<size_t>(state.range(1));
  const size_t threads = static_cast<size_t>(state.range(2));
  data::AdultOptions adult;
  adult.rows = window;
  adult.seed = 42;
  const Dataset data = data::GenerateAdult(adult);
  serving::LiveIndex index(data.schema_ptr());
  std::vector<serving::ContextShard::Row> rows;
  for (size_t row = 0; row < data.size(); ++row) {
    rows.push_back({row, data.instance(row), data.label(row)});
  }
  index.Rebuild(rows);
  std::unique_ptr<ThreadPool> pool;
  serving::ReadPath path;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    path.parallel_conformity = true;
    path.pool = pool.get();
  }
  // 64 probes from across the window, taken `items` at a time.
  std::vector<serving::BatchQuery> probes;
  for (size_t i = 0; i < 64; ++i) {
    const size_t row = (i * 7919) % data.size();
    probes.push_back({data.instance(row), data.label(row), {}});
  }
  size_t next = 0;
  for (auto _ : state) {
    std::vector<serving::BatchQuery> batch;
    for (size_t i = 0; i < items; ++i) {
      batch.push_back(probes[next]);
      next = (next + 1) % probes.size();
    }
    const auto keys = index.Read().SearchBatch(batch, path, false);
    benchmark::DoNotOptimize(keys);
  }
  state.counters["per_key"] = benchmark::Counter(
      static_cast<double>(items),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_LiveIndexSearch)
    ->ArgsProduct({{2048, 32768, 131072}, {1, 16}, {0, 4}})
    ->UseRealTime();

}  // namespace
}  // namespace cce

BENCHMARK_MAIN();
