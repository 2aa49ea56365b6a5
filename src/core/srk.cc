#include "core/srk.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/bitset_conformity.h"
#include "core/conformity.h"
#include "core/row_bitmap.h"

namespace cce {

namespace {

/// popcount(a & b) over `words` words; a null `b` is the empty bitmap.
size_t AndCountWords(const uint64_t* a, const uint64_t* b, size_t words) {
  if (b == nullptr) return 0;
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) count += std::popcount(a[w] & b[w]);
  return count;
}

/// The greedy half of the bitset engine, shared by the per-call, batched
/// and live-index entry points: the same decision sequence as the
/// sorted-row-id loop in ExplainInstance below, expressed over n agreement
/// bitmaps (`agree[f]`, `words` words each; null = no row agrees) and a
/// violator bitmap (mutated in place). `pool` shards only the candidate
/// *counting*; the arg-min scan is always serial in ascending feature
/// order, so the picks — and therefore the key — are independent of pool
/// width and of where the bitmaps came from.
KeyResult RunBitsetGreedy(size_t n, size_t words, size_t context_size,
                          size_t tolerated, const Deadline& deadline,
                          const uint64_t* const* agree, uint64_t* violators,
                          const std::vector<size_t>& value_frequency,
                          ThreadPool* pool, Srk::EngineStats* stats) {
  KeyResult result;

  // Runs fn(f) for every feature, across the pool when one is configured.
  // Each task stays serial inside (no nested pool use: non-reentrant).
  auto for_each_feature = [&](auto&& fn) {
    if (pool == nullptr) {
      for (FeatureId f = 0; f < n; ++f) fn(f);
    } else {
      pool->ParallelFor(n, [&](size_t f) { fn(static_cast<FeatureId>(f)); });
      if (stats != nullptr) {
        stats->shard_tasks.fetch_add(n, std::memory_order_relaxed);
      }
    }
  };

  std::vector<bool> in_key(n, false);
  size_t violator_count = 0;
  for (size_t w = 0; w < words; ++w) {
    violator_count += std::popcount(violators[w]);
  }

  const bool bounded = !deadline.infinite();
  auto finish_degraded = [&]() -> KeyResult {
    for (FeatureId f = 0; f < n; ++f) {
      if (!in_key[f]) FeatureSetInsert(&result.key, f);
    }
    // Survivors of the all-feature key are exact duplicates of x0: the
    // intersection of V with every agreement bitmap.
    size_t surviving = 0;
    for (size_t w = 0; w < words; ++w) {
      uint64_t acc = violators[w];
      for (FeatureId f = 0; f < n && acc != 0; ++f) {
        acc = agree[f] == nullptr ? 0 : acc & agree[f][w];
      }
      surviving += std::popcount(acc);
    }
    result.degraded = true;
    result.achieved_alpha =
        1.0 - static_cast<double>(surviving) /
                  static_cast<double>(context_size);
    result.satisfied = surviving <= tolerated;
    return result;
  };

  std::vector<size_t> counts(n, 0);
  while (violator_count > tolerated) {
    if (bounded && deadline.expired()) return finish_degraded();
    for_each_feature([&](FeatureId f) {
      if (!in_key[f]) counts[f] = AndCountWords(violators, agree[f], words);
    });
    FeatureId best_feature = 0;
    size_t best_count = std::numeric_limits<size_t>::max();
    size_t best_frequency = 0;
    for (FeatureId f = 0; f < n; ++f) {
      if (in_key[f]) continue;
      if (counts[f] < best_count ||
          (counts[f] == best_count &&
           value_frequency[f] > best_frequency)) {
        best_count = counts[f];
        best_feature = f;
        best_frequency = value_frequency[f];
      }
    }
    if (best_count == std::numeric_limits<size_t>::max() ||
        best_count == violator_count) {
      result.satisfied = false;
      break;
    }

    in_key[best_feature] = true;
    FeatureSetInsert(&result.key, best_feature);
    result.pick_order.push_back(best_feature);
    const uint64_t* picked = agree[best_feature];
    for (size_t w = 0; w < words; ++w) {
      violators[w] = picked == nullptr ? 0 : violators[w] & picked[w];
    }
    violator_count = best_count;
  }

  result.achieved_alpha =
      context_size == 0
          ? 1.0
          : 1.0 - static_cast<double>(violator_count) /
                      static_cast<double>(context_size);
  if (violator_count <= tolerated) result.satisfied = true;
  return result;
}

/// The batch entry points' argument checks: alpha in (0, 1] and every
/// instance of arity `n`.
Status ValidateBatch(const std::vector<Srk::BatchItem>& items, size_t n,
                     double alpha) {
  if (alpha <= 0.0 || alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].x.size() != n) {
      return Status::InvalidArgument(
          "batch item " + std::to_string(i) +
          ": instance arity does not match schema");
    }
  }
  return Status::Ok();
}

/// Word pointers of prebuilt agreement bitmaps, for RunBitsetGreedy.
std::vector<const uint64_t*> AgreeWords(const RowBitmap* agree, size_t n) {
  std::vector<const uint64_t*> words(n);
  for (size_t f = 0; f < n; ++f) words[f] = agree[f].data();
  return words;
}

/// One item's search against a live index: violators start as
/// live & ~label[y0] and the candidate bitmaps are the index's own
/// value[f][x0[f]] — nothing is built per call. Only the word range that
/// holds live rows is scanned.
KeyResult ExplainIndexedItem(const BitsetConformityChecker& index,
                             const Instance& x0, Label y0, double alpha,
                             const Deadline& deadline,
                             Srk::EngineStats* stats) {
  const size_t n = x0.size();
  const size_t live_rows = index.live_rows();
  const size_t tolerated = static_cast<size_t>(
      std::floor((1.0 - alpha) * static_cast<double>(live_rows) + 1e-9));
  const uint64_t* live = index.live().data();
  size_t begin = 0;
  size_t end = index.live().num_words();
  while (begin < end && live[begin] == 0) ++begin;
  while (end > begin && live[end - 1] == 0) --end;
  const size_t words = end - begin;

  std::vector<const uint64_t*> agree(n);
  for (FeatureId f = 0; f < n; ++f) {
    const RowBitmap* bits = index.ValueBits(f, x0[f]);
    agree[f] = bits == nullptr ? nullptr : bits->data() + begin;
  }
  const RowBitmap* label_bits = index.LabelBits(y0);
  const uint64_t* label =
      label_bits == nullptr ? nullptr : label_bits->data() + begin;
  std::vector<uint64_t> violators(words);
  for (size_t w = 0; w < words; ++w) {
    violators[w] =
        live[begin + w] & (label == nullptr ? ~uint64_t{0} : ~label[w]);
  }

  // The reference tie-break samples the first 2048 rows of the
  // sequence-ordered context; row ids ascend with sequence, so those are
  // the first 2048 live ids: whole live words, then the lowest `left` set
  // bits of one more word.
  constexpr size_t kFrequencySample = 2048;
  size_t left = std::min(live_rows, kFrequencySample);
  size_t sample_words = 0;
  uint64_t tail_mask = 0;
  for (; sample_words < words && left > 0; ++sample_words) {
    const uint64_t word = live[begin + sample_words];
    const size_t bits = static_cast<size_t>(std::popcount(word));
    if (bits > left) {
      uint64_t rest = word;
      for (size_t i = 0; i < left; ++i) {
        tail_mask |= rest & (~rest + 1);  // lowest set bit
        rest &= rest - 1;
      }
      break;
    }
    left -= bits;
  }
  std::vector<size_t> value_frequency(n, 0);
  for (FeatureId f = 0; f < n; ++f) {
    if (agree[f] == nullptr) continue;
    size_t count = 0;
    for (size_t w = 0; w < sample_words; ++w) {
      count += std::popcount(agree[f][w] & live[begin + w]);
    }
    if (tail_mask != 0) {
      count += std::popcount(agree[f][sample_words] & tail_mask);
    }
    value_frequency[f] = count;
  }

  return RunBitsetGreedy(n, words, live_rows, tolerated, deadline,
                         agree.data(), violators.data(), value_frequency,
                         /*pool=*/nullptr, stats);
}

/// The bitset path: for a fixed x0 the greedy only ever reads the
/// (f, x0[f]) slice of the (feature, value) bitmap family, so only that
/// slice is built: A_f with A_f[row] = (context[row][f] == x0[f]), plus a
/// violator bitmap V with V[row] = (label[row] != y0). Each candidate count
/// is then popcount(V & A_f); taking feature f updates V &= A_f.
///
/// Determinism: every quantity compared by the greedy (candidate counts,
/// tie-break frequencies) is an exact integer popcount, so the arg-min scan
/// — which always runs serially in ascending feature order — picks the same
/// feature as the reference loop regardless of how the counting work was
/// sharded. Identical keys with 0, 1 or N pool threads.
KeyResult ExplainInstanceBitset(const Context& context, const Instance& x0,
                                Label y0, const Srk::Options& options,
                                size_t tolerated) {
  const size_t n = context.num_features();
  const size_t context_size = context.size();
  ThreadPool* pool = options.pool;
  Srk::EngineStats* stats = options.stats;

  // One row-major pass builds every agreement bitmap and the violator
  // bitmap together: each row is touched once (instances are row-major, so
  // per-feature column walks would chase the same row pointers n times)
  // and words are accumulated locally, one store per 64 rows per bitmap.
  std::vector<RowBitmap> agree(n);
  for (FeatureId f = 0; f < n; ++f) agree[f].Resize(context_size);
  RowBitmap violators(context_size);
  const size_t num_words = violators.num_words();
  auto build_words = [&](size_t word_begin, size_t word_end) {
    std::vector<uint64_t> acc(n);
    for (size_t w = word_begin; w < word_end; ++w) {
      std::fill(acc.begin(), acc.end(), 0);
      uint64_t viol = 0;
      const size_t row_begin = w << 6;
      const size_t row_end = std::min(context_size, row_begin + 64);
      for (size_t row = row_begin; row < row_end; ++row) {
        const Instance& xr = context.instance(row);
        const uint64_t bit = uint64_t{1} << (row - row_begin);
        for (FeatureId f = 0; f < n; ++f) {
          if (xr[f] == x0[f]) acc[f] |= bit;
        }
        if (context.label(row) != y0) viol |= bit;
      }
      for (FeatureId f = 0; f < n; ++f) agree[f].mutable_data()[w] = acc[f];
      violators.mutable_data()[w] = viol;
    }
  };
  // Chunks write disjoint word ranges of every bitmap, so the result is
  // positional — identical for any pool width, including none.
  constexpr size_t kBuildChunkWords = 1024;  // 64 Ki rows per task
  if (pool != nullptr && num_words > kBuildChunkWords) {
    pool->ParallelChunks(num_words, kBuildChunkWords, build_words);
    if (stats != nullptr) {
      stats->shard_tasks.fetch_add(
          (num_words + kBuildChunkWords - 1) / kBuildChunkWords,
          std::memory_order_relaxed);
    }
  } else {
    build_words(0, num_words);
  }
  if (stats != nullptr) {
    stats->bitmap_builds.fetch_add(1, std::memory_order_relaxed);
  }

  // Same sampled tie-break frequencies as the reference loop; a prefix
  // popcount of A_f is the same integer the sampled row scan produces.
  constexpr size_t kFrequencySample = 2048;
  const size_t sample_rows = std::min(context_size, kFrequencySample);
  std::vector<size_t> value_frequency(n, 0);
  for (FeatureId f = 0; f < n; ++f) {
    value_frequency[f] = agree[f].CountPrefix(sample_rows);
  }

  const std::vector<const uint64_t*> agree_words = AgreeWords(agree.data(), n);
  return RunBitsetGreedy(n, num_words, context_size, tolerated,
                         options.deadline, agree_words.data(),
                         violators.mutable_data(), value_frequency, pool,
                         stats);
}

/// The batched bitset path: one fused row-major pass fills EVERY item's
/// agreement bitmaps and violator bitmap together — each context row's
/// instance pointer is chased once for the whole batch instead of once per
/// item — then each item's greedy runs serially inside a per-item task.
/// Chunks write disjoint word ranges of every bitmap, so the build is
/// positional: identical bits at any pool width, including none.
std::vector<KeyResult> ExplainBatchBitset(const Context& context,
                                          const std::vector<Srk::BatchItem>& items,
                                          const Srk::Options& options,
                                          size_t tolerated) {
  const size_t n = context.num_features();
  const size_t m = items.size();
  const size_t context_size = context.size();
  ThreadPool* pool = options.pool;
  Srk::EngineStats* stats = options.stats;

  // agree[i * n + f] is item i's agreement bitmap for feature f.
  std::vector<RowBitmap> agree(m * n);
  for (RowBitmap& bitmap : agree) bitmap.Resize(context_size);
  std::vector<RowBitmap> violators(m);
  for (RowBitmap& bitmap : violators) bitmap.Resize(context_size);
  const size_t num_words = violators[0].num_words();

  auto build_words = [&](size_t word_begin, size_t word_end) {
    std::vector<uint64_t> acc(m * n);
    std::vector<uint64_t> viol(m);
    for (size_t w = word_begin; w < word_end; ++w) {
      std::fill(acc.begin(), acc.end(), 0);
      std::fill(viol.begin(), viol.end(), 0);
      const size_t row_begin = w << 6;
      const size_t row_end = std::min(context_size, row_begin + 64);
      for (size_t row = row_begin; row < row_end; ++row) {
        const Instance& xr = context.instance(row);
        const Label yr = context.label(row);
        const uint64_t bit = uint64_t{1} << (row - row_begin);
        for (size_t i = 0; i < m; ++i) {
          const Instance& x0 = items[i].x;
          uint64_t* item_acc = acc.data() + i * n;
          for (FeatureId f = 0; f < n; ++f) {
            if (xr[f] == x0[f]) item_acc[f] |= bit;
          }
          if (yr != items[i].y) viol[i] |= bit;
        }
      }
      for (size_t i = 0; i < m; ++i) {
        for (FeatureId f = 0; f < n; ++f) {
          agree[i * n + f].mutable_data()[w] = acc[i * n + f];
        }
        violators[i].mutable_data()[w] = viol[i];
      }
    }
  };
  constexpr size_t kBuildChunkWords = 1024;  // 64 Ki rows per task
  if (pool != nullptr && num_words > kBuildChunkWords) {
    pool->ParallelChunks(num_words, kBuildChunkWords, build_words);
    if (stats != nullptr) {
      stats->shard_tasks.fetch_add(
          (num_words + kBuildChunkWords - 1) / kBuildChunkWords,
          std::memory_order_relaxed);
    }
  } else {
    build_words(0, num_words);
  }
  // The shared build is the amortization: one bitmap build for the whole
  // batch, where N serial Explains would have counted N.
  if (stats != nullptr) {
    stats->bitmap_builds.fetch_add(1, std::memory_order_relaxed);
  }

  constexpr size_t kFrequencySample = 2048;
  const size_t sample_rows = std::min(context_size, kFrequencySample);

  std::vector<KeyResult> results(m);
  // Per-item greedy, fanned across the pool. Each task is fully serial
  // inside (ThreadPool is non-reentrant), which is also why the greedy's
  // own candidate counting gets no pool here: the keys are unchanged —
  // every compared quantity is an exact popcount either way.
  auto run_item = [&](size_t i) {
    RowBitmap* item_agree = agree.data() + i * n;
    std::vector<size_t> value_frequency(n, 0);
    for (FeatureId f = 0; f < n; ++f) {
      value_frequency[f] = item_agree[f].CountPrefix(sample_rows);
    }
    const std::vector<const uint64_t*> agree_words = AgreeWords(item_agree, n);
    results[i] = RunBitsetGreedy(n, num_words, context_size, tolerated,
                                 items[i].deadline, agree_words.data(),
                                 violators[i].mutable_data(), value_frequency,
                                 /*pool=*/nullptr, stats);
  };
  if (pool != nullptr) {
    pool->ParallelFor(m, run_item);
    if (stats != nullptr) {
      stats->shard_tasks.fetch_add(m, std::memory_order_relaxed);
    }
  } else {
    for (size_t i = 0; i < m; ++i) run_item(i);
  }
  return results;
}

}  // namespace

Result<KeyResult> Srk::Explain(const Context& context, size_t row,
                               const Options& options) {
  if (row >= context.size()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " outside context of size " +
                              std::to_string(context.size()));
  }
  return ExplainInstance(context, context.instance(row), context.label(row),
                         options);
}

Result<std::vector<Srk::SweepPoint>> Srk::SweepTradeoff(
    const Context& context, size_t row) {
  if (row >= context.size()) {
    return Status::OutOfRange("row outside context");
  }
  const Instance& x0 = context.instance(row);
  const Label y0 = context.label(row);
  const size_t n = context.num_features();
  const double context_size = static_cast<double>(context.size());

  std::vector<size_t> violators;
  for (size_t r = 0; r < context.size(); ++r) {
    if (context.label(r) != y0) violators.push_back(r);
  }

  std::vector<SweepPoint> curve;
  curve.push_back(SweepPoint{
      0, 1.0 - static_cast<double>(violators.size()) / context_size,
      static_cast<FeatureId>(n)});  // sentinel: no pick for the empty key

  // Same sampled-frequency tie-break as ExplainInstance, so the sweep's
  // pick sequence matches per-alpha Explain calls exactly.
  constexpr size_t kFrequencySample = 2048;
  const size_t sample_rows =
      std::min(context.size(), kFrequencySample);
  std::vector<size_t> value_frequency(n, 0);
  for (size_t r = 0; r < sample_rows; ++r) {
    for (FeatureId f = 0; f < n; ++f) {
      if (context.value(r, f) == x0[f]) ++value_frequency[f];
    }
  }

  std::vector<bool> in_key(n, false);
  size_t key_size = 0;
  // Greedy to exhaustion: each step records the conformity the prefix key
  // achieves, yielding the whole alpha-vs-succinctness curve in one run.
  while (!violators.empty() && key_size < n) {
    FeatureId best_feature = 0;
    size_t best_count = std::numeric_limits<size_t>::max();
    size_t best_frequency = 0;
    for (FeatureId f = 0; f < n; ++f) {
      if (in_key[f]) continue;
      size_t count = 0;
      for (size_t r : violators) {
        if (context.value(r, f) == x0[f]) ++count;
      }
      if (count < best_count ||
          (count == best_count && value_frequency[f] > best_frequency)) {
        best_count = count;
        best_feature = f;
        best_frequency = value_frequency[f];
      }
    }
    if (best_count == violators.size()) break;  // no feature helps
    in_key[best_feature] = true;
    ++key_size;
    std::vector<size_t> surviving;
    surviving.reserve(best_count);
    for (size_t r : violators) {
      if (context.value(r, best_feature) == x0[best_feature]) {
        surviving.push_back(r);
      }
    }
    violators = std::move(surviving);
    curve.push_back(SweepPoint{
        key_size,
        1.0 - static_cast<double>(violators.size()) / context_size,
        best_feature});
  }
  return curve;
}

Result<KeyResult> Srk::ExplainInstance(const Context& context,
                                       const Instance& x0, Label y0,
                                       const Options& options) {
  if (options.alpha <= 0.0 || options.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (x0.size() != context.num_features()) {
    return Status::InvalidArgument("instance arity does not match schema");
  }

  const size_t n = context.num_features();
  const size_t context_size = context.size();
  const double budget =
      std::floor((1.0 - options.alpha) * static_cast<double>(context_size) +
                 1e-9);
  const size_t tolerated = static_cast<size_t>(budget);

  if (options.parallel_conformity) {
    return ExplainInstanceBitset(context, x0, y0, options, tolerated);
  }

  KeyResult result;

  // Violators: rows that agree with x0 on the current key E yet are
  // predicted differently. With E empty that is every differently-predicted
  // row. The greedy loop shrinks this set monotonically.
  std::vector<size_t> violators;
  for (size_t row = 0; row < context_size; ++row) {
    if (context.label(row) != y0) violators.push_back(row);
  }

  std::vector<bool> in_key(n, false);

  // Note: Algorithm 1 as printed always selects at least one feature; we
  // first check whether the empty key already satisfies the bound (possible
  // for alpha < 1 or single-class contexts), which is strictly more succinct
  // and still alpha-conformant.
  // Per-feature context frequency of x0's value, used only to break ties in
  // the greedy step: among equally-violator-minimising features, prefer the
  // one agreeing with the most context rows, which keeps the key's coverage
  // (and hence recall, Section 7.1(c)) high. Algorithm 1 leaves ties open.
  // A fixed-size prefix sample suffices — ties only need approximate
  // frequencies — keeping this pass O(n) amortised for large contexts.
  constexpr size_t kFrequencySample = 2048;
  const size_t sample_rows = std::min(context_size, kFrequencySample);
  std::vector<size_t> value_frequency(n, 0);
  for (size_t row = 0; row < sample_rows; ++row) {
    for (FeatureId f = 0; f < n; ++f) {
      if (context.value(row, f) == x0[f]) ++value_frequency[f];
    }
  }

  // Deadline handling: when the per-call budget expires mid-search we stop
  // enumerating candidates and *pad* the key with every remaining feature.
  // The all-feature key is the most conformant key that exists (only exact
  // duplicates of x0 with a different prediction survive it), so the result
  // remains alpha-conformant whenever any key is — just not minimal. The
  // caller sees `degraded = true`.
  const bool bounded = !options.deadline.infinite();
  auto finish_degraded = [&]() -> KeyResult {
    for (FeatureId f = 0; f < n; ++f) {
      if (!in_key[f]) FeatureSetInsert(&result.key, f);
    }
    std::vector<size_t> surviving;
    for (size_t row : violators) {
      bool duplicate = true;
      for (FeatureId f = 0; f < n && duplicate; ++f) {
        duplicate = context.value(row, f) == x0[f];
      }
      if (duplicate) surviving.push_back(row);
    }
    violators = std::move(surviving);
    result.degraded = true;
    result.achieved_alpha =
        1.0 - static_cast<double>(violators.size()) /
                  static_cast<double>(context_size);
    result.satisfied = violators.size() <= tolerated;
    return result;
  };

  while (violators.size() > tolerated) {
    if (bounded && options.deadline.expired()) return finish_degraded();
    // Greedy step (Algorithm 1 lines 1-6): pick the feature minimising the
    // number of surviving violators, i.e. |I[A_i = a_i] ∩ violators|.
    FeatureId best_feature = 0;
    size_t best_count = std::numeric_limits<size_t>::max();
    size_t best_frequency = 0;
    bool scan_expired = false;
    for (FeatureId f = 0; f < n; ++f) {
      if (in_key[f]) continue;
      // Check inside the candidate scan too: one full scan over a large
      // violator set can dwarf a millisecond-scale budget.
      if (bounded && options.deadline.expired()) {
        scan_expired = true;
        break;
      }
      size_t count = 0;
      for (size_t row : violators) {
        if (context.value(row, f) == x0[f]) ++count;
      }
      if (count < best_count ||
          (count == best_count && value_frequency[f] > best_frequency)) {
        best_count = count;
        best_feature = f;
        best_frequency = value_frequency[f];
      }
    }
    if (scan_expired) return finish_degraded();
    if (best_count == std::numeric_limits<size_t>::max() ||
        best_count == violators.size()) {
      // Either all features are used up, or no remaining feature removes a
      // single violator (conflicting duplicates): the target is unreachable.
      if (best_count == violators.size() &&
          best_count != std::numeric_limits<size_t>::max()) {
        // Adding more features cannot help; stop with the current key.
      }
      result.satisfied = false;
      break;
    }

    in_key[best_feature] = true;
    FeatureSetInsert(&result.key, best_feature);
    result.pick_order.push_back(best_feature);

    std::vector<size_t> surviving;
    surviving.reserve(best_count);
    for (size_t row : violators) {
      if (context.value(row, best_feature) == x0[best_feature]) {
        surviving.push_back(row);
      }
    }
    violators = std::move(surviving);
  }

  result.achieved_alpha =
      context_size == 0
          ? 1.0
          : 1.0 - static_cast<double>(violators.size()) /
                      static_cast<double>(context_size);
  if (violators.size() <= tolerated) result.satisfied = true;
  return result;
}

Result<std::vector<KeyResult>> Srk::ExplainIndexedBatch(
    const BitsetConformityChecker& index, const std::vector<BatchItem>& items,
    const Options& options) {
  CCE_RETURN_IF_ERROR(
      ValidateBatch(items, index.context().num_features(), options.alpha));
  std::vector<KeyResult> results(items.size());
  // Items fan across the pool with a serial greedy inside each task
  // (ThreadPool is non-reentrant); every compared quantity is an exact
  // popcount, so the keys do not depend on the fan-out. A lone item counts
  // serially: spreading one greedy's counts over the pool costs more in
  // hand-offs than it saves (docs/algorithms.md "The live index").
  auto run_item = [&](size_t i) {
    results[i] = ExplainIndexedItem(index, items[i].x, items[i].y,
                                    options.alpha, items[i].deadline,
                                    options.stats);
  };
  if (options.pool != nullptr && items.size() > 1) {
    options.pool->ParallelFor(items.size(), run_item);
    if (options.stats != nullptr) {
      options.stats->shard_tasks.fetch_add(items.size(),
                                           std::memory_order_relaxed);
    }
  } else {
    for (size_t i = 0; i < items.size(); ++i) run_item(i);
  }
  return results;
}

Result<std::vector<KeyResult>> Srk::ExplainBatch(
    const Context& context, const std::vector<BatchItem>& items,
    const Options& options) {
  CCE_RETURN_IF_ERROR(
      ValidateBatch(items, context.num_features(), options.alpha));
  std::vector<KeyResult> results;
  if (items.empty()) return results;

  const double budget =
      std::floor((1.0 - options.alpha) * static_cast<double>(context.size()) +
                 1e-9);
  const size_t tolerated = static_cast<size_t>(budget);

  if (options.parallel_conformity) {
    return ExplainBatchBitset(context, items, options, tolerated);
  }

  // Reference engine: nothing to amortize, but the batch entry point keeps
  // its contract — item i's result equals a standalone ExplainInstance.
  results.reserve(items.size());
  for (const BatchItem& item : items) {
    Options per_item = options;
    per_item.deadline = item.deadline;
    Result<KeyResult> key = ExplainInstance(context, item.x, item.y, per_item);
    if (!key.ok()) return key.status();
    results.push_back(std::move(*key));
  }
  return results;
}

}  // namespace cce
