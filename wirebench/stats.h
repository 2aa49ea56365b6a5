#ifndef WIREBENCH_STATS_H_
#define WIREBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace wirebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A summarised sample: nearest-rank percentiles plus the count they rest
/// on. Failed requests enter as +infinity, so they miss every limit and
/// push the upper percentiles up instead of vanishing from the sample.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Nearest-rank percentile: the smallest value with at least q of the
/// sample at or below it. `sorted` must be ascending and non-empty.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline Summary Summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = NearestRank(values, 0.50);
  s.p90 = NearestRank(values, 0.90);
  s.p99 = NearestRank(values, 0.99);
  return s;
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return NearestRank(values, 0.50);
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// FNV-1a, folded over whatever the caller feeds it; the traffic digest.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace wirebench

#endif  // WIREBENCH_STATS_H_
