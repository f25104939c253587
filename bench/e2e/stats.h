// Order statistics over samples of one run.
#ifndef ADRDEDUP_BENCH_E2E_STATS_H_
#define ADRDEDUP_BENCH_E2E_STATS_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace adrdedup::bench::e2e {

// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

// The highest of p99, p95 and p90 that leaves at least ten samples above
// it (p50 for samples too small for any of them).
inline double TailQuantile(size_t samples) {
  for (const double q : {0.99, 0.95, 0.90}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

}  // namespace adrdedup::bench::e2e

#endif  // ADRDEDUP_BENCH_E2E_STATS_H_
