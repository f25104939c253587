// Minimal JSON reader for the benchmark's own inputs: the service's
// /metrics document and bench/e2e/expected_digests.json. Every number,
// string and boolean leaf is flattened into a map keyed by its dotted
// path ("requests.completed", "minispark.task_durations.total_seconds");
// array elements are keyed by index ("batches.size_histogram.0.count").
#ifndef ADRDEDUP_BENCH_E2E_JSON_LITE_H_
#define ADRDEDUP_BENCH_E2E_JSON_LITE_H_

#include <map>
#include <string>
#include <string_view>

namespace adrdedup::bench::e2e {

struct FlatJson {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;

  // Number at `path`, or `fallback` when absent.
  double Number(const std::string& path, double fallback = 0.0) const;
};

// Parses `text`; returns false on malformed input.
bool ParseFlatJson(std::string_view text, FlatJson* out);

}  // namespace adrdedup::bench::e2e

#endif  // ADRDEDUP_BENCH_E2E_JSON_LITE_H_
