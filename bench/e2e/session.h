// Runs the programs under test as subprocesses and measures them from
// outside: adrdedup_serve --listen driven by a single-threaded load
// generator over one binary-protocol connection (plus one HTTP connection
// for /healthz and /metrics), and adrdedup_detect run to completion.
#ifndef ADRDEDUP_BENCH_E2E_SESSION_H_
#define ADRDEDUP_BENCH_E2E_SESSION_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "json_lite.h"

namespace adrdedup::bench::e2e {

// One detected pair as (smaller case number, larger case number, score
// bits): order-independent, so detections digest identically whatever
// the micro-batching.
using Detection = std::tuple<std::string, std::string, uint64_t>;
Detection MakeDetection(const std::string& x, const std::string& y,
                        double score);

// FNV-1a over the sorted, de-duplicated lines (detections are rendered
// as "case_a<TAB>case_b<TAB>score bits").
uint64_t DigestLines(std::vector<std::string> lines);
uint64_t DigestDetections(const std::vector<Detection>& detections);
std::string DigestHex(uint64_t digest);

enum class PhaseKind { kClosedLoop, kOpenLoop };

struct PhasePlan {
  std::string name;
  PhaseKind kind = PhaseKind::kClosedLoop;
  size_t first = 0;  // first stream index of the phase
  size_t count = 0;
  // Open loop: arrivals per second, and the send offsets from the phase
  // start, ascending.
  double rate = 0.0;
  std::vector<double> schedule_ms;
};

struct PhaseResult {
  std::string name;
  size_t sent = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t expired = 0;
  size_t invalid = 0;
  size_t errors = 0;      // socket or protocol failures
  size_t unanswered = 0;  // still in flight at the deadline
  double wall_s = 0.0;
  std::vector<double> latency_ms;  // kOk answers, from the scheduled send
  std::vector<double> late_ms;     // open loop: actual minus scheduled send
  size_t backlog_max = 0;          // requests queued in the generator
  FlatJson metrics;                // /metrics scraped right after the phase

  size_t failed() const {
    return shed + expired + invalid + errors + unanswered;
  }
};

struct ServeSessionConfig {
  std::vector<std::string> argv;  // program and flags, without --listen
  // Pre-encoded screen request per stream index.
  std::vector<std::string> frames;
  std::vector<std::string> case_numbers;  // per stream index
  std::vector<PhasePlan> phases;
  double scrape_every_ms = 0.0;
};

struct ServeSessionResult {
  bool ok = false;
  std::string error;
  // Spawn to healthy: wall time, and the server's user + sys CPU time.
  double setup_wall_s = 0.0;
  double setup_cpu_s = 0.0;
  double cpu_s = 0.0;  // from healthy to exit
  double peak_rss_mb = 0.0;
  FlatJson metrics_at_healthy;
  std::vector<PhaseResult> phases;
  std::vector<double> scrape_ms;  // every /metrics scrape after healthy
  std::vector<double> scrape_bytes;
  // Bytes both ways on the screening connection.
  double screen_bytes = 0.0;
  std::vector<Detection> detections;
};

ServeSessionResult RunServeSession(const ServeSessionConfig& config);

struct JobResult {
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

// Runs argv to completion with stdout/stderr captured under `log_prefix`.
JobResult RunJob(const std::vector<std::string>& argv,
                 const std::string& log_prefix, double deadline_s);

}  // namespace adrdedup::bench::e2e

#endif  // ADRDEDUP_BENCH_E2E_SESSION_H_
