// Traced in-process replay. Spans are recorded by the benchmark around
// its own calls into each layer's public functions (the program itself
// carries no spans), kept in memory, and written at exit as Chrome
// trace-event JSON that Perfetto and chrome://tracing open directly.
#ifndef ADRDEDUP_BENCH_E2E_TRACE_H_
#define ADRDEDUP_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "inputs.h"
#include "session.h"
#include "util/status.h"
#include "workloads.h"

namespace adrdedup::bench::e2e {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;      // index of the enclosing span, -1 for a root
    int64_t batch = -1;   // replayed batch, -1 outside the stream
  };

  // RAII span; nests under whatever span is open when it starts.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t batch = -1)
        : tracer_(tracer), id_(tracer->Begin(name, batch)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double ElapsedUs() const;

   private:
    Tracer* tracer_;
    int id_;
  };

  Tracer();

  int Begin(const char* name, int64_t batch);
  void End(int id);
  double NowUs() const;

  const std::vector<Span>& spans() const { return spans_; }
  // Duration minus the part covered by child spans, summed per name (ms),
  // over the spans recorded from index `from` on.
  std::map<std::string, double> SelfMs(size_t from = 0) const;
  // Total duration and span count per name, likewise.
  std::map<std::string, double> TotalMs(size_t from = 0) const;
  std::map<std::string, double> Count(size_t from = 0) const;

  util::Status WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  double epoch_s_ = 0.0;
};

struct TraceOutcome {
  std::string error;  // empty on success
  // Per-layer [t] metrics, keyed by their BENCHMARK.json names.
  std::map<std::string, double> metrics;
  // Detections of the mirror (path a) and of DedupPipeline (path b).
  uint64_t mirror_digest = 0;
  uint64_t pipeline_digest = 0;
  // Audit: wall time of the mirrored tool sequence, in ms.
  double mirror_ms = 0.0;
};

struct ServeTraceConfig {
  const WorkloadSpec* spec = nullptr;
  const ServeInputs* inputs = nullptr;
  std::string bootstrap_csv;
  std::string workdir;
  const std::vector<std::string>* frames = nullptr;  // encoded requests
  // (first stream index, count, batch size) per phase.
  std::vector<std::tuple<size_t, size_t, size_t>> phases;
};

TraceOutcome RunServeTrace(const ServeTraceConfig& config, Tracer* tracer);

struct AuditTraceConfig {
  const WorkloadSpec* spec = nullptr;
  std::string reports_csv;
  std::string truth_csv;
  std::string detections_csv;  // written by the mirror
};

TraceOutcome RunAuditTrace(const AuditTraceConfig& config, Tracer* tracer);

}  // namespace adrdedup::bench::e2e

#endif  // ADRDEDUP_BENCH_E2E_TRACE_H_
