// In-process reference for correctness checks: the model and pipeline
// the CLIs build, reconstructed from the same inputs through the public
// library API, and the programs' answers derived from it.
#ifndef ADRDEDUP_BENCH_E2E_ORACLE_H_
#define ADRDEDUP_BENCH_E2E_ORACLE_H_

#include <string>
#include <utility>
#include <vector>

#include "core/dedup_pipeline.h"
#include "distance/pair_dataset.h"
#include "inputs.h"
#include "report/report_database.h"
#include "session.h"

namespace adrdedup::bench::e2e {

// Model flags every program run uses (the CLI defaults, spelled out so
// the oracle cannot drift from what the programs were asked to do).
inline constexpr size_t kK = 9;
inline constexpr size_t kClusters = 32;
inline constexpr size_t kNegatives = 100000;
inline constexpr uint64_t kLabelSeed = 7;

// DedupPipeline options of adrdedup_serve --listen (serving path:
// no inline refits, incremental blocking when blocking is on).
core::DedupPipelineOptions ServePipelineOptions(bool use_blocking);

// adrdedup_serve's training set: truth pairs as positives plus uniformly
// sampled non-truth pairs of the bootstrapped database as negatives.
std::vector<distance::LabeledPair> ServeLabels(
    const report::ReportDatabase& db,
    const std::vector<distance::ReportFeatures>& features,
    const std::vector<std::pair<std::string, std::string>>& truth);

// adrdedup_detect's training set (negatives over the whole corpus).
std::vector<distance::LabeledPair> DetectLabels(
    const report::ReportDatabase& db,
    const std::vector<distance::ReportFeatures>& features,
    const std::vector<std::pair<std::string, std::string>>& truth);

// Every detection the server must answer for the stream: a DedupPipeline
// bootstrapped and trained like the server screens the whole stream in
// micro-batches of the service's default size. Detections do not depend
// on the batching, so their digest must equal the server's.
std::vector<Detection> OracleServeDetections(const ServeInputs& inputs,
                                             bool use_blocking);

struct SpotCheck {
  std::vector<std::string> mismatches;  // one line per disagreeing answer
  size_t answers = 0;                   // answers re-derived
  size_t matches = 0;                   // expected detections among them
};

// One adrdedup_detect run to verify: its flags and output rows
// ("case_a,case_b,score"), plus the audited reports to re-derive.
struct AuditCheck {
  bool use_blocking = false;
  size_t tail = 0;
  std::vector<size_t> audited;
  const std::vector<std::string>* rows = nullptr;
};

// Recomputes every detection row whose newer report is an `audited` one
// and compares them with the tool's rows for that report.
SpotCheck SpotCheckAudit(const AuditInputs& inputs,
                         const std::vector<AuditCheck>& checks);

}  // namespace adrdedup::bench::e2e

#endif  // ADRDEDUP_BENCH_E2E_ORACLE_H_
