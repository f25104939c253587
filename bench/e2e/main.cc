// bench_e2e — the end-to-end benchmark of adrdedup (bench/e2e/README.md).
//
//   bench_e2e --workload=W --seed=N [--seconds=24] [--trace=0|1]
//   bench_e2e --all [--seed=7]     every workload, untraced then traced
//   bench_e2e --smoke [--seed=7]   tiny sizes: all workloads, trace, oracle
//
// Untraced runs drive the real programs (adrdedup_serve --listen,
// adrdedup_detect) as subprocesses and measure them from outside; traced
// runs add an in-process replay through each layer's public functions.
// Every run checks the programs' outputs. A single run prints
// "metric <workload> <name> <value> <unit>" lines and, last, one JSON
// object with the keys correct, attempted, failed and metrics; results
// also land in <out>/<workload>-s<seed>.json (traced: .layers.json and
// .trace.json).
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "distance/simd/dispatch.h"
#include "inputs.h"
#include "json_lite.h"
#include "oracle.h"
#include "report/field.h"
#include "serve/net/frame.h"
#include "session.h"
#include "stats.h"
#include "trace.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace adrdedup::bench::e2e {
namespace {

namespace fs = std::filesystem;

struct Options {
  uint64_t seed = 7;
  double seconds = kNominalSeconds;
  bool smoke = false;
  bool trace = false;
  std::string out_dir = "bench-out/e2e";
};

FlatJson ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  FlatJson json;
  if (text.empty() || !ParseFlatJson(text, &json)) {
    throw std::runtime_error("cannot read " + path);
  }
  return json;
}

struct Metric {
  std::string name;
  std::string unit;
};

// The metrics BENCHMARK.json lists under `list` ("end_to_end" or
// "per_layer"), in its order.
std::vector<Metric> LoadMetrics(const std::string& list) {
  const FlatJson benchmark = ReadJsonFile(ADRDEDUP_BENCHMARK_JSON);
  std::vector<Metric> metrics;
  for (size_t i = 0;; ++i) {
    const std::string prefix = list + "." + std::to_string(i) + ".";
    const auto name = benchmark.strings.find(prefix + "name");
    if (name == benchmark.strings.end()) break;
    metrics.push_back({name->second, benchmark.strings.at(prefix + "unit")});
  }
  return metrics;
}

// Printed by every untraced run (trace = false) or traced run.
const std::vector<Metric>& Reported(bool trace) {
  static const std::vector<Metric> end_to_end = LoadMetrics("end_to_end");
  static const std::vector<Metric> per_layer = LoadMetrics("per_layer");
  return trace ? per_layer : end_to_end;
}

// End-to-end metrics every untraced run measures and prints but
// BENCHMARK.json leaves unlisted: their run-to-run spread on a shared host
// exceeds any regression bound the benchmark may set (README.md,
// "Stability and bounds").
const std::vector<Metric>& Recorded() {
  static const std::vector<Metric> recorded = {
      {"setup_wall_s", "s"},   {"cpu_s", "s"},
      {"capacity_rps", "1/s"}, {"light_p50_ms", "ms"},
      {"light_tail_ms", "ms"},
      {"heavy_p50_ms", "ms"},  {"heavy_tail_ms", "ms"}};
  return recorded;
}

struct RunResult {
  std::string error;  // infrastructure failure: no result is printed
  std::vector<std::string> problems;  // failed output checks
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::string digest;
  // Wall seconds per stage of the run (inputs, program, oracle, replay).
  std::map<std::string, double> stage_s;
  // Traced runs: self time per span name, in ms.
  std::map<std::string, double> self_ms;
  // Additional facts for the results file, as ready JSON values.
  std::map<std::string, std::string> details;

  bool correct() const { return problems.empty(); }
};

std::string Json(const std::vector<double>& values) {
  util::JsonWriter w;
  w.BeginArray();
  for (const double v : values) w.Value(v);
  w.EndArray();
  return std::move(w).TakeString();
}

std::string Json(const std::map<std::string, double>& values) {
  util::JsonWriter w;
  w.BeginObject();
  for (const auto& [key, value] : values) w.Field(key, value);
  w.EndObject();
  return std::move(w).TakeString();
}

std::string Json(const std::map<std::string, std::vector<double>>& values) {
  util::JsonWriter w;
  w.BeginObject();
  for (const auto& [key, list] : values) {
    w.Key(key);
    w.RawValue(Json(list));
  }
  w.EndObject();
  return std::move(w).TakeString();
}

std::string Json(const SplitStats& stats) {
  util::JsonWriter w;
  w.BeginObject();
  w.Field("corpus_reports", static_cast<uint64_t>(stats.corpus_reports));
  w.Field("corpus_duplicate_pairs",
          static_cast<uint64_t>(stats.corpus_duplicate_pairs));
  w.Field("bootstrap_reports", static_cast<uint64_t>(stats.bootstrap_reports));
  w.Field("truth_pairs", static_cast<uint64_t>(stats.truth_pairs));
  w.Field("stream_reports", static_cast<uint64_t>(stats.stream_reports));
  w.Field("stream_partner_bootstrapped",
          static_cast<uint64_t>(stats.stream_partner_bootstrapped));
  w.Field("stream_pairs_within",
          static_cast<uint64_t>(stats.stream_pairs_within));
  w.EndObject();
  return std::move(w).TakeString();
}

std::string Quote(const std::string& text) {
  return "\"" + util::JsonEscape(text) + "\"";
}

// Expected digest of a workload from the committed table, or "" when it
// has none. The detections do not depend on the seed: it only orders the
// streamed reports and times their arrival, and every pair is scored
// once, when its later report arrives, by a model that stays fixed. They
// do depend on the stream length, so digests hold only at the frozen
// sizes.
std::string ExpectedDigest(const Options& options, const std::string& name) {
  if (options.smoke || options.seconds != kNominalSeconds) return "";
  const FlatJson table = ReadJsonFile(ADRDEDUP_EXPECTED_DIGESTS);
  const auto it = table.strings.find(name);
  return it == table.strings.end() ? "" : it->second;
}

// Compares the run's digest with `reference` (the committed table's or
// the oracle's; "" = none).
void CheckDigest(const std::string& reference, const std::string& source,
                 RunResult* result) {
  result->details[source + "_digest"] = Quote(reference);
  if (!reference.empty() && reference != result->digest) {
    result->problems.push_back("detection digest " + result->digest +
                               " differs from the " + source + "'s " +
                               reference);
  }
}

// ---------------------------------------------------------------------------
// Serve workloads

struct ServePlan {
  WorkloadSpec spec;
  uint64_t seed = 0;
  ServeInputs inputs;
  std::string workdir;
  std::string bootstrap_csv;
  ServeSessionConfig session;
};

std::string EncodeRequest(const report::AdrReport& report) {
  serve::net::ScreenRequestBody fields;
  for (const auto& field : report::Schema()) {
    const std::string& value = report.Get(field.id);
    if (!value.empty()) fields.emplace_back(std::string(field.name), value);
  }
  std::string frame;
  serve::net::AppendFrame(&frame, serve::net::FrameType::kScreenRequest,
                          serve::net::EncodeScreenRequest(fields));
  return frame;
}

void EncodeStream(const std::vector<report::AdrReport>& stream,
                  ServeSessionConfig* session) {
  session->frames.clear();
  session->case_numbers.clear();
  for (const report::AdrReport& report : stream) {
    session->frames.push_back(EncodeRequest(report));
    session->case_numbers.push_back(report.case_number());
  }
}

// Poisson arrivals at `rate` per second: offsets in ms from the phase start.
std::vector<double> PoissonSchedule(uint64_t seed, size_t count,
                                    double rate) {
  util::Rng rng(seed);
  std::vector<double> schedule(count);
  double t = 0.0;
  for (double& at : schedule) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate * 1e3;
    at = t;
  }
  return schedule;
}

size_t StreamLength(const WorkloadSpec& spec) {
  return spec.warmup + spec.light + spec.heavy + spec.capacity;
}

util::Result<ServePlan> PlanServe(const WorkloadSpec& spec, uint64_t seed,
                                  const std::string& workdir,
                                  ServeInputs inputs) {
  ServePlan plan;
  plan.spec = spec;
  plan.seed = seed;
  plan.workdir = workdir;
  plan.inputs = std::move(inputs);
  plan.bootstrap_csv = workdir + "/bootstrap.csv";
  const std::string truth_csv = workdir + "/truth.csv";
  ADRDEDUP_RETURN_NOT_OK(
      WriteReportsCsv(plan.inputs.bootstrap, plan.bootstrap_csv));
  ADRDEDUP_RETURN_NOT_OK(WriteTruthCsv(plan.inputs.truth, truth_csv));

  ServeSessionConfig& session = plan.session;
  session.argv = {ADRDEDUP_SERVE_BIN, "--reports=" + plan.bootstrap_csv,
                  "--truth=" + truth_csv,
                  "--executors=" + std::to_string(kExecutors)};
  if (spec.use_blocking) session.argv.push_back("--use-blocking");
  EncodeStream(plan.inputs.stream, &session);
  size_t first = 0;
  const auto add = [&](const char* name, PhaseKind kind, size_t count,
                       double rate) {
    PhasePlan phase;
    phase.name = name;
    phase.kind = kind;
    phase.first = first;
    phase.count = count;
    phase.rate = rate;
    first += count;
    session.phases.push_back(std::move(phase));
  };
  add("warmup", PhaseKind::kClosedLoop, spec.warmup, 0.0);
  add("light", PhaseKind::kOpenLoop, spec.light, spec.light_rps);
  add("heavy", PhaseKind::kOpenLoop, spec.heavy, spec.heavy_rps);
  add("capacity", PhaseKind::kClosedLoop, spec.capacity, 0.0);
  session.scrape_every_ms = spec.scrape_every_ms;
  return plan;
}

// Session `session_index` of a run: each draws its own arrival schedule
// from the seed, so a run's median spans several Poisson realizations.
ServeSessionConfig SessionFor(const ServePlan& plan, size_t session_index) {
  ServeSessionConfig config = plan.session;
  const uint64_t schedule_seed =
      (plan.seed * 1000003 + session_index) * 0x9E3779B97F4A7C15ull;
  for (size_t p = 0; p < config.phases.size(); ++p) {
    PhasePlan& phase = config.phases[p];
    if (phase.kind == PhaseKind::kOpenLoop) {
      phase.schedule_ms =
          PoissonSchedule(schedule_seed + p, phase.count, phase.rate);
    }
  }
  if (plan.spec.durable) {
    const std::string dir =
        plan.workdir + "/journal-" + std::to_string(session_index);
    fs::remove_all(dir);
    config.argv.push_back("--journal-dir=" + dir);
    config.argv.push_back("--fsync-policy=batch");
    config.argv.push_back("--snapshot-every=" +
                          std::to_string(plan.spec.snapshot_every));
  }
  return config;
}

// Counts, digest agreement and the oracle check shared by both run kinds.
void CheckServeSessions(const Options& options, const ServePlan& plan,
                        const std::vector<ServeSessionResult>& sessions,
                        RunResult* result) {
  std::set<std::string> digests;
  for (const ServeSessionResult& session : sessions) {
    for (const PhaseResult& phase : session.phases) {
      result->attempted += phase.sent;
      result->failed += phase.failed();
    }
    digests.insert(DigestHex(DigestDetections(session.detections)));
  }
  result->digest = *digests.begin();
  if (result->failed > 0) {
    result->problems.push_back(std::to_string(result->failed) +
                               " requests failed (shed, expired, invalid, "
                               "errors or unanswered)");
  }
  if (digests.size() > 1) {
    result->problems.push_back("sessions disagree on the detections");
  }
  const std::string expected = ExpectedDigest(options, plan.spec.name);
  CheckDigest(expected, "expected", result);
  if (expected.empty()) {
    // No committed digest at these sizes: derive it in-process.
    CheckDigest(DigestHex(DigestDetections(OracleServeDetections(
                    plan.inputs, plan.spec.use_blocking))),
                "oracle", result);
  }
  result->details["split"] = Json(plan.inputs.stats);
}

// The worst 99th-percentile send lateness over a session's open-loop
// phases, in ms.
double LateP99Ms(const ServeSessionResult& session) {
  double late = 0.0;
  for (const PhaseResult& phase : session.phases) {
    late = std::max(late, Percentile(phase.late_ms, 0.99));
  }
  return late;
}

const PhaseResult& Phase(const ServeSessionResult& session,
                         const std::string& name) {
  for (const PhaseResult& phase : session.phases) {
    if (phase.name == name) return phase;
  }
  static const PhaseResult empty;
  return empty;
}

RunResult RunServe(const Options& options, const ServePlan& plan) {
  RunResult result;
  util::Stopwatch clock;
  std::vector<ServeSessionResult> sessions;
  std::vector<double> late_ms;
  for (size_t s = 0; s < plan.spec.sessions; ++s) {
    ServeSessionConfig config = SessionFor(plan, s);
    if (s > 0) {
      // Later sessions stream the same reports in orders of their own
      // (seed + s * 2^32). The server's peak memory depends on the order —
      // on screen-durable it spread 1.7% across seeds — and the median
      // over several orders halves that spread.
      EncodeStream(BuildServeInputs(plan.seed + (uint64_t{s} << 32),
                                    plan.inputs.stream.size())
                       .stream,
                   &config);
    }
    sessions.push_back(RunServeSession(config));
    if (!sessions.back().ok) {
      result.error = "session " + std::to_string(s) + ": " +
                     sessions.back().error;
      return result;
    }
    late_ms.push_back(LateP99Ms(sessions.back()));
    // Send lateness says how far the recorded latencies can be trusted; it
    // is no fault of the program's outputs, so it never fails the run.
    if (late_ms.back() >= kLateLimitMs && !options.smoke) {
      std::cerr << "warning: " << plan.spec.name << " session " << s
                << ": the load generator sent late (open-loop p99 "
                << util::JsonNumber(late_ms.back())
                << " ms); its latencies measured the generator\n";
    }
  }
  result.stage_s["program"] = clock.ElapsedSeconds();
  clock.Restart();
  CheckServeSessions(options, plan, sessions, &result);
  result.stage_s["oracle"] = clock.ElapsedSeconds();
  result.details["gen_late_p99_ms"] = Json(late_ms);
  result.metrics["gen.late_p99_ms"] = Median(late_ms);

  // Every end-to-end metric once per session, in session order.
  std::map<std::string, std::vector<double>> values;
  for (const ServeSessionResult& session : sessions) {
    values["setup_s"].push_back(session.setup_cpu_s);
    values["setup_wall_s"].push_back(session.setup_wall_s);
    values["cpu_s"].push_back(session.cpu_s);
    values["peak_rss_mb"].push_back(session.peak_rss_mb);
    const PhaseResult& closed = Phase(session, "capacity");
    values["capacity_rps"].push_back(static_cast<double>(closed.ok) /
                                     closed.wall_s);
    for (const std::string name : {"light", "heavy"}) {
      const PhaseResult& phase = Phase(session, name);
      const std::vector<double>& latency = phase.latency_ms;
      values[name + "_p50_ms"].push_back(Percentile(latency, 0.5));
      values[name + "_tail_ms"].push_back(
          Percentile(latency, TailQuantile(latency.size())));
    }
  }
  for (const auto& [name, list] : values) {
    result.metrics[name] = Median(list);
  }
  result.details["sessions"] = Json(values);
  result.details["tail_quantile"] = Json(std::map<std::string, double>{
      {"light", TailQuantile(plan.spec.light)},
      {"heavy", TailQuantile(plan.spec.heavy)}});
  return result;
}

// Reports and micro-batches the service dispatched between two scrapes.
std::pair<double, double> Dispatched(const FlatJson& before,
                                     const FlatJson& after) {
  const auto reports = [](const FlatJson& m) {
    return m.Number("batches.mean_size") * m.Number("batches.dispatched");
  };
  return {reports(after) - reports(before),
          after.Number("batches.dispatched") -
              before.Number("batches.dispatched")};
}

// Mean micro-batch size over every phase called `name`.
double BatchMean(const ServeSessionResult& session, const std::string& name) {
  double reports = 0.0;
  double batches = 0.0;
  const FlatJson* before = &session.metrics_at_healthy;
  for (const PhaseResult& phase : session.phases) {
    if (phase.name == name) {
      const auto [r, b] = Dispatched(*before, phase.metrics);
      reports += r;
      batches += b;
    }
    before = &phase.metrics;
  }
  return batches > 0 ? reports / batches : 0.0;
}

RunResult RunServeTraced(const Options& options, const ServePlan& plan,
                         Tracer* tracer) {
  RunResult result;
  util::Stopwatch clock;
  const ServeSessionResult session = RunServeSession(SessionFor(plan, 0));
  if (!session.ok) {
    result.error = session.error;
    return result;
  }
  result.stage_s["program"] = clock.ElapsedSeconds();
  clock.Restart();
  CheckServeSessions(options, plan, {session}, &result);
  result.stage_s["oracle"] = clock.ElapsedSeconds();
  clock.Restart();

  // Per-layer numbers the service exports ([m]) and the client sees ([c]),
  // over the whole traffic session.
  auto& m = result.metrics;
  const FlatJson& start = session.metrics_at_healthy;
  const FlatJson& end = session.phases.back().metrics;
  const auto delta = [&](const char* path) {
    return end.Number(path) - start.Number(path);
  };
  const double completed = delta("requests.completed");
  m["net.bytes_per_req"] = session.screen_bytes / std::max(1.0, completed);
  // The service's latency reservoir is cumulative, so compare it with the
  // client's view of the same requests.
  std::vector<double> client_ms;
  double backlog = 0.0;
  for (const PhaseResult& phase : session.phases) {
    client_ms.insert(client_ms.end(), phase.latency_ms.begin(),
                     phase.latency_ms.end());
    backlog = std::max(backlog, static_cast<double>(phase.backlog_max));
  }
  m["net.client_gap_p50_ms"] =
      Percentile(client_ms, 0.5) - end.Number("latency.total.p50_ms");
  m["net.protocol_errors"] = end.Number("net.protocol_errors");
  m["serve.queue_wait_p50_ms"] = end.Number("latency.queue_wait.p50_ms");
  m["serve.queue_wait_p99_ms"] = end.Number("latency.queue_wait.p99_ms");
  m["serve.total_p50_ms"] = end.Number("latency.total.p50_ms");
  m["serve.total_p99_ms"] = end.Number("latency.total.p99_ms");
  m["serve.batch_mean_light"] = BatchMean(session, "light");
  m["serve.batch_mean_heavy"] = BatchMean(session, "heavy");
  m["serve.batch_mean_capacity"] = BatchMean(session, "capacity");
  m["serve.queue_max_depth"] = end.Number("queue.max_depth");
  m["serve.shed"] = end.Number("requests.shed");
  m["serve.expired"] = end.Number("requests.expired");
  m["core.pairs_per_req"] = delta("screening.pairs_considered") /
                            std::max(1.0, completed);
  m["core.keep_ratio"] = delta("screening.pairs_after_pruning") /
                         std::max(1.0, delta("screening.pairs_considered"));
  m["distance.dict_tokens"] = end.Number("model.dictionary_tokens");
  m["blocking.posting_bytes"] = end.Number("model.blocking.posting_bytes");
  m["blocking.bitset_share"] =
      end.Number("model.blocking.bitset_containers") /
      std::max(1.0, end.Number("model.blocking.posting_containers"));
  m["minispark.tasks_per_batch"] = delta("minispark.tasks_launched") /
                                   std::max(1.0, delta("batches.dispatched"));
  m["minispark.task_busy_s"] = delta("minispark.task_durations.total_seconds");
  m["minispark.task_failures"] = end.Number("minispark.tasks_failed");
  m["journal.bytes_per_req"] =
      delta("durability.journal.bytes") / std::max(1.0, completed);
  m["journal.fsyncs"] = end.Number("durability.journal.fsyncs");
  m["journal.write_failures"] = end.Number("durability.journal.write_failures");
  m["snapshot.count"] = end.Number("durability.snapshots.written");
  m["metrics.scrape_ms_p50"] = Percentile(session.scrape_ms, 0.5);
  m["metrics.scrape_ms_max"] = Percentile(session.scrape_ms, 1.0);
  m["metrics.scrape_bytes"] = Percentile(session.scrape_bytes, 0.5);
  m["gen.late_p99_ms"] = LateP99Ms(session);
  m["gen.backlog_max"] = backlog;

  // The in-process replay, in each phase's mean batch size.
  ServeTraceConfig trace;
  trace.spec = &plan.spec;
  trace.inputs = &plan.inputs;
  trace.bootstrap_csv = plan.bootstrap_csv;
  trace.workdir = plan.workdir;
  trace.frames = &plan.session.frames;
  const FlatJson* before = &start;
  for (size_t p = 0; p < plan.session.phases.size(); ++p) {
    const PhasePlan& phase = plan.session.phases[p];
    const auto [reports, batches] =
        Dispatched(*before, session.phases[p].metrics);
    const size_t size =
        batches > 0 ? std::max<size_t>(1, std::llround(reports / batches)) : 1;
    trace.phases.emplace_back(phase.first, phase.count, size);
    before = &session.phases[p].metrics;
  }
  const TraceOutcome outcome = RunServeTrace(trace, tracer);
  if (!outcome.error.empty()) {
    result.error = "traced replay: " + outcome.error;
    return result;
  }
  result.stage_s["replay"] = clock.ElapsedSeconds();
  for (const auto& [name, value] : outcome.metrics) m[name] = value;
  if (DigestHex(outcome.mirror_digest) != result.digest ||
      DigestHex(outcome.pipeline_digest) != result.digest) {
    result.problems.push_back(
        "traced replay detections differ: mirror " +
        DigestHex(outcome.mirror_digest) + ", DedupPipeline " +
        DigestHex(outcome.pipeline_digest) + ", server " + result.digest);
  }
  result.details["replay_batch_mean"] = Json(std::map<std::string, double>{
      {"light", m.at("serve.batch_mean_light")},
      {"heavy", m.at("serve.batch_mean_heavy")},
      {"capacity", m.at("serve.batch_mean_capacity")}});
  return result;
}

// ---------------------------------------------------------------------------
// Audit workload

struct AuditPlan {
  WorkloadSpec spec;
  AuditInputs inputs;
  std::string workdir;
  std::string reports_csv;
  std::string truth_csv;
};

std::vector<std::string> DetectArgs(const AuditPlan& plan, size_t tail,
                                    bool blocking, const std::string& out) {
  std::vector<std::string> argv = {
      ADRDEDUP_DETECT_BIN, "--reports=" + plan.reports_csv,
      "--truth=" + plan.truth_csv,
      "--executors=" + std::to_string(kExecutors),
      "--audit-tail=" + std::to_string(tail), "--out=" + out};
  if (blocking) argv.push_back("--use-blocking");
  return argv;
}

std::vector<std::string> ReadRows(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (!line.empty()) rows.push_back(line);
  }
  return rows;
}

util::Result<AuditPlan> PlanAudit(const WorkloadSpec& spec,
                                  const std::string& workdir) {
  AuditPlan plan;
  plan.spec = spec;
  plan.workdir = workdir;
  plan.inputs = BuildAuditInputs(spec.audit_reports,
                                 std::max(spec.light_tail, spec.heavy_tail));
  plan.reports_csv = workdir + "/reports.csv";
  plan.truth_csv = workdir + "/truth.csv";
  ADRDEDUP_RETURN_NOT_OK(
      WriteReportsCsv(plan.inputs.reports, plan.reports_csv));
  ADRDEDUP_RETURN_NOT_OK(WriteTruthCsv(plan.inputs.truth, plan.truth_csv));
  return plan;
}

// Audited reports to re-derive in the oracle: half evenly spaced over the
// tail, half among those the tool flagged (the newer case of a row).
std::vector<size_t> AuditSamples(const AuditPlan& plan, size_t tail,
                                 size_t count,
                                 const std::vector<std::string>& rows) {
  const size_t reports = plan.inputs.reports.size();
  std::set<size_t> picks;
  const size_t spread = count - count / 2;
  for (size_t k = 0; k < spread && k < tail; ++k) {
    picks.insert(reports - 1 - k * tail / spread);
  }
  std::vector<std::string> flagged;
  for (const std::string& row : rows) {
    const size_t first = row.find(',');
    const size_t second = row.find(',', first + 1);
    flagged.push_back(row.substr(first + 1, second - first - 1));
  }
  for (size_t k = 0; k < count / 2 && !flagged.empty(); ++k) {
    const std::string& wanted = flagged[k * flagged.size() / (count / 2)];
    for (size_t i = reports - tail; i < reports; ++i) {
      if (plan.inputs.reports[i].case_number() == wanted) picks.insert(i);
    }
  }
  return {picks.begin(), picks.end()};
}

RunResult RunAudit(const Options& options, const AuditPlan& plan) {
  RunResult result;
  util::Stopwatch clock;
  const WorkloadSpec& spec = plan.spec;
  // Job wall times and resources, once per session.
  std::map<std::string, std::vector<double>> values;
  std::set<std::string> digests;
  std::vector<std::string> light_rows, heavy_rows;
  for (size_t s = 0; s < spec.sessions; ++s) {
    const std::string tag = plan.workdir + "/session-" + std::to_string(s);
    const JobResult jobs[] = {
        RunJob(DetectArgs(plan, 0, false, tag + "-setup.csv"), tag + "-setup",
               90.0),
        RunJob(DetectArgs(plan, spec.light_tail, true, tag + "-light.csv"),
               tag + "-light", 90.0),
        RunJob(DetectArgs(plan, spec.heavy_tail, false, tag + "-heavy.csv"),
               tag + "-heavy", 90.0)};
    for (const JobResult& job : jobs) {
      ++result.attempted;
      if (!job.ok) {
        result.error = job.error;
        return result;
      }
    }
    values["setup_s"].push_back(jobs[0].cpu_s);
    values["setup_wall_s"].push_back(jobs[0].wall_s);
    values["light_ms"].push_back(jobs[1].wall_s * 1e3);
    values["heavy_ms"].push_back(jobs[2].wall_s * 1e3);
    values["capacity_rps"].push_back(static_cast<double>(spec.heavy_tail) /
                                     jobs[2].wall_s);
    values["cpu_s"].push_back(jobs[2].cpu_s);
    values["peak_rss_mb"].push_back(jobs[2].peak_rss_mb);
    light_rows = ReadRows(tag + "-light.csv");
    heavy_rows = ReadRows(tag + "-heavy.csv");
    std::vector<std::string> tagged;
    for (const auto& row : light_rows) tagged.push_back("light," + row);
    for (const auto& row : heavy_rows) tagged.push_back("heavy," + row);
    digests.insert(DigestHex(DigestLines(std::move(tagged))));
  }
  result.stage_s["program"] = clock.ElapsedSeconds();
  clock.Restart();
  result.digest = *digests.begin();
  if (digests.size() > 1) {
    result.problems.push_back("audit sessions disagree on the detections");
  }
  const std::string expected = ExpectedDigest(options, spec.name);
  CheckDigest(expected, "expected", &result);
  if (expected.empty()) {
    // No committed digest at these sizes: re-derive sampled rows instead.
    // An exhaustive re-derivation scores the whole corpus per report, so
    // the heavy audit gets two samples.
    const std::vector<AuditCheck> checks = {
        {false, spec.heavy_tail,
         AuditSamples(plan, spec.heavy_tail, 2, heavy_rows), &heavy_rows},
        {true, spec.light_tail,
         AuditSamples(plan, spec.light_tail, spec.audit_checks, light_rows),
         &light_rows}};
    const SpotCheck check = SpotCheckAudit(plan.inputs, checks);
    for (const std::string& mismatch : check.mismatches) {
      result.problems.push_back("oracle: " + mismatch);
    }
    result.details["oracle"] = Json(std::map<std::string, double>{
        {"answers", static_cast<double>(check.answers)},
        {"matches", static_cast<double>(check.matches)}});
  }
  result.stage_s["oracle"] = clock.ElapsedSeconds();
  auto& m = result.metrics;
  m["setup_s"] = Median(values["setup_s"]);
  m["setup_wall_s"] = Median(values["setup_wall_s"]);
  m["light_p50_ms"] = Median(values["light_ms"]);
  m["light_tail_ms"] = Percentile(values["light_ms"], 1.0);
  m["heavy_p50_ms"] = Median(values["heavy_ms"]);
  m["capacity_rps"] = Median(values["capacity_rps"]);
  m["cpu_s"] = Median(values["cpu_s"]);
  m["peak_rss_mb"] = Median(values["peak_rss_mb"]);
  result.details["sessions"] = Json(values);
  result.details["split"] = Json(plan.inputs.stats);
  result.details["detections"] = Json(std::map<std::string, double>{
      {"light", static_cast<double>(light_rows.size())},
      {"heavy", static_cast<double>(heavy_rows.size())}});
  return result;
}

// Screening of the audited tail, for the layers the batch tool bypasses:
// the newest reports streamed with blocking at a fixed light rate.
WorkloadSpec TailScreening(const WorkloadSpec& audit) {
  WorkloadSpec screen;
  screen.name = audit.name + "-tail";
  screen.use_blocking = true;
  screen.sessions = 1;
  screen.light = audit.light_tail;
  screen.light_rps = 200.0;
  return screen;
}

RunResult RunAuditTraced(const Options& options, const AuditPlan& plan,
                         Tracer* tracer) {
  RunResult result;
  const std::string tag = plan.workdir + "/traced";
  // The exhaustive audit job runs once before and once after the mirror,
  // which is reconciled against their mean wall time: host speed drifts
  // between runs seconds apart.
  std::vector<double> audit_s;
  const auto run_tool = [&] {
    auto argv =
        DetectArgs(plan, plan.spec.heavy_tail, false, tag + "-heavy.csv");
    argv.push_back("--metrics-out=" + tag + "-metrics.json");
    const JobResult job = RunJob(argv, tag, 90.0);
    ++result.attempted;
    if (!job.ok) {
      result.error = job.error;
      return false;
    }
    audit_s.push_back(job.wall_s);
    const std::string digest =
        DigestHex(DigestLines(ReadRows(tag + "-heavy.csv")));
    if (!result.digest.empty() && digest != result.digest) {
      result.problems.push_back("repeated audit jobs disagree on the rows");
    }
    result.digest = digest;
    return true;
  };
  if (!run_tool()) return result;
  AuditTraceConfig trace;
  trace.spec = &plan.spec;
  trace.reports_csv = plan.reports_csv;
  trace.truth_csv = plan.truth_csv;
  trace.detections_csv = tag + "-mirror.csv";
  const TraceOutcome outcome = RunAuditTrace(trace, tracer);
  if (!outcome.error.empty()) {
    result.error = "traced replay: " + outcome.error;
    return result;
  }
  if (!run_tool()) return result;
  if (DigestHex(outcome.mirror_digest) != result.digest) {
    result.problems.push_back("traced replay rows differ from the tool's");
  }

  // Serving layers first, then everything the batch run measured itself.
  const WorkloadSpec screen_spec = TailScreening(plan.spec);
  auto screen_plan =
      PlanServe(screen_spec, options.seed, plan.workdir,
                ScreenTail(plan.inputs, plan.spec.light_tail));
  if (!screen_plan.ok()) {
    result.error = screen_plan.status().ToString();
    return result;
  }
  const RunResult screen = RunServeTraced(options, screen_plan.value(), tracer);
  if (!screen.error.empty()) {
    result.error = "tail screening: " + screen.error;
    return result;
  }
  result.attempted += screen.attempted;
  result.failed += screen.failed;
  for (const std::string& problem : screen.problems) {
    result.problems.push_back("tail screening: " + problem);
  }
  auto& m = result.metrics;
  m = screen.metrics;
  std::ifstream in(tag + "-metrics.json");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  FlatJson exported;
  ParseFlatJson(text, &exported);
  for (const auto& [name, value] : outcome.metrics) m[name] = value;
  m["core.pairs_per_req"] =
      exported.Number("candidate_pairs") /
      std::max(1.0, exported.Number("audited_tail"));
  m["core.keep_ratio"] = 1.0;  // the batch audit scores every candidate
  m["minispark.tasks_per_batch"] = exported.Number("minispark.tasks_launched");
  m["minispark.task_busy_s"] =
      exported.Number("minispark.task_durations.total_seconds");
  m["minispark.task_failures"] = exported.Number("minispark.tasks_failed");
  const double audit_ms = (audit_s[0] + audit_s[1]) / 2.0 * 1e3;
  m["trace.overhead_pct"] = 100.0 * (outcome.mirror_ms - audit_ms) / audit_ms;
  result.details["audit_s"] = Json(audit_s);
  result.details["split"] = Json(plan.inputs.stats);
  result.details["tail_screening_split"] =
      Json(screen_plan.value().inputs.stats);
  return result;
}

// ---------------------------------------------------------------------------

RunResult RunWorkload(const Options& options, const WorkloadSpec& base) {
  const WorkloadSpec spec = Scaled(base, options.seconds, options.smoke);
  const std::string workdir =
      options.out_dir + "/work-" + spec.name + "-s" +
      std::to_string(options.seed) + "-" + std::to_string(::getpid());
  fs::remove_all(workdir);
  fs::create_directories(workdir);
  RunResult result;
  util::Stopwatch clock;
  Tracer tracer;
  if (spec.kind == WorkloadKind::kServe) {
    auto plan = PlanServe(spec, options.seed, workdir,
                          BuildServeInputs(options.seed, StreamLength(spec)));
    const double inputs_s = clock.ElapsedSeconds();
    if (!plan.ok()) {
      result.error = plan.status().ToString();
    } else {
      result = options.trace ? RunServeTraced(options, plan.value(), &tracer)
                             : RunServe(options, plan.value());
    }
    result.stage_s["inputs"] = inputs_s;
  } else {
    auto plan = PlanAudit(spec, workdir);
    const double inputs_s = clock.ElapsedSeconds();
    if (!plan.ok()) {
      result.error = plan.status().ToString();
    } else {
      result = options.trace ? RunAuditTraced(options, plan.value(), &tracer)
                             : RunAudit(options, plan.value());
    }
    result.stage_s["inputs"] = inputs_s;
  }
  fs::remove_all(workdir);
  if (options.trace && result.error.empty()) {
    result.self_ms = tracer.SelfMs();
    const std::string path = options.out_dir + "/" + spec.name + "-s" +
                             std::to_string(options.seed) + ".trace.json";
    if (auto status = tracer.WriteChromeTrace(path); !status.ok()) {
      result.error = status.ToString();
    }
    result.details["trace_file"] = Quote(path);
  }
  result.details["sizes"] = Json(std::map<std::string, double>{
      {"warmup", static_cast<double>(spec.warmup)},
      {"light", static_cast<double>(spec.light)},
      {"heavy", static_cast<double>(spec.heavy)},
      {"capacity", static_cast<double>(spec.capacity)},
      {"light_rps", spec.light_rps},
      {"heavy_rps", spec.heavy_rps},
      {"snapshot_every", static_cast<double>(spec.snapshot_every)},
      {"audit_reports", static_cast<double>(spec.audit_reports)},
      {"light_tail", static_cast<double>(spec.light_tail)},
      {"heavy_tail", static_cast<double>(spec.heavy_tail)},
      {"sessions", static_cast<double>(spec.sessions)}});
  return result;
}

void PrintSelfTimes(const std::string& workload, const RunResult& result) {
  std::cerr << "self time per span, " << workload << " (ms):\n";
  for (const auto& [name, ms] : result.self_ms) {
    std::cerr << "  " << name << " " << util::JsonNumber(ms) << "\n";
  }
}

void PrintMetrics(const Options& options, const std::string& workload,
                  const RunResult& result) {
  std::vector<Metric> printed = Reported(options.trace);
  if (!options.trace) {
    printed.insert(printed.end(), Recorded().begin(), Recorded().end());
  }
  for (const Metric& metric : printed) {
    const auto it = result.metrics.find(metric.name);
    if (it == result.metrics.end()) continue;  // heavy_tail_ms @audit-full
    std::cout << "metric " << workload << " " << metric.name << " "
              << util::JsonNumber(it->second) << " " << metric.unit << "\n";
  }
}

std::string ResultLine(const Options& options, const RunResult& result) {
  util::JsonWriter w;
  w.BeginObject();
  w.Field("correct", result.correct());
  w.Field("attempted", result.attempted);
  w.Field("failed", result.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& metric : Reported(options.trace)) {
    w.Key(metric.name);
    w.BeginObject();
    w.Field("value", result.metrics.at(metric.name));
    w.Field("unit", metric.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return std::move(w).TakeString();
}

void WriteResultsFile(const Options& options, const std::string& workload,
                      const RunResult& result) {
  util::JsonWriter w(/*pretty=*/true);
  w.BeginObject();
  w.Field("workload", workload);
  w.Field("seed", options.seed);
  w.Field("seconds", options.seconds);
  w.Field("smoke", options.smoke);
  w.Field("trace", options.trace);
  w.Field("simd", distance::simd::LevelName(distance::simd::ActiveLevel()));
  w.Field("executors", static_cast<uint64_t>(kExecutors));
  w.Field("correct", result.correct());
  w.Field("attempted", result.attempted);
  w.Field("failed", result.failed);
  w.Field("digest", result.digest);
  w.Key("problems");
  w.BeginArray();
  for (const std::string& problem : result.problems) w.Value(problem);
  w.EndArray();
  w.Key("metrics");
  w.RawValue(Json(result.metrics));
  w.Key("stage_seconds");
  w.RawValue(Json(result.stage_s));
  if (options.trace) {
    w.Key("self_ms");
    w.RawValue(Json(result.self_ms));
  }
  for (const auto& [key, json] : result.details) {
    w.Key(key);
    w.RawValue(json);
  }
  w.EndObject();
  const std::string path = options.out_dir + "/" + workload + "-s" +
                           std::to_string(options.seed) +
                           (options.trace ? ".layers.json" : ".json");
  std::ofstream out(path, std::ios::trunc);
  out << std::move(w).TakeString() << "\n";
}

// One workload, one mode: the form BENCHMARK.json's command runs.
int RunSingle(Options options, const std::string& workload) {
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr) {
    std::cerr << "error: unknown workload " << workload << "\n";
    return 2;
  }
  const RunResult result = RunWorkload(options, *spec);
  if (!result.error.empty()) {
    std::cerr << "error: " << workload << ": " << result.error << "\n";
    return 1;
  }
  for (const std::string& problem : result.problems) {
    std::cerr << "check failed: " << workload << ": " << problem << "\n";
  }
  WriteResultsFile(options, workload, result);
  if (options.trace) PrintSelfTimes(workload, result);
  PrintMetrics(options, workload, result);
  std::cout << ResultLine(options, result) << std::endl;
  return 0;
}

// Every workload untraced then traced, with the cross-workload and
// run-validity checks; prints "overall: PASS|FAIL".
int RunAll(Options options) {
  bool pass = true;
  std::map<std::string, std::string> digests;
  for (const bool trace : {false, true}) {
    options.trace = trace;
    for (const WorkloadSpec& spec : AllWorkloads()) {
      const RunResult result = RunWorkload(options, spec);
      if (!result.error.empty()) {
        std::cout << "check " << spec.name << " run: FAIL (" << result.error
                  << ")\n";
        pass = false;
        continue;
      }
      WriteResultsFile(options, spec.name, result);
      if (trace) PrintSelfTimes(spec.name, result);
      PrintMetrics(options, spec.name, result);
      const auto verdict = [&](const std::string& what, bool ok) {
        std::cout << "check " << spec.name << " " << what << ": "
                  << (ok ? "PASS" : "FAIL") << "\n";
        pass = pass && ok;
      };
      // Timing validity needs full-size phases; at smoke sizes one
      // scheduler hiccup decides a percentile, so it is only reported.
      const auto timing = [&](const std::string& what, bool ok) {
        if (!options.smoke) return verdict(what, ok);
        std::cout << "check " << spec.name << " " << what << ": "
                  << (ok ? "PASS" : "FAIL") << " (advisory at smoke size)\n";
      };
      verdict(trace ? "outputs (traced)" : "outputs", result.correct());
      for (const std::string& problem : result.problems) {
        std::cout << "  " << problem << "\n";
      }
      if (!trace) {
        digests[spec.name] = result.digest;
        if (!spec.same_digest_as.empty()) {
          verdict("digest equals " + spec.same_digest_as,
                  digests[spec.same_digest_as] == result.digest);
        }
      }
      if (spec.kind == WorkloadKind::kServe) {
        timing("gen.late_p99_ms < 1",
               result.metrics.at("gen.late_p99_ms") < kLateLimitMs);
      }
      if (trace) {
        timing(spec.kind == WorkloadKind::kServe
                   ? "layer sum within 10% of ProcessNewReports"
                   : "layer sum within 10% of the audit wall time",
               std::abs(result.metrics.at("trace.overhead_pct")) <= 10.0);
      }
    }
  }
  std::cout << "overall: " << (pass ? "PASS" : "FAIL") << std::endl;
  return pass ? 0 : 1;
}

int Main(int argc, char** argv) {
  auto parsed = util::FlagSet::Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.status().ToString() << "\n";
    return 2;
  }
  const util::FlagSet& flags = parsed.value();
  if (auto status = flags.ExpectOnly({"workload", "seed", "seconds", "trace",
                                      "all", "smoke", "out"});
      !status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 2;
  }
  Options options;
  auto seed = flags.GetInt("seed", 7);
  auto seconds = flags.GetDouble("seconds", kNominalSeconds);
  if (!seed.ok() || !seconds.ok() || seed.value() < 0 ||
      seconds.value() <= 0.0) {
    std::cerr << "error: --seed must be a non-negative integer and "
                 "--seconds positive\n";
    return 2;
  }
  options.seed = static_cast<uint64_t>(seed.value());
  options.seconds = seconds.value();
  const std::string trace = flags.GetString("trace", "0");
  options.trace = trace == "1" || trace == "true";
  options.smoke = flags.GetBool("smoke", false);
  options.out_dir = flags.GetString("out", options.out_dir);
  fs::create_directories(options.out_dir);
  if (flags.GetBool("all", false) || options.smoke) return RunAll(options);
  if (!flags.Has("workload")) {
    std::cerr << "usage: bench_e2e --workload=NAME --seed=N [--seconds=S] "
                 "[--trace=0|1] | --all | --smoke\n";
    return 2;
  }
  return RunSingle(options, flags.GetString("workload", ""));
}

}  // namespace
}  // namespace adrdedup::bench::e2e

int main(int argc, char** argv) {
  try {
    return adrdedup::bench::e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
