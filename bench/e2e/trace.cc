#include "trace.h"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "blocking/blocking.h"
#include "blocking/incremental_index.h"
#include "core/dedup_pipeline.h"
#include "core/fast_knn.h"
#include "core/test_set_pruner.h"
#include "distance/interned.h"
#include "distance/pairwise.h"
#include "minispark/context.h"
#include "oracle.h"
#include "report/report_io.h"
#include "serve/journal.h"
#include "serve/net/frame.h"
#include "serve/request_codec.h"
#include "serve/snapshot.h"
#include "stats.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/random.h"

namespace adrdedup::bench::e2e {

namespace fs = std::filesystem;

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// minispark jobs the mirror launches: wall time plus the range of task
// ids they launched, resolved against the task-duration log at the end
// (reading that log per job would itself distort the spans).
class JobLog {
 public:
  explicit JobLog(minispark::SparkContext* ctx) : ctx_(ctx) {}

  uint64_t Mark() const { return ctx_->metrics().Snapshot().tasks_launched; }
  void Add(uint64_t first_task, double wall_us) {
    jobs_.push_back({first_task, Mark(), wall_us});
  }

  // Fills minispark.utilization and minispark.job_overhead_us.
  void Report(size_t executors, std::map<std::string, double>* metrics) const {
    const std::vector<double> durations = ctx_->metrics().TaskDurations();
    double busy_us = 0.0;
    double wall_us = 0.0;
    double overhead_us = 0.0;
    for (const Job& job : jobs_) {
      double job_busy_us = 0.0;
      for (uint64_t t = job.first; t < job.end && t < durations.size(); ++t) {
        job_busy_us += durations[t] * 1e6;
      }
      busy_us += job_busy_us;
      wall_us += job.wall_us;
      // Wall time the executors could not have filled with task work.
      overhead_us += std::max(
          0.0, job.wall_us - job_busy_us / static_cast<double>(executors));
    }
    (*metrics)["minispark.utilization"] =
        wall_us > 0.0 ? busy_us / (static_cast<double>(executors) * wall_us)
                      : 0.0;
    (*metrics)["minispark.job_overhead_us"] =
        jobs_.empty() ? 0.0 : overhead_us / static_cast<double>(jobs_.size());
  }

 private:
  struct Job {
    uint64_t first = 0;
    uint64_t end = 0;
    double wall_us = 0.0;
  };
  minispark::SparkContext* ctx_;
  std::vector<Job> jobs_;
};

// Path (a): DedupPipeline::ProcessNewReports re-expressed as the layer
// calls it makes, in the same order, with a span around each.
class ServeMirror {
 public:
  ServeMirror(minispark::SparkContext* ctx, bool use_blocking)
      : ctx_(ctx),
        options_(ServePipelineOptions(use_blocking)),
        index_(options_.blocking),
        classifier_(options_.knn),
        pruner_(options_.pruner),
        rng_(options_.seed),
        jobs_(ctx) {}

  // The blocking index is built even when the pipeline does not block,
  // so ProbeBlocking can measure the layer on every workload.
  void Bootstrap(const std::vector<report::AdrReport>& reports) {
    for (const report::AdrReport& report : reports) db_.Add(report);
    features_ = distance::ExtractAllFeatures(db_, options_.features,
                                             &ctx_->pool());
    dict_ = distance::TokenDictionary::Build(features_);
    interned_ = distance::InternAllFeatures(features_, &dict_, &ctx_->pool());
    for (size_t i = 0; i < interned_.size(); ++i) {
      index_.Add(static_cast<report::ReportId>(i), interned_[i]);
    }
  }

  void Fit(const std::vector<distance::LabeledPair>& labels, Tracer* tracer) {
    for (const distance::LabeledPair& pair : labels) {
      if (pair.is_positive()) {
        positive_store_.push_back(pair);
      } else {
        ++negatives_seen_;
        if (negative_store_.size() < options_.max_negative_store) {
          negative_store_.push_back(pair);
        }
      }
    }
    std::vector<distance::LabeledPair> train = positive_store_;
    train.insert(train.end(), negative_store_.begin(), negative_store_.end());
    {
      Tracer::Scope span(tracer, "ml.fit");
      classifier_.Fit(train, &ctx_->pool());
    }
    Tracer::Scope span(tracer, "core.pruner_fit");
    pruner_.Fit(positive_store_);
  }

  // Screens `reports`; returns each report's (other case, score) matches
  // as the service would answer them.
  std::vector<std::vector<std::pair<std::string, double>>> Process(
      const std::vector<report::AdrReport>& reports, int64_t batch,
      Tracer* tracer) {
    Tracer::Scope pipeline(tracer, "core.pipeline", batch);
    const auto first_new = static_cast<report::ReportId>(db_.size());
    std::vector<report::ReportId> fresh;
    {
      Tracer::Scope span(tracer, "text.features", batch);
      for (const report::AdrReport& report : reports) {
        fresh.push_back(db_.Add(report));
      }
      features_.resize(db_.size());
      ctx_->pool().ParallelFor(first_new, db_.size(), [&](size_t i) {
        features_[i] = distance::ExtractFeatures(
            db_.Get(static_cast<report::ReportId>(i)), options_.features);
      });
    }
    {
      Tracer::Scope span(tracer, "distance.intern", batch);
      interned_.resize(db_.size());
      for (size_t i = first_new; i < db_.size(); ++i) {
        distance::ExtendDictionary(features_[i], &dict_);
      }
      const distance::TokenDictionary& frozen = dict_;
      ctx_->pool().ParallelFor(first_new, db_.size(), [&](size_t i) {
        interned_[i] = distance::InternFeatures(features_[i], frozen);
      });
    }
    fresh_ = fresh;
    std::vector<distance::ReportPair> pairs;
    if (options_.use_blocking) {
      pairs = Block(fresh, batch, tracer);
    } else {
      Tracer::Scope span(tracer, "core.candidates", batch);
      std::vector<report::ReportId> existing(first_new);
      for (report::ReportId i = 0; i < first_new; ++i) existing[i] = i;
      pairs = distance::PairsForNewReports(existing, fresh);
    }
    counts_.reports += reports.size();
    counts_.pairs += pairs.size();
    std::vector<std::vector<std::pair<std::string, double>>> matches(
        reports.size());
    if (pairs.empty()) return matches;

    std::vector<distance::DistanceVector> vectors;
    {
      Tracer::Scope span(tracer, "distance.pairs", batch);
      const uint64_t first_task = jobs_.Mark();
      vectors = distance::ComputePairDistancesSpark(ctx_, interned_, pairs,
                                                    options_.pairwise);
      jobs_.Add(first_task, span.ElapsedUs());
    }
    std::vector<size_t> kept;
    {
      Tracer::Scope span(tracer, "core.prune", batch);
      kept.reserve(pairs.size());
      const bool prune = options_.f_theta >= 0.0 && !positive_store_.empty();
      for (size_t i = 0; i < pairs.size(); ++i) {
        if (!prune || pruner_.ShouldKeep(vectors[i], options_.f_theta)) {
          kept.push_back(i);
        }
      }
    }
    counts_.kept += kept.size();
    std::vector<double> scores;
    {
      Tracer::Scope span(tracer, "core.score", batch);
      const uint64_t first_task = jobs_.Mark();
      std::vector<distance::LabeledPair> queries(kept.size());
      for (size_t q = 0; q < kept.size(); ++q) {
        queries[q].vector = vectors[kept[q]];
        queries[q].pair = pairs[kept[q]];
      }
      scores = classifier_.ScoreAllSpark(ctx_, queries);
      jobs_.Add(first_task, span.ElapsedUs());
    }
    Tracer::Scope span(tracer, "core.store_update", batch);
    for (size_t q = 0; q < kept.size(); ++q) {
      distance::LabeledPair labeled;
      labeled.vector = vectors[kept[q]];
      labeled.pair = pairs[kept[q]];
      if (scores[q] >= options_.theta) {
        labeled.label = +1;
        positive_store_.push_back(labeled);
        const auto attach = [&](report::ReportId mine, report::ReportId other) {
          if (mine < first_new) return;
          matches[mine - first_new].emplace_back(
              db_.Get(other).case_number(), scores[q]);
        };
        attach(labeled.pair.a, labeled.pair.b);
        attach(labeled.pair.b, labeled.pair.a);
      } else {
        labeled.label = -1;
        ++negatives_seen_;
        if (negative_store_.size() < options_.max_negative_store) {
          negative_store_.push_back(labeled);
        } else {
          const uint64_t slot = rng_.Uniform(negatives_seen_);
          if (slot < negative_store_.size()) negative_store_[slot] = labeled;
        }
      }
    }
    return matches;
  }

  // Blocking for the last batch, outside the pipeline's spans, when the
  // pipeline itself does not block: what the layer would cost here.
  void ProbeBlocking(int64_t batch, Tracer* tracer) {
    if (!options_.use_blocking) Block(fresh_, batch, tracer);
  }

  struct Counts {
    size_t reports = 0;
    size_t pairs = 0;
    size_t kept = 0;
    size_t candidates = 0;
  };
  const Counts& counts() const { return counts_; }
  const core::FastKnnClassifier& classifier() const { return classifier_; }
  const JobLog& jobs() const { return jobs_; }

 private:
  // Probes the index for each fresh report, then adds it.
  std::vector<distance::ReportPair> Block(
      const std::vector<report::ReportId>& fresh, int64_t batch,
      Tracer* tracer) {
    std::vector<distance::ReportPair> pairs;
    for (const report::ReportId id : fresh) {
      {
        Tracer::Scope span(tracer, "blocking.probe", batch);
        for (const report::ReportId other : index_.Candidates(interned_[id])) {
          pairs.push_back({other, id});
        }
      }
      Tracer::Scope span(tracer, "blocking.add", batch);
      index_.Add(id, interned_[id]);
    }
    counts_.candidates += pairs.size();
    return pairs;
  }

  minispark::SparkContext* ctx_;
  core::DedupPipelineOptions options_;
  report::ReportDatabase db_;
  std::vector<distance::ReportFeatures> features_;
  distance::TokenDictionary dict_;
  std::vector<distance::InternedFeatures> interned_;
  std::vector<report::ReportId> fresh_;
  blocking::IncrementalBlockingIndex index_;
  core::FastKnnClassifier classifier_;
  core::TestSetPruner pruner_;
  std::vector<distance::LabeledPair> positive_store_;
  std::vector<distance::LabeledPair> negative_store_;
  uint64_t negatives_seen_ = 0;
  util::Rng rng_;
  JobLog jobs_;
  Counts counts_;
};

// The durable serving path around ProcessNewReports: the write-ahead
// journal and ScreeningService's snapshot protocol (publish order of
// serve/snapshot.h), run against path (b)'s pipeline.
class DurableMirror {
 public:
  DurableMirror(std::string dir, uint64_t bootstrap_size)
      : store_(std::move(dir)), bootstrap_size_(bootstrap_size) {}

  util::Status Snapshot(const core::DedupPipeline& pipeline) {
    const uint64_t next = generation_ + 1;
    serve::ServingState state;
    state.bootstrap_size = bootstrap_size_;
    state.admitted = admitted_;
    state.pipeline = pipeline.ExportServingState();
    state.corpus_fingerprint = pipeline.CorpusFingerprint();
    std::ostringstream model;
    ADRDEDUP_RETURN_NOT_OK(pipeline.SaveModel(model));
    ADRDEDUP_RETURN_NOT_OK(
        store_.WriteSnapshotFiles(next, state, model.str()));
    auto journal = serve::Journal::Create(store_.JournalPath(next), next,
                                          serve::FsyncPolicy::kBatch);
    if (!journal.ok()) return journal.status();
    ADRDEDUP_RETURN_NOT_OK(store_.PublishGeneration(next));
    journal_ = std::move(journal).value();
    if (generation_ > 0) store_.RemoveGeneration(generation_);
    generation_ = next;
    since_snapshot_ = 0;
    std::error_code ec;
    last_bytes_ =
        static_cast<double>(fs::file_size(store_.StatePath(next), ec) +
                            fs::file_size(store_.ModelPath(next), ec));
    return util::Status::OK();
  }

  util::Status Append(const std::vector<report::AdrReport>& batch) {
    ADRDEDUP_RETURN_NOT_OK(journal_->Append(batch));
    admitted_.insert(admitted_.end(), batch.begin(), batch.end());
    since_snapshot_ += batch.size();
    return util::Status::OK();
  }

  size_t since_snapshot() const { return since_snapshot_; }
  double last_bytes() const { return last_bytes_; }

 private:
  serve::SnapshotStore store_;
  uint64_t bootstrap_size_;
  uint64_t generation_ = 0;
  std::optional<serve::Journal> journal_;
  std::vector<report::AdrReport> admitted_;
  size_t since_snapshot_ = 0;
  double last_bytes_ = 0.0;
};

std::vector<double> Durations(const Tracer& tracer, const char* name,
                              size_t from) {
  std::vector<double> out;
  for (size_t i = from; i < tracer.spans().size(); ++i) {
    const Tracer::Span& span = tracer.spans()[i];
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(span.end_us - span.start_us);
    }
  }
  return out;
}

double Per(double total, double count) {
  return count > 0.0 ? total / count : 0.0;
}

void ComparisonMetrics(const core::ComparisonStatsSnapshot& stats,
                       std::map<std::string, double>* metrics) {
  const double queries = static_cast<double>(stats.queries);
  (*metrics)["core.knn_intra_per_query"] =
      Per(static_cast<double>(stats.intra_cluster_comparisons), queries);
  (*metrics)["core.knn_cross_per_query"] =
      Per(static_cast<double>(stats.cross_cluster_comparisons), queries);
  (*metrics)["core.knn_extra_cells_per_query"] =
      Per(static_cast<double>(stats.additional_clusters_checked), queries);
  (*metrics)["core.knn_early_exit_share"] =
      Per(static_cast<double>(stats.early_exits), queries);
}

}  // namespace

Tracer::Tracer() : epoch_s_(SteadySeconds()) {}

double Tracer::NowUs() const { return (SteadySeconds() - epoch_s_) * 1e6; }

int Tracer::Begin(const char* name, int64_t batch) {
  Span span;
  span.name = name;
  span.batch = batch;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = NowUs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_us = NowUs();
  open_.pop_back();
}

double Tracer::Scope::ElapsedUs() const {
  return tracer_->NowUs() - tracer_->spans()[static_cast<size_t>(id_)].start_us;
}

std::map<std::string, double> Tracer::SelfMs(size_t from) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<size_t>(span.parent)] += span.end_us - span.start_us;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = from; i < spans_.size(); ++i) {
    out[spans_[i].name] +=
        (spans_[i].end_us - spans_[i].start_us - child_us[i]) / 1e3;
  }
  return out;
}

std::map<std::string, double> Tracer::TotalMs(size_t from) const {
  std::map<std::string, double> out;
  for (size_t i = from; i < spans_.size(); ++i) {
    out[spans_[i].name] += (spans_[i].end_us - spans_[i].start_us) / 1e3;
  }
  return out;
}

std::map<std::string, double> Tracer::Count(size_t from) const {
  std::map<std::string, double> out;
  for (size_t i = from; i < spans_.size(); ++i) out[spans_[i].name] += 1.0;
  return out;
}

util::Status Tracer::WriteChromeTrace(const std::string& path) const {
  util::JsonWriter w;
  w.BeginObject();
  w.Field("displayTimeUnit", "ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    w.BeginObject();
    w.Field("name", span.name);
    w.Field("cat", std::string_view(span.name).substr(
                       0, std::string_view(span.name).find('.')));
    w.Field("ph", "X");
    w.Field("ts", span.start_us);
    w.Field("dur", span.end_us - span.start_us);
    w.Field("pid", 1);
    w.Field("tid", 1);
    w.Key("args");
    w.BeginObject();
    w.Field("id", static_cast<int64_t>(i));
    w.Field("parent", static_cast<int64_t>(span.parent));
    w.Field("batch", span.batch);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::ofstream out(path, std::ios::trunc);
  out << std::move(w).TakeString() << "\n";
  if (!out) return util::Status::IoError("cannot write " + path);
  return util::Status::OK();
}

TraceOutcome RunServeTrace(const ServeTraceConfig& config, Tracer* tracer) {
  TraceOutcome outcome;
  auto& m = outcome.metrics;
  const WorkloadSpec& spec = *config.spec;
  const ServeInputs& inputs = *config.inputs;
  const size_t first_span = tracer->spans().size();

  // Set-up, in adrdedup_serve's order: load, bootstrap, labels, fit.
  minispark::SparkContext mirror_ctx({.num_executors = kExecutors});
  ServeMirror mirror(&mirror_ctx, spec.use_blocking);
  report::ReportDatabase db;
  {
    Tracer::Scope span(tracer, "report.csv_load");
    auto loaded = report::ReadCsv(config.bootstrap_csv);
    if (!loaded.ok()) {
      outcome.error = loaded.status().ToString();
      return outcome;
    }
    db = std::move(loaded).value();
  }
  {
    Tracer::Scope span(tracer, "report.csv_write");
    const auto status = report::WriteCsv(
        db, (fs::path(config.workdir) / "rewrite.csv").string());
    if (!status.ok()) {
      outcome.error = status.ToString();
      return outcome;
    }
  }
  std::vector<report::AdrReport> bootstrap;
  for (size_t i = 0; i < db.size(); ++i) {
    bootstrap.push_back(db.Get(static_cast<report::ReportId>(i)));
  }
  {
    Tracer::Scope span(tracer, "setup.bootstrap");
    mirror.Bootstrap(bootstrap);
  }
  std::vector<distance::LabeledPair> labels;
  {
    Tracer::Scope span(tracer, "setup.labels");
    const auto features =
        distance::ExtractAllFeatures(db, {}, &mirror_ctx.pool());
    labels = ServeLabels(db, features, inputs.truth);
  }
  mirror.Fit(labels, tracer);

  // Path (b): the untraced pipeline, bootstrapped identically.
  minispark::SparkContext pipeline_ctx({.num_executors = kExecutors});
  core::DedupPipeline pipeline(&pipeline_ctx,
                               ServePipelineOptions(spec.use_blocking));
  pipeline.BootstrapDatabase(bootstrap);
  pipeline.SeedLabels(labels);
  pipeline.ProcessNewReports({});

  // The journal and snapshots run on every serve workload's batches, so
  // the durability layers are measured even where the program skips them.
  const fs::path journal_dir = fs::path(config.workdir) / "trace-journal";
  fs::remove_all(journal_dir);
  fs::create_directories(journal_dir);
  DurableMirror durable(journal_dir.string(), bootstrap.size());
  std::vector<double> append_us;
  std::vector<double> snapshot_ms;
  const auto snapshot = [&](int64_t batch) {
    Tracer::Scope span(tracer, "snapshot.write", batch);
    const util::Status status = durable.Snapshot(pipeline);
    snapshot_ms.push_back(span.ElapsedUs() / 1e3);
    return status;
  };
  if (auto status = durable.Snapshot(pipeline); !status.ok()) {
    outcome.error = status.ToString();
    return outcome;
  }

  // The server's request decoding: frame, payload, schema binding.
  const auto decode = [&](size_t begin, size_t end,
                          std::vector<report::AdrReport>* reports) {
    for (size_t i = begin; i < end; ++i) {
      serve::net::Frame frame;
      size_t consumed = 0;
      std::string error;
      serve::net::ScreenRequestBody fields;
      if (serve::net::DecodeFrame((*config.frames)[i], 1u << 20, &frame,
                                  &consumed, &error) !=
              serve::net::DecodeStatus::kFrame ||
          !serve::net::DecodeScreenRequest(frame.payload, &fields)) {
        return false;
      }
      auto report = serve::FieldsToReport(fields);
      if (!report.ok()) return false;
      reports->push_back(std::move(report).value());
    }
    return true;
  };

  std::vector<Detection> mirror_detections;
  std::vector<Detection> pipeline_detections;
  std::vector<double> codec_us;
  int64_t batch_id = 0;
  for (const auto& [first, count, batch_size] : config.phases) {
    for (size_t begin = first; begin < first + count; begin += batch_size) {
      const size_t end = std::min(first + count, begin + batch_size);
      const int64_t batch = batch_id++;
      std::vector<report::AdrReport> pipeline_reports;
      if (!decode(begin, end, &pipeline_reports)) {
        outcome.error = "undecodable request frames from " +
                        std::to_string(begin);
        return outcome;
      }
      const auto run_pipeline = [&] {
        Tracer::Scope span(tracer, "pipeline.process_new_reports", batch);
        const auto result = pipeline.ProcessNewReports(pipeline_reports);
        for (size_t d = 0; d < result.duplicates.size(); ++d) {
          const auto& pair = result.duplicates[d];
          pipeline_detections.push_back(MakeDetection(
              pipeline.db().Get(pair.a).case_number(),
              pipeline.db().Get(pair.b).case_number(), result.scores[d]));
        }
      };
      // Alternate which path runs first so neither always finds the
      // other's data in cache.
      if (batch % 2 == 1) run_pipeline();
      {
        Tracer::Scope request_span(tracer, "serve.batch", batch);
        std::vector<report::AdrReport> reports;
        double batch_codec_us = 0.0;
        {
          Tracer::Scope span(tracer, "net.decode", batch);
          decode(begin, end, &reports);
          batch_codec_us += span.ElapsedUs();
        }
        const auto matches = mirror.Process(reports, batch, tracer);
        mirror.ProbeBlocking(batch, tracer);
        {
          Tracer::Scope span(tracer, "net.encode", batch);
          for (size_t r = 0; r < reports.size(); ++r) {
            serve::net::ScreenResponseBody body;
            body.matches = matches[r];
            std::string bytes;
            serve::net::AppendFrame(&bytes,
                                    serve::net::FrameType::kScreenResponse,
                                    serve::net::EncodeScreenResponse(body));
          }
          batch_codec_us += span.ElapsedUs();
        }
        codec_us.push_back(batch_codec_us / static_cast<double>(end - begin));
        for (size_t r = 0; r < reports.size(); ++r) {
          for (const auto& [other, score] : matches[r]) {
            mirror_detections.push_back(
                MakeDetection(reports[r].case_number(), other, score));
          }
        }
      }
      if (batch % 2 == 0) run_pipeline();
      // The durable path after the batch, on the pipeline's state.
      {
        Tracer::Scope span(tracer, "journal.append", batch);
        if (auto status = durable.Append(pipeline_reports); !status.ok()) {
          outcome.error = status.ToString();
          return outcome;
        }
        append_us.push_back(span.ElapsedUs());
      }
      if (spec.snapshot_every > 0 &&
          durable.since_snapshot() >= spec.snapshot_every) {
        if (auto status = snapshot(batch); !status.ok()) {
          outcome.error = status.ToString();
          return outcome;
        }
      }
    }
  }
  // The service snapshots once more when it stops.
  if (auto status = snapshot(batch_id); !status.ok()) {
    outcome.error = status.ToString();
    return outcome;
  }
  outcome.mirror_digest = DigestDetections(mirror_detections);
  outcome.pipeline_digest = DigestDetections(pipeline_detections);

  const auto self = tracer->SelfMs(first_span);
  const auto total = tracer->TotalMs(first_span);
  const auto count = tracer->Count(first_span);
  const auto get = [](const std::map<std::string, double>& map,
                      const char* name) {
    const auto it = map.find(name);
    return it == map.end() ? 0.0 : it->second;
  };
  const auto& counts = mirror.counts();
  const double reports = static_cast<double>(counts.reports);
  const double mirror_ms = get(total, "core.pipeline");
  const double pipeline_ms = get(total, "pipeline.process_new_reports");

  std::vector<double> batch_ms =
      Durations(*tracer, "pipeline.process_new_reports", first_span);
  for (double& us : batch_ms) us /= 1e3;
  m["net.codec_us"] = Median(codec_us);
  m["core.batch_ms_p50"] = Percentile(batch_ms, 0.50);
  m["core.batch_ms_p99"] = Percentile(batch_ms, 0.99);
  m["core.prune_ns_per_pair"] =
      Per(get(total, "core.prune") * 1e6, static_cast<double>(counts.pairs));
  m["core.knn_us_per_query"] =
      Per(get(total, "core.score") * 1e3, static_cast<double>(counts.kept));
  ComparisonMetrics(mirror.classifier().stats().Snapshot(), &m);
  m["core.store_update_us"] = Per(get(total, "core.store_update") * 1e3,
                                  get(count, "core.store_update"));
  m["core.mirror_gap_pct"] = Per(100.0 * get(self, "core.pipeline"), mirror_ms);
  m["text.features_us_per_report"] =
      Per(get(total, "text.features") * 1e3, reports);
  m["distance.intern_us_per_report"] =
      Per(get(total, "distance.intern") * 1e3, reports);
  m["distance.pair_ns"] = Per(get(total, "distance.pairs") * 1e6,
                              static_cast<double>(counts.pairs));
  m["distance.pairs"] = static_cast<double>(counts.pairs);
  m["blocking.probe_us"] = Per(get(total, "blocking.probe") * 1e3, reports);
  m["blocking.add_us"] = Per(get(total, "blocking.add") * 1e3, reports);
  m["blocking.candidates_per_report"] =
      Per(static_cast<double>(counts.candidates), reports);
  m["ml.fit_s"] = get(total, "ml.fit") / 1e3;
  m["ml.train_pairs"] = static_cast<double>(labels.size());
  mirror.jobs().Report(kExecutors, &m);
  m["report.csv_load_s"] = get(total, "report.csv_load") / 1e3;
  m["report.csv_write_s"] = get(total, "report.csv_write") / 1e3;
  m["setup.labels_s"] = get(total, "setup.labels") / 1e3;
  m["setup.bootstrap_s"] = get(total, "setup.bootstrap") / 1e3;
  m["journal.append_us_p50"] = Percentile(append_us, 0.50);
  m["journal.append_us_p99"] = Percentile(append_us, 0.99);
  m["snapshot.ms_p50"] = Percentile(snapshot_ms, 0.50);
  m["snapshot.ms_max"] = Percentile(snapshot_ms, 1.0);
  m["snapshot.bytes_last"] = durable.last_bytes();
  // The mirror's layer spans against path (b): tracing overhead plus any
  // work the mirror attributes differently.
  m["trace.overhead_pct"] = Per(100.0 * (mirror_ms - pipeline_ms), pipeline_ms);
  return outcome;
}

TraceOutcome RunAuditTrace(const AuditTraceConfig& config, Tracer* tracer) {
  TraceOutcome outcome;
  auto& m = outcome.metrics;
  const WorkloadSpec& spec = *config.spec;
  minispark::SparkContext ctx({.num_executors = kExecutors});
  JobLog jobs(&ctx);
  const double started_us = tracer->NowUs();
  const size_t first_span = tracer->spans().size();

  // adrdedup_detect's call sequence for the exhaustive audit.
  report::ReportDatabase db;
  {
    Tracer::Scope span(tracer, "report.csv_load");
    auto loaded = report::ReadCsv(config.reports_csv);
    if (!loaded.ok()) {
      outcome.error = loaded.status().ToString();
      return outcome;
    }
    db = std::move(loaded).value();
  }
  std::vector<std::pair<std::string, std::string>> truth;
  {
    Tracer::Scope span(tracer, "setup.truth");
    auto rows = util::CsvReadFile(config.truth_csv);
    if (!rows.ok()) {
      outcome.error = rows.status().ToString();
      return outcome;
    }
    for (size_t r = 1; r < rows.value().size(); ++r) {
      truth.emplace_back(rows.value()[r][0], rows.value()[r][1]);
    }
  }
  std::vector<distance::ReportFeatures> features;
  {
    Tracer::Scope span(tracer, "text.features");
    features = distance::ExtractAllFeatures(db, {}, &ctx.pool());
  }
  std::vector<distance::LabeledPair> labels;
  {
    Tracer::Scope span(tracer, "setup.labels");
    labels = DetectLabels(db, features, truth);
  }
  core::FastKnnOptions knn;
  knn.k = kK;
  knn.num_clusters = kClusters;
  core::FastKnnClassifier classifier(knn);
  {
    Tracer::Scope span(tracer, "ml.fit");
    classifier.Fit(labels, &ctx.pool());
  }
  const size_t tail = std::min(spec.heavy_tail, db.size());
  const size_t audit_from = db.size() - tail;
  std::vector<distance::ReportPair> pairs;
  {
    Tracer::Scope span(tracer, "core.candidates");
    std::vector<report::ReportId> earlier(audit_from);
    for (size_t i = 0; i < audit_from; ++i) {
      earlier[i] = static_cast<report::ReportId>(i);
    }
    std::vector<report::ReportId> audited;
    for (size_t i = audit_from; i < db.size(); ++i) {
      audited.push_back(static_cast<report::ReportId>(i));
    }
    pairs = distance::PairsForNewReports(earlier, audited);
  }
  std::vector<distance::DistanceVector> vectors;
  {
    Tracer::Scope span(tracer, "distance.pairs");
    const uint64_t first_task = jobs.Mark();
    vectors = distance::ComputePairDistancesSpark(&ctx, features, pairs);
    jobs.Add(first_task, span.ElapsedUs());
  }
  std::vector<double> scores;
  {
    Tracer::Scope span(tracer, "core.score");
    const uint64_t first_task = jobs.Mark();
    std::vector<distance::LabeledPair> queries(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      queries[i].pair = pairs[i];
      queries[i].vector = vectors[i];
    }
    scores = classifier.ScoreAllSpark(&ctx, queries);
    jobs.Add(first_task, span.ElapsedUs());
  }
  std::vector<std::string> lines;
  {
    Tracer::Scope span(tracer, "report.csv_write");
    std::vector<util::CsvRow> rows;
    rows.push_back({"case_number_a", "case_number_b", "score"});
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (scores[i] < 0.0) continue;
      rows.push_back({db.Get(pairs[i].a).case_number(),
                      db.Get(pairs[i].b).case_number(),
                      std::to_string(scores[i])});
      lines.push_back(rows.back()[0] + "," + rows.back()[1] + "," +
                      rows.back()[2]);
    }
    const auto status = util::CsvWriteFile(config.detections_csv, rows);
    if (!status.ok()) {
      outcome.error = status.ToString();
      return outcome;
    }
  }
  const double mirror_ms = (tracer->NowUs() - started_us) / 1e3;
  outcome.mirror_ms = mirror_ms;
  outcome.mirror_digest = DigestLines(lines);

  // The blocked audit's candidate generation, outside the reconciled run.
  size_t blocked_candidates = 0;
  const size_t light_tail = std::min(spec.light_tail, db.size());
  {
    Tracer::Scope span(tracer, "blocking.generate");
    blocking::BlockingOptions options;
    options.keys = {blocking::BlockingKey::kDrugToken,
                    blocking::BlockingKey::kAdrToken};
    for (const auto& pair : GenerateCandidates(features, options).pairs) {
      if (pair.b >= db.size() - light_tail) ++blocked_candidates;
    }
  }

  const auto total = tracer->TotalMs(first_span);
  const auto get = [&total](const char* name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  double attributed_ms = 0.0;
  for (const char* name :
       {"report.csv_load", "setup.truth", "text.features", "setup.labels",
        "ml.fit", "core.candidates", "distance.pairs", "core.score",
        "report.csv_write"}) {
    attributed_ms += get(name);
  }
  const double batch_ms = get("distance.pairs") + get("core.score");
  m["core.batch_ms_p50"] = batch_ms;
  m["core.batch_ms_p99"] = batch_ms;
  m["core.knn_us_per_query"] =
      Per(get("core.score") * 1e3, static_cast<double>(pairs.size()));
  ComparisonMetrics(classifier.stats().Snapshot(), &m);
  m["text.features_us_per_report"] =
      Per(get("text.features") * 1e3, static_cast<double>(db.size()));
  m["distance.pair_ns"] =
      Per(get("distance.pairs") * 1e6, static_cast<double>(pairs.size()));
  m["distance.pairs"] = static_cast<double>(pairs.size());
  m["blocking.probe_us"] =
      Per(get("blocking.generate") * 1e3, static_cast<double>(db.size()));
  m["blocking.candidates_per_report"] =
      Per(static_cast<double>(blocked_candidates),
          static_cast<double>(light_tail));
  m["ml.fit_s"] = get("ml.fit") / 1e3;
  m["ml.train_pairs"] = static_cast<double>(labels.size());
  jobs.Report(kExecutors, &m);
  m["report.csv_load_s"] = get("report.csv_load") / 1e3;
  m["report.csv_write_s"] = get("report.csv_write") / 1e3;
  m["setup.labels_s"] = (get("setup.truth") + get("setup.labels")) / 1e3;
  m["setup.bootstrap_s"] = get("text.features") / 1e3;
  m["core.mirror_gap_pct"] =
      Per(100.0 * (mirror_ms - attributed_ms), mirror_ms);
  return outcome;
}

}  // namespace adrdedup::bench::e2e
