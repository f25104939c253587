#include "oracle.h"

#include <algorithm>
#include <unordered_set>

#include "blocking/blocking.h"
#include "core/fast_knn.h"
#include "distance/pairwise.h"
#include "minispark/context.h"
#include "util/random.h"
#include "workloads.h"

namespace adrdedup::bench::e2e {

namespace {

// The CLIs' negative sampler: uniform pairs over the first `n` reports,
// rejecting self-pairs and pairs already labelled.
void AppendNegatives(const std::vector<distance::ReportFeatures>& features,
                     uint32_t n, std::unordered_set<uint64_t>* keys,
                     std::vector<distance::LabeledPair>* labels) {
  const size_t positives = labels->size();
  const uint64_t universe = static_cast<uint64_t>(n) * (n - 1) / 2;
  const uint64_t available = universe > positives ? universe - positives : 0;
  const size_t negatives =
      static_cast<size_t>(std::min<uint64_t>(kNegatives, available));
  util::Rng rng(kLabelSeed);
  while (labels->size() < positives + negatives) {
    const auto a = static_cast<uint32_t>(rng.Uniform(n));
    const auto b = static_cast<uint32_t>(rng.Uniform(n));
    if (a == b) continue;
    distance::LabeledPair pair;
    pair.pair = {std::min(a, b), std::max(a, b)};
    if (!keys->insert(PairKey(pair.pair)).second) continue;
    pair.label = -1;
    pair.vector =
        ComputeDistanceVector(features[pair.pair.a], features[pair.pair.b]);
    labels->push_back(pair);
  }
}

report::ReportDatabase MakeDatabase(
    const std::vector<report::AdrReport>& reports) {
  report::ReportDatabase db;
  for (const report::AdrReport& report : reports) db.Add(report);
  return db;
}

}  // namespace

core::DedupPipelineOptions ServePipelineOptions(bool use_blocking) {
  core::DedupPipelineOptions options;
  options.knn.k = kK;
  options.knn.num_clusters = kClusters;
  options.theta = 0.0;
  options.use_blocking = use_blocking;
  options.incremental_blocking = use_blocking;
  options.auto_refit = false;
  return options;
}

std::vector<distance::LabeledPair> ServeLabels(
    const report::ReportDatabase& db,
    const std::vector<distance::ReportFeatures>& features,
    const std::vector<std::pair<std::string, std::string>>& truth) {
  std::unordered_set<uint64_t> keys;
  std::vector<distance::LabeledPair> labels;
  for (const auto& [case_a, case_b] : truth) {
    const report::ReportId a = db.FindByCaseNumber(case_a).value();
    const report::ReportId b = db.FindByCaseNumber(case_b).value();
    distance::LabeledPair pair;
    pair.pair = {std::min(a, b), std::max(a, b)};
    pair.label = +1;
    pair.vector =
        ComputeDistanceVector(features[pair.pair.a], features[pair.pair.b]);
    if (keys.insert(PairKey(pair.pair)).second) labels.push_back(pair);
  }
  AppendNegatives(features, static_cast<uint32_t>(db.size()), &keys, &labels);
  return labels;
}

std::vector<distance::LabeledPair> DetectLabels(
    const report::ReportDatabase& db,
    const std::vector<distance::ReportFeatures>& features,
    const std::vector<std::pair<std::string, std::string>>& truth) {
  std::unordered_set<uint64_t> keys;
  std::vector<distance::LabeledPair> labels;
  for (const auto& [case_a, case_b] : truth) {
    const report::ReportId a = db.FindByCaseNumber(case_a).value();
    const report::ReportId b = db.FindByCaseNumber(case_b).value();
    distance::LabeledPair pair;
    pair.pair = {std::min(a, b), std::max(a, b)};
    pair.label = +1;
    pair.vector =
        ComputeDistanceVector(features[pair.pair.a], features[pair.pair.b]);
    keys.insert(PairKey(pair.pair));
    labels.push_back(pair);
  }
  AppendNegatives(features, static_cast<uint32_t>(db.size()), &keys, &labels);
  return labels;
}

std::vector<Detection> OracleServeDetections(const ServeInputs& inputs,
                                             bool use_blocking) {
  minispark::SparkContext ctx({.num_executors = kExecutors});
  const report::ReportDatabase bootstrap_db = MakeDatabase(inputs.bootstrap);
  const auto features =
      distance::ExtractAllFeatures(bootstrap_db, {}, &ctx.pool());
  core::DedupPipeline pipeline(&ctx, ServePipelineOptions(use_blocking));
  pipeline.BootstrapDatabase(inputs.bootstrap);
  pipeline.SeedLabels(ServeLabels(bootstrap_db, features, inputs.truth));
  pipeline.ProcessNewReports({});

  std::vector<Detection> detections;
  for (size_t begin = 0; begin < inputs.stream.size(); begin += kMaxBatch) {
    const size_t end = std::min(inputs.stream.size(), begin + kMaxBatch);
    const auto result = pipeline.ProcessNewReports(
        {inputs.stream.begin() + begin, inputs.stream.begin() + end});
    for (size_t d = 0; d < result.duplicates.size(); ++d) {
      const auto& pair = result.duplicates[d];
      detections.push_back(
          MakeDetection(pipeline.db().Get(pair.a).case_number(),
                        pipeline.db().Get(pair.b).case_number(),
                        result.scores[d]));
    }
  }
  return detections;
}

SpotCheck SpotCheckAudit(const AuditInputs& inputs,
                         const std::vector<AuditCheck>& checks) {
  minispark::SparkContext ctx({.num_executors = kExecutors});
  const report::ReportDatabase db = MakeDatabase(inputs.reports);
  const auto features = distance::ExtractAllFeatures(db, {}, &ctx.pool());
  core::FastKnnOptions options;
  options.k = kK;
  options.num_clusters = kClusters;
  core::FastKnnClassifier classifier(options);
  classifier.Fit(DetectLabels(db, features, inputs.truth), &ctx.pool());

  SpotCheck result;
  for (const AuditCheck& check : checks) {
    const size_t audit_from = db.size() - std::min(check.tail, db.size());
    std::vector<distance::ReportPair> blocked;
    if (check.use_blocking) {
      blocking::BlockingOptions blocking_options;
      blocking_options.keys = {blocking::BlockingKey::kDrugToken,
                               blocking::BlockingKey::kAdrToken};
      blocked = GenerateCandidates(features, blocking_options).pairs;
    }
    for (const size_t b : check.audited) {
      const std::string& case_b =
          db.Get(static_cast<report::ReportId>(b)).case_number();
      std::vector<report::ReportId> partners;
      if (check.use_blocking) {
        for (const auto& pair : blocked) {
          if (pair.b == b) partners.push_back(pair.a);
        }
      } else {
        for (size_t a = 0; a < b; ++a) {
          partners.push_back(static_cast<report::ReportId>(a));
        }
      }
      std::vector<double> scores(partners.size());
      ctx.pool().ParallelFor(0, partners.size(), [&](size_t i) {
        scores[i] = classifier.Score(
            ComputeDistanceVector(features[partners[i]], features[b]));
      });
      std::vector<std::string> expected;
      for (size_t i = 0; i < partners.size(); ++i) {
        if (scores[i] >= 0.0) {
          expected.push_back(db.Get(partners[i]).case_number() + "," + case_b +
                             "," + std::to_string(scores[i]));
        }
      }
      std::vector<std::string> got;
      const std::string suffix = "," + case_b + ",";
      for (const std::string& row : *check.rows) {
        if (row.find(suffix) != std::string::npos) got.push_back(row);
      }
      std::sort(expected.begin(), expected.end());
      std::sort(got.begin(), got.end());
      ++result.answers;
      result.matches += expected.size();
      if (b < audit_from || expected != got) {
        result.mismatches.push_back(
            "audited report " + case_b + " has different detection rows: " +
            std::to_string(expected.size()) + " expected, " +
            std::to_string(got.size()) + " written");
      }
    }
  }
  return result;
}

}  // namespace adrdedup::bench::e2e
