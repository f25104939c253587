#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "datagen/generator.h"
#include "report/report_database.h"
#include "report/report_io.h"
#include "util/csv.h"
#include "util/random.h"

namespace adrdedup::bench::e2e {

namespace {

size_t DuplicatePairsFor(size_t reports) {
  return static_cast<size_t>(
      std::llround(static_cast<double>(reports) * kDuplicatePairsPerReport));
}

datagen::GeneratedCorpus Generate(uint64_t seed, size_t reports) {
  datagen::GeneratorConfig config;
  config.seed = seed;
  config.num_reports = reports;
  config.num_duplicate_pairs = DuplicatePairsFor(reports);
  return datagen::GenerateCorpus(config);
}

}  // namespace

ServeInputs BuildServeInputs(uint64_t seed, size_t stream_reports) {
  const size_t total = kTable3Reports + kStreamPool;
  const datagen::GeneratedCorpus corpus = Generate(kCorpusSeed, total);
  const auto& db = corpus.db;

  // Role of each duplicate pair (see the header comment). The split does
  // not depend on the seed or the stream length, so every run bootstraps
  // the same database and fits the same model.
  std::vector<size_t> pair_order(corpus.duplicate_pairs.size());
  for (size_t i = 0; i < pair_order.size(); ++i) pair_order[i] = i;
  util::Rng split_rng(kCorpusSeed);
  split_rng.Shuffle(&pair_order);
  const size_t streamed_pairs =
      std::min(pair_order.size() / 2, kStreamPool / 24);
  const size_t partner_bootstrapped = streamed_pairs / 2;

  enum class Role {
    kBootstrap,
    kStream,                    // streamed, in no duplicate pair
    kCopyOfBootstrapped,        // streamed copy, original bootstrapped
    kCopyOfStreamed,            // streamed copy, original streamed too
    kOriginalOfStreamed,        // streamed original of such a copy
  };
  std::vector<Role> role(total, Role::kBootstrap);
  std::vector<bool> in_pair(total, false);
  std::vector<report::ReportId> original_of(total, 0);
  ServeInputs out;
  for (size_t k = 0; k < pair_order.size(); ++k) {
    const auto [original, copy] = corpus.duplicate_pairs[pair_order[k]];
    in_pair[original] = in_pair[copy] = true;
    if (k < partner_bootstrapped) {
      role[copy] = Role::kCopyOfBootstrapped;
    } else if (k < streamed_pairs) {
      role[original] = Role::kOriginalOfStreamed;
      role[copy] = Role::kCopyOfStreamed;
      original_of[copy] = original;
    } else {
      out.truth.emplace_back(db.Get(original).case_number(),
                             db.Get(copy).case_number());
    }
  }
  size_t pooled = streamed_pairs + (streamed_pairs - partner_bootstrapped);
  // Fill the pool with the newest reports outside any duplicate pair.
  for (size_t i = total; i-- > 0 && pooled < kStreamPool;) {
    if (in_pair[i]) continue;
    role[i] = Role::kStream;
    ++pooled;
  }

  // Arrival order: every report gets a uniform key, and a copy whose
  // original is streamed too arrives up to kCopyGap positions after it, so
  // any prefix mixes all three kinds and holds the original of each copy.
  std::vector<double> key(total, 0.0);
  const auto arrange = [&](util::Rng* rng,
                           std::vector<report::ReportId>* ids) {
    for (const report::ReportId id : *ids) {
      if (role[id] != Role::kCopyOfStreamed) key[id] = rng->UniformDouble();
    }
    const double positions = static_cast<double>(ids->size());
    for (const report::ReportId id : *ids) {
      if (role[id] == Role::kCopyOfStreamed) {
        key[id] = key[original_of[id]] +
                  (1.0 + rng->UniformDouble() * kCopyGap) / positions;
      }
    }
    std::sort(ids->begin(), ids->end(),
              [&key](report::ReportId a, report::ReportId b) {
                return key[a] < key[b] || (key[a] == key[b] && a < b);
              });
  };
  std::vector<report::ReportId> stream_ids;
  for (size_t i = 0; i < total; ++i) {
    const auto id = static_cast<report::ReportId>(i);
    if (role[i] == Role::kBootstrap) {
      out.bootstrap.push_back(db.Get(id));
    } else {
      stream_ids.push_back(id);
    }
  }
  // Which reports a run streams is fixed; the order they arrive in is the
  // seed's. (Streaming different reports per seed moved the server's peak
  // memory by 5% between seeds, more than any change should be allowed.)
  arrange(&split_rng, &stream_ids);
  stream_ids.resize(std::min(stream_reports, stream_ids.size()));
  util::Rng stream_rng(seed * 0x9E3779B97F4A7C15ull + kCorpusSeed);
  arrange(&stream_rng, &stream_ids);
  for (const report::ReportId id : stream_ids) {
    if (role[id] == Role::kCopyOfBootstrapped) {
      ++out.stats.stream_partner_bootstrapped;
    } else if (role[id] == Role::kCopyOfStreamed) {
      ++out.stats.stream_pairs_within;
    }
    out.stream.push_back(db.Get(id));
  }

  out.stats.corpus_reports = total;
  out.stats.corpus_duplicate_pairs = corpus.duplicate_pairs.size();
  out.stats.bootstrap_reports = out.bootstrap.size();
  out.stats.truth_pairs = out.truth.size();
  out.stats.stream_reports = out.stream.size();
  return out;
}

AuditInputs BuildAuditInputs(size_t reports, size_t tail) {
  const datagen::GeneratedCorpus corpus = Generate(kCorpusSeed, reports);
  std::vector<size_t> order(reports);
  for (size_t i = 0; i < reports; ++i) order[i] = i;
  util::Rng rng(kCorpusSeed);
  rng.Shuffle(&order);
  std::vector<bool> newest(reports, false);
  for (size_t k = 0; k < std::min(tail, reports); ++k) newest[order[k]] = true;
  AuditInputs out;
  for (size_t i = 0; i < reports; ++i) {
    if (!newest[i]) {
      out.reports.push_back(corpus.db.Get(static_cast<report::ReportId>(i)));
    }
  }
  for (size_t k = 0; k < std::min(tail, reports); ++k) {
    out.reports.push_back(
        corpus.db.Get(static_cast<report::ReportId>(order[k])));
  }
  for (const auto& [a, b] : corpus.duplicate_pairs) {
    out.truth.emplace_back(corpus.db.Get(a).case_number(),
                           corpus.db.Get(b).case_number());
  }
  out.stats.corpus_reports = reports;
  out.stats.corpus_duplicate_pairs = corpus.duplicate_pairs.size();
  out.stats.bootstrap_reports = reports - std::min(tail, reports);
  out.stats.truth_pairs = out.truth.size();
  out.stats.stream_reports = std::min(tail, reports);
  return out;
}

ServeInputs ScreenTail(const AuditInputs& audit, size_t tail) {
  const size_t split =
      audit.reports.size() - std::min(tail, audit.reports.size());
  ServeInputs out;
  out.bootstrap.assign(audit.reports.begin(), audit.reports.begin() + split);
  out.stream.assign(audit.reports.begin() + split, audit.reports.end());
  std::unordered_map<std::string, size_t> position;
  for (size_t i = 0; i < audit.reports.size(); ++i) {
    position[audit.reports[i].case_number()] = i;
  }
  for (const auto& [a, b] : audit.truth) {
    const auto [first, last] = std::minmax(position.at(a), position.at(b));
    if (last < split) {
      out.truth.emplace_back(a, b);
    } else if (first < split) {
      ++out.stats.stream_partner_bootstrapped;
    } else {
      ++out.stats.stream_pairs_within;
    }
  }
  out.stats.corpus_reports = audit.reports.size();
  out.stats.corpus_duplicate_pairs = audit.truth.size();
  out.stats.bootstrap_reports = out.bootstrap.size();
  out.stats.truth_pairs = out.truth.size();
  out.stats.stream_reports = out.stream.size();
  return out;
}

util::Status WriteReportsCsv(const std::vector<report::AdrReport>& reports,
                             const std::string& path) {
  report::ReportDatabase db;
  for (const report::AdrReport& report : reports) db.Add(report);
  return report::WriteCsv(db, path);
}

util::Status WriteTruthCsv(
    const std::vector<std::pair<std::string, std::string>>& truth,
    const std::string& path) {
  std::vector<util::CsvRow> rows;
  rows.push_back({"case_number_a", "case_number_b"});
  for (const auto& [a, b] : truth) rows.push_back({a, b});
  return util::CsvWriteFile(path, rows);
}

}  // namespace adrdedup::bench::e2e
