// Workload inputs. The corpora, the serve bootstrap, the truth pairs and
// the set of streamed reports are fixed; --seed draws the orders in which a
// serve run's sessions stream their reports (and, in the load generator,
// the arrival schedules). The fitted model — the k-means cells of the training
// negatives and the pruner's positive clusters — is so sensitive to which
// reports it is trained on that changing the bootstrap, or even its order,
// moves Fast kNN cost several-fold between generator seeds, which would
// make runs with different seeds incomparable; so the seed leaves
// everything the model is fitted on alone. The audit corpus does not
// depend on the seed at all: adrdedup_detect fits on the whole corpus.
//
// The generator emits every duplicate copy after all originals, so the
// newest-N tail of a generated corpus holds only copies and a bootstrap
// made of the rest holds no duplicate pair to train on. The serve split
// below therefore assigns duplicate pairs explicitly:
//   * at least half of the pairs lie wholly in the bootstrap — the
//     training positives of the truth CSV;
//   * of the streamed pairs, half have the original bootstrapped and the
//     copy streamed, so screening the copy must find its partner in the
//     database;
//   * the other half are streamed whole, the copy shortly after its
//     original, so the copy's partner arrives earlier in the same stream.
// Non-duplicate reports fill the pool from the newest originals down.
#ifndef ADRDEDUP_BENCH_E2E_INPUTS_H_
#define ADRDEDUP_BENCH_E2E_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "report/report.h"
#include "util/status.h"

namespace adrdedup::bench::e2e {

// Paper Table 3: 10,382 reports with 286 labelled duplicate pairs.
inline constexpr size_t kTable3Reports = 10382;
inline constexpr double kDuplicatePairsPerReport = 286.0 / 10382.0;
// Generator seed of every corpus, also seeding the split. Across generator
// seeds 1-20 the fitted pruner keeps between 0.2% and 50% of a
// full-database request's pairs; seed 12 keeps about 11%.
inline constexpr uint64_t kCorpusSeed = 12;
// Reports generated after the Table 3 corpus; a workload streams a prefix
// of them, so the corpus and the bootstrap never depend on run length.
inline constexpr size_t kStreamPool = 8000;
// Largest distance, in stream positions, between a streamed original and
// its streamed copy.
inline constexpr double kCopyGap = 64.0;

struct SplitStats {
  size_t corpus_reports = 0;
  size_t corpus_duplicate_pairs = 0;
  size_t bootstrap_reports = 0;
  size_t truth_pairs = 0;  // both reports bootstrapped
  size_t stream_reports = 0;
  size_t stream_partner_bootstrapped = 0;  // copy streamed, original not
  size_t stream_pairs_within = 0;          // both streamed
};

struct ServeInputs {
  std::vector<report::AdrReport> bootstrap;
  // Duplicate pairs inside the bootstrap, by case number.
  std::vector<std::pair<std::string, std::string>> truth;
  std::vector<report::AdrReport> stream;
  SplitStats stats;
};

// Table 3's corpus plus a kStreamPool-report continuation from the same
// generator, split as described above; the stream is a fixed
// `stream_reports` (at most kStreamPool) of the pool, in the seed's
// arrival order.
ServeInputs BuildServeInputs(uint64_t seed, size_t stream_reports);

struct AuditInputs {
  // Arrival order: generator order, except that a fixed random sample of
  // `tail` reports arrives last — those are the ones the audits screen
  // (in generator order the newest reports would all be duplicate copies).
  std::vector<report::AdrReport> reports;
  std::vector<std::pair<std::string, std::string>> truth;
  SplitStats stats;
};

AuditInputs BuildAuditInputs(size_t reports, size_t tail);

// The audit corpus as a screening stream: the newest `tail` reports are
// streamed against a bootstrap of the rest, with the truth pairs that lie
// wholly inside the bootstrap.
ServeInputs ScreenTail(const AuditInputs& audit, size_t tail);

// CSV files in the layout the CLIs read (report::WriteCsv schema; truth
// as case_number_a,case_number_b).
util::Status WriteReportsCsv(const std::vector<report::AdrReport>& reports,
                             const std::string& path);
util::Status WriteTruthCsv(
    const std::vector<std::pair<std::string, std::string>>& truth,
    const std::string& path);

}  // namespace adrdedup::bench::e2e

#endif  // ADRDEDUP_BENCH_E2E_INPUTS_H_
