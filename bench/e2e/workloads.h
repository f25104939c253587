// The benchmark's workloads. Every count and rate here was calibrated once
// on the commit that introduced the benchmark and is frozen: a run is
// fixed by operation count, not by duration, so two commits measured with
// the same --seconds do identical work.
#ifndef ADRDEDUP_BENCH_E2E_WORKLOADS_H_
#define ADRDEDUP_BENCH_E2E_WORKLOADS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace adrdedup::bench::e2e {

enum class WorkloadKind { kServe, kAudit };

struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kServe;

  // Serve workloads: adrdedup_serve --listen with these switches.
  bool use_blocking = false;
  bool durable = false;  // --journal-dir, --fsync-policy=batch, snapshots
  size_t snapshot_every = 0;
  double scrape_every_ms = 0.0;  // 0 = scrape /metrics after each phase only
  // A run starts the program `sessions` times on the same inputs. Each
  // serve session plays a closed-loop warm-up, then light and heavy
  // (open-loop Poisson arrivals at the fixed rates below), then capacity
  // (closed loop, kWindow in flight). Counts are requests per phase.
  size_t sessions = 0;
  size_t warmup = 0;
  size_t light = 0;
  size_t heavy = 0;
  size_t capacity = 0;
  double light_rps = 0.0;
  double heavy_rps = 0.0;

  // Audit workload: adrdedup_detect over a corpus of audit_reports.
  size_t audit_reports = 0;
  size_t light_tail = 0;  // --use-blocking audit of the newest reports
  size_t heavy_tail = 0;  // exhaustive (Eq. 3) audit of the newest reports
  // Audited reports the in-process oracle re-derives when no expected
  // digest applies (smoke or scaled sizes).
  size_t audit_checks = 0;

  // Workload whose detections must equal this one's at the same seed
  // (same traffic, different serving options).
  std::string same_digest_as;
};

// The service's default micro-batch cap, and the closed-loop window of
// 4 x max-batch.
inline constexpr size_t kMaxBatch = 32;
inline constexpr size_t kWindow = 4 * kMaxBatch;
// Executors for every program run; the fourth core drives the load.
inline constexpr size_t kExecutors = 3;
// --seconds value the frozen counts were calibrated for (BENCHMARK.json's
// run_seconds); other values scale every count linearly (and are only
// for quick local runs).
inline constexpr double kNominalSeconds = 30.0;
// A session whose load generator sent later than this at the 99th
// percentile of an open-loop phase measured the generator, not the
// server (`--all` checks the median session against it).
inline constexpr double kLateLimitMs = 1.0;

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// `spec` with its per-session counts scaled by seconds / kNominalSeconds
// (floors keep every phase meaningful). `smoke` shrinks to tiny sizes.
WorkloadSpec Scaled(const WorkloadSpec& spec, double seconds, bool smoke);

}  // namespace adrdedup::bench::e2e

#endif  // ADRDEDUP_BENCH_E2E_WORKLOADS_H_
