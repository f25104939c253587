#include "workloads.h"

#include <algorithm>
#include <cmath>

namespace adrdedup::bench::e2e {

namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  // Blocking keeps ~46 candidate pairs per request, so per-request
  // overhead dominates.
  WorkloadSpec blocked;
  blocked.name = "screen-blocked";
  blocked.use_blocking = true;
  blocked.sessions = 4;
  blocked.warmup = 200;
  blocked.light = 300;
  blocked.heavy = 450;
  blocked.capacity = 400;
  blocked.light_rps = 200.0;
  blocked.heavy_rps = 300.0;
  all.push_back(blocked);

  // No blocking (paper Eq. 3): every request meets the whole database.
  WorkloadSpec full;
  full.name = "screen-full";
  full.sessions = 3;
  full.warmup = 12;
  full.light = 120;
  full.heavy = 180;
  full.capacity = 150;
  full.light_rps = 30.0;
  full.heavy_rps = 45.0;
  all.push_back(full);

  // The heavy phase admits reports 501 to 950 of a session, so the one
  // snapshot a session takes (after 700 admitted reports) lands in it:
  // every request queued behind the pipeline lock waits the copy out.
  // The same seed streams the same reports as screen-blocked.
  WorkloadSpec durable = blocked;
  durable.name = "screen-durable";
  durable.durable = true;
  durable.snapshot_every = 700;
  durable.scrape_every_ms = 100.0;
  durable.same_digest_as = "screen-blocked";
  all.push_back(durable);

  // Batch adrdedup_detect jobs: a blocked audit of the newest 500 reports
  // and an exhaustive audit of the newest 8.
  WorkloadSpec audit;
  audit.name = "audit-full";
  audit.kind = WorkloadKind::kAudit;
  audit.sessions = 3;
  audit.audit_reports = 20000;
  audit.light_tail = 500;
  audit.heavy_tail = 8;
  audit.audit_checks = 8;
  all.push_back(audit);
  return all;
}

size_t ScaleCount(size_t count, double scale, size_t floor) {
  if (count == 0) return 0;
  return std::max(floor, static_cast<size_t>(std::llround(
                             static_cast<double>(count) * scale)));
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

WorkloadSpec Scaled(const WorkloadSpec& spec, double seconds, bool smoke) {
  WorkloadSpec out = spec;
  const double scale = smoke ? 0.05 : seconds / kNominalSeconds;
  if (scale == 1.0) return out;
  out.warmup = ScaleCount(spec.warmup, scale, 4);
  if (smoke) out.sessions = std::min<size_t>(spec.sessions, 2);
  out.light = ScaleCount(spec.light, scale, 20);
  out.heavy = ScaleCount(spec.heavy, scale, 20);
  out.capacity = ScaleCount(spec.capacity, scale, 20);
  out.audit_checks = ScaleCount(spec.audit_checks, scale, 2);
  out.audit_reports = ScaleCount(spec.audit_reports, scale, 2000);
  out.light_tail = ScaleCount(spec.light_tail, scale, 20);
  out.heavy_tail = ScaleCount(spec.heavy_tail, std::max(scale, 0.25), 2);
  if (out.snapshot_every > 0) {
    out.snapshot_every = ScaleCount(spec.snapshot_every, scale, 50);
  }
  return out;
}

}  // namespace adrdedup::bench::e2e
