// The load generator shared by the serving benches (pipeline_throughput,
// qos_slo, fault_recovery). Each bench keeps only its scenario (operating
// point, fault plan, row fields); run() owns the steps every serving run
// shares:
//
//  * System construction, span / op-log capture when the bench's
//    TelemetryCollector asks for it, and "tenant<i>" registration;
//  * data placement: tenant t's Rng(1000 + t) fills the slot of its job j
//    at data_base + 0x10000 + (t * jobs_per_tenant + j) * slot bytes;
//  * arrivals: open loop (tenant t submits job j at
//    j * interval + t * (interval / tenants), so tenants do not arrive in
//    lock-step) or closed loop (`window` jobs in flight per tenant, the
//    next submitted when one completes);
//  * deadline / shed-on-expiry decoration of every job;
//  * per-tenant and aggregate results from the scheduler and the admission
//    controller; p50/p99 latency over the completed-job reports.
//
// A new arrival process goes here, not into a fourth bench.
#ifndef ARCANE_BENCH_SERVING_HPP_
#define ARCANE_BENCH_SERVING_HPP_

#include <algorithm>
#include <string>
#include <vector>

#include "arcane/system.hpp"
#include "bench_json.hpp"
#include "sched/pipelines.hpp"
#include "workloads/tensors.hpp"

namespace arcane::serving {

enum class JobKind {
  kPipeline,      // sched::pipeline_job in 0x8000-byte slots
  kScalingProbe,  // sched::scaling_probe_job in 0x4000-byte slots
};

/// One run's offered load.
struct Load {
  JobKind job = JobKind::kPipeline;
  unsigned tenants = 4;
  unsigned jobs_per_tenant = 0;
  std::vector<unsigned> priorities;  // per tenant; empty: all normal
  Cycle interval = 0;    // open-loop per-tenant arrival period (cycles)
  unsigned window = 0;   // > 0: closed loop, jobs in flight per tenant
  Cycle deadline = 0;    // relative completion SLO; 0: none
  bool shed_on_expiry = false;
  /// Register tenants (cfg.qos caps as each tenant's spec) and submit
  /// through the System's AdmissionController instead of the scheduler.
  /// Admission adds an event per job even in pass-through, so the route
  /// is part of the scenario.
  bool admission = false;
};

/// Counts and latency of one tenant, or summed over all tenants.
struct TenantResult {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;         // admission route only
  std::uint64_t rejected = 0;         // admission route only
  std::uint64_t max_outstanding = 0;  // admission route only; max for "all"
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t failed = 0;
  std::uint64_t on_time = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  Cycle p50 = 0, p99 = 0;          // over completed jobs
  sim::OpStallBreakdown stalls{};  // stall_* informational fields
};

struct Result {
  sim::SchedStats sched;
  double clock_mhz = 0.0;
  double host_wall_ms = 0.0;  // host time spent in run()
  std::uint64_t faults_injected = 0;
  std::uint64_t spans_recorded = 0;  // telemetry_* informational fields
  std::uint64_t spans_dropped = 0;
  std::vector<TenantResult> tenants;
  TenantResult all;
  std::vector<sched::JobReport> completed;

  /// `jobs` over the makespan, per simulated second (0 for no makespan).
  double per_sec(std::uint64_t jobs) const {
    const double seconds =
        static_cast<double>(sched.makespan) / (clock_mhz * 1e6);
    return seconds > 0.0 ? static_cast<double>(jobs) / seconds : 0.0;
  }
};

/// num / den, or 0 when den is 0.
inline double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// The floor-index order statistic every latency row reports: ascending
/// sort, then sorted[size_t(q * (n - 1))]; 0 when empty.
inline Cycle percentile(std::vector<Cycle> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1))];
}

constexpr const char* priority_name(unsigned p) {
  switch (p) {
    case kQosPriorityHigh: return "high";
    case kQosPriorityNormal: return "normal";
    case kQosPriorityLow: return "low";
  }
  return "?";
}

/// Drive `load` on a fresh System built from `cfg` until it drains. With
/// `telem`, the run is folded into the bench's trace / metrics files as
/// `run_name`.
inline Result run(const SystemConfig& cfg, const Load& load,
                  benchjson::TelemetryCollector* telem = nullptr,
                  const std::string& run_name = "") {
  const benchjson::WallTimer timer;
  System sys(cfg);
  if (telem != nullptr && telem->tracing()) sys.spans().enable();
  auto& adm = sys.admission();
  auto& sch = sys.scheduler();
  const unsigned tenants = load.tenants;
  const unsigned jobs = load.jobs_per_tenant;

  for (unsigned t = 0; t < tenants; ++t) {
    const std::string name = "tenant" + std::to_string(t);
    const unsigned priority =
        load.priorities.empty() ? kQosPriorityNormal : load.priorities[t];
    if (load.admission) {
      qos::TenantQos spec;
      spec.priority = priority;
      spec.queue_cap = cfg.qos.queue_cap;
      spec.token_burst = cfg.qos.token_burst;
      spec.token_period = cfg.qos.token_period;
      adm.add_tenant(name, spec);
    } else {
      sch.add_tenant(name, priority);
    }
  }

  const bool pipeline = load.job == JobKind::kPipeline;
  const auto slot = [&](unsigned t, unsigned j) -> Addr {
    return sys.data_base() + 0x10000 +
           (t * jobs + j) * (pipeline ? 0x8000u : 0x4000u);
  };
  // All job data is placed up front; only submission times differ
  // between the arrival processes.
  for (unsigned t = 0; t < tenants; ++t) {
    workloads::Rng rng(1000 + t);
    for (unsigned j = 0; j < jobs; ++j) {
      if (pipeline) {
        sched::place_pipeline_data(sys, sched::PipelineSlot(slot(t, j)),
                                   sched::random_pipeline_data(rng));
      } else {
        sched::place_scaling_probe_data(sys, slot(t, j), rng);
      }
    }
  }
  const auto submit = [&](unsigned t, unsigned j, Cycle arrival) {
    sched::JobSpec job =
        pipeline ? sched::pipeline_job(sched::PipelineSlot(slot(t, j)))
                 : sched::scaling_probe_job(slot(t, j));
    if (load.deadline != 0) job.deadline = arrival + load.deadline;
    job.shed_on_expiry = load.shed_on_expiry;
    if (load.admission) {
      adm.submit(t, std::move(job), arrival);
    } else {
      sch.submit(t, std::move(job), arrival);
    }
  };

  // Lives until drain(): the closed-loop completion callback reads it.
  std::vector<unsigned> next(tenants, 0);
  if (load.window > 0) {
    sch.set_on_job_done([&](const sched::JobReport& rep) {
      if (next[rep.tenant] < jobs) {
        submit(rep.tenant, next[rep.tenant]++, rep.done);
      }
    });
    for (unsigned t = 0; t < tenants; ++t) {
      for (unsigned w = 0; w < load.window; ++w) submit(t, next[t]++, 0);
    }
  } else {
    for (unsigned t = 0; t < tenants; ++t) {
      for (unsigned j = 0; j < jobs; ++j) {
        submit(t, j, j * load.interval + t * (load.interval / tenants));
      }
    }
  }
  sch.drain();

  Result r;
  r.sched = sch.stats();
  r.clock_mhz = cfg.clock_mhz;
  if (sys.injector() != nullptr) {
    r.faults_injected = sys.injector()->stats().injected;
  }
  r.completed = sch.completed();
  std::vector<std::vector<Cycle>> latency(tenants);
  std::vector<Cycle> all_latency;
  for (const sched::JobReport& rep : r.completed) {
    latency[rep.tenant].push_back(rep.latency());
    all_latency.push_back(rep.latency());
  }
  r.tenants.resize(tenants);
  TenantResult& all = r.all;
  for (unsigned t = 0; t < tenants; ++t) {
    TenantResult& tr = r.tenants[t];
    const auto& ts = sch.tenant_stats(t);
    tr.offered = ts.jobs_submitted;
    if (load.admission) {
      const auto& qs = adm.tenant_qos(t);
      tr.offered = qs.jobs_offered;
      tr.accepted = qs.jobs_accepted;
      tr.rejected = qs.jobs_rejected();
      tr.max_outstanding = qs.max_outstanding;
    }
    tr.completed = ts.jobs_completed;
    tr.dropped = ts.jobs_dropped;
    tr.failed = ts.jobs_failed;
    tr.on_time = ts.jobs_on_time;
    tr.deadline_misses = ts.deadline_misses;
    tr.retries = ts.retries;
    tr.failovers = ts.failovers;
    tr.stalls = sch.tenant_stalls(t);
    tr.p50 = percentile(latency[t], 0.5);
    tr.p99 = percentile(latency[t], 0.99);

    all.offered += tr.offered;
    all.accepted += tr.accepted;
    all.rejected += tr.rejected;
    all.max_outstanding = std::max(all.max_outstanding, tr.max_outstanding);
    all.completed += tr.completed;
    all.dropped += tr.dropped;
    all.failed += tr.failed;
    all.on_time += tr.on_time;
    all.deadline_misses += tr.deadline_misses;
    all.retries += tr.retries;
    all.failovers += tr.failovers;
  }
  all.stalls = sys.stall_totals();
  all.p50 = percentile(all_latency, 0.5);
  all.p99 = percentile(all_latency, 0.99);
  r.spans_recorded = sys.spans().size();
  r.spans_dropped = sys.spans().dropped();
  if (telem != nullptr) {
    telem->collect(run_name, sys.spans(), sys.metrics(), &sys.scheduler());
  }
  r.host_wall_ms = timer.ms();
  return r;
}

}  // namespace arcane::serving

#endif  // ARCANE_BENCH_SERVING_HPP_
