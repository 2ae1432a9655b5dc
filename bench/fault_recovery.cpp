// Recovery benchmark for deterministic fault injection + failure-aware
// scheduling (src/fault/, docs/BENCHMARKS.md): availability, goodput
// retention, tail latency and recovery time of the multi-instance
// kernel-offload scheduler under injected faults.
//
// Every cell runs the same deadline-carrying open-loop inference load (the
// canonical 4-op pipeline job, 4 tenants across priority classes, shed on
// expiry) twice: once fault-free (the in-cell reference — recomputed per
// cell so sharded sweeps stay byte-identical) and once under the cell's
// fault scenario:
//
//  * none      — plan disabled; retention is 100% by construction.
//  * failstop  — instance 0 fail-stops mid-run and recovers later:
//                quarantine, queue migration, doomed-op failover,
//                re-admission.
//  * hang      — two kernels hang on different instances; the per-op
//                watchdog aborts them and retries elsewhere.
//  * transient — one transient/DMA error per instance; bounded retry with
//                idempotent re-dispatch, no capacity loss.
//  * degrade   — external memory slows 4x for a window; paid identically
//                by every backend through the shared DegradeView hook.
//
// Reported per tenant and aggregated: availability (completed/offered),
// goodput (on-time jobs/sec) and its retention vs the reference, p50/p99
// latency, retry/failover/watchdog/quarantine counts, and recovery_cycles
// — the delay from the end of the disturbance until the first completion
// whose latency is back within the reference p99 (a finite value is the
// "system recovers" acceptance signal). Grid cells: backend x scenario.
#include <cstdio>
#include <string>
#include <vector>

#include "serving.hpp"

using namespace arcane;

namespace {

// Operating point (psram anchor): 4 tenants x one pipeline job every 30k
// cycles ~ 55% of the 4-instance service capacity (~1 job / 7.3k cycles),
// so the fault-free reference keeps every deadline while a lost instance
// or a degraded memory pushes the backlog into the 90k-cycle SLO.
constexpr unsigned kTenants = 4;
constexpr Cycle kOpenInterval = 30000;  // per-tenant arrival period (cycles)
constexpr Cycle kDeadline = 90000;      // relative completion SLO (cycles)

unsigned tenant_priority(unsigned t) {
  if (t == 0) return kQosPriorityHigh;
  if (t == 3) return kQosPriorityLow;
  return kQosPriorityNormal;
}

constexpr const char* kScenarios[] = {"none", "failstop", "hang", "transient",
                                      "degrade"};

FaultEvent fault_event(FaultKind kind, Cycle at, unsigned instance) {
  FaultEvent e;
  e.kind = kind;
  e.at = at;
  e.instance = instance;
  return e;
}

/// The cell's fault plan plus the disturbance window it creates, anchored
/// to the reference makespan `m` (everything is deterministic, so the
/// anchor is stable across runs and shards).
struct Scenario {
  FaultConfig fault;
  Cycle disturbance_start = 0;
  Cycle disturbance_end = 0;
};

Scenario make_scenario(const std::string& name, Cycle m, unsigned instances) {
  Scenario s;
  if (name == "none") return s;
  s.fault.enabled = true;
  s.fault.watchdog_timeout = 2000;
  s.fault.max_retries = 3;
  s.fault.retry_backoff = 256;
  s.fault.quarantine_threshold = 2;
  if (name == "failstop") {
    FaultEvent fail = fault_event(FaultKind::kInstanceFailStop, m / 4, 0);
    fail.recover_at = m / 2;
    s.fault.events.push_back(fail);
    s.disturbance_start = m / 4;
    s.disturbance_end = m / 2;
  } else if (name == "hang") {
    s.fault.events.push_back(fault_event(FaultKind::kOpHang, m / 8, 0));
    s.fault.events.push_back(
        fault_event(FaultKind::kOpHang, m / 4, 1 % instances));
    s.disturbance_start = m / 8;
    s.disturbance_end = m / 4 + s.fault.watchdog_timeout;
  } else if (name == "transient") {
    for (unsigned i = 0; i < instances; ++i) {
      s.fault.events.push_back(fault_event(
          i % 2 ? FaultKind::kDmaError : FaultKind::kTransientError, 0, i));
    }
    s.disturbance_start = 0;
    s.disturbance_end = 0;
  } else if (name == "degrade") {
    FaultEvent win;
    win.kind = FaultKind::kMemDegrade;
    win.at = m / 8;
    win.until = 3 * m / 8;
    win.multiplier = 4;
    s.fault.events.push_back(win);
    s.disturbance_start = win.at;
    s.disturbance_end = win.until;
  }
  return s;
}

/// Cycles from the end of the disturbance until service is demonstrably
/// back to reference quality: the first completion at or after
/// `disturbance_end` whose latency is within the reference p99. Falls back
/// to the full post-disturbance tail when no completion requalifies
/// (still finite — the drain terminated).
Cycle recovery_cycles_from(const std::vector<sched::JobReport>& completed,
                           Cycle disturbance_end, Cycle ref_p99,
                           Cycle makespan) {
  Cycle best = 0;
  bool found = false;
  for (const auto& rep : completed) {
    if (rep.done < disturbance_end) continue;
    if (rep.done - rep.arrival > ref_p99) continue;
    if (!found || rep.done < best) {
      best = rep.done;
      found = true;
    }
  }
  if (!found) return makespan > disturbance_end ? makespan - disturbance_end
                                                : 0;
  return best - disturbance_end;
}

void emit(benchjson::Report& report, bool human, const std::string& scenario,
          const char* who, const char* priority, MemBackendKind backend,
          SchedPolicy policy, unsigned instances, Cycle recovery,
          const serving::Result& r, const serving::TenantResult& tr,
          const serving::TenantResult& ref) {
  const double throughput = r.per_sec(tr.completed);
  const double goodput = r.per_sec(tr.on_time);
  const double availability =
      tr.offered ? 100.0 * static_cast<double>(tr.completed) /
                       static_cast<double>(tr.offered)
                 : 0.0;
  // Retention compares on-time *counts* (not rates): both runs serve the
  // same offered jobs, so counts are the load-invariant basis.
  const double retention =
      ref.on_time ? 100.0 * static_cast<double>(tr.on_time) /
                        static_cast<double>(ref.on_time)
                  : 100.0;
  char name[64];
  std::snprintf(name, sizeof(name), "%s/%s", scenario.c_str(), who);
  auto& row = report.row()
      .str("case", name)
      .str("scenario", scenario)
      .str("backend", backend_name(backend))
      .str("policy", sched_policy_name(policy))
      .num("instances", instances)
      .str("priority", priority)
      .num("offered", tr.offered)
      .num("completed", tr.completed)
      .num("dropped", tr.dropped)
      .num("failed", tr.failed)
      .num("on_time", tr.on_time)
      .num("retries", tr.retries)
      .num("failovers", tr.failovers)
      .num("availability_pct", availability)
      .num("throughput_rps", throughput)
      .num("goodput_rps", goodput)
      .num("goodput_retention_pct", retention)
      .num("p50_latency_cycles", static_cast<std::uint64_t>(tr.p50))
      .num("p99_latency_cycles", static_cast<std::uint64_t>(tr.p99))
      .num("recovery_cycles", static_cast<std::uint64_t>(recovery))
      .num("watchdog_fires", r.sched.watchdog_fires)
      .num("quarantines", r.sched.quarantines)
      .num("faults_injected", r.faults_injected)
      .num("host_wall_ms", r.host_wall_ms)
      .num("telemetry_spans_recorded", r.spans_recorded)
      .num("telemetry_spans_dropped", r.spans_dropped);
  benchjson::add_stall_fields(row, tr.stalls);
  if (human) {
    std::printf(
        "  %-20s %-6s: avail %5.1f%%  retention %5.1f%%  p99 %8llu cyc  "
        "recovery %7llu cyc  retry %llu  failover %llu\n",
        name, priority, availability, retention,
        static_cast<unsigned long long>(tr.p99),
        static_cast<unsigned long long>(recovery),
        static_cast<unsigned long long>(tr.retries),
        static_cast<unsigned long long>(tr.failovers));
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::Harness h("fault_recovery");
  h.add_choice("scenario", "--scenario", "ARCANE_BENCH_SCENARIO",
               {"none", "failstop", "hang", "transient", "degrade"},
               "restrict to one fault scenario");
  h.add_choice("instances", "--instances", "ARCANE_BENCH_INSTANCES",
               {"4", "2"}, "scheduler instances (default: 4)");
  h.grid().add_product({{"backend", {}}, {"scenario", {}}});
  const benchjson::Options opt = h.parse(argc, argv);
  const unsigned instances = h.is("instances", "4") ? 4 : 2;
  const SchedPolicy policy = opt.sched_policy.value_or(SchedPolicy::kPriority);
  serving::Load load;
  load.tenants = kTenants;
  load.jobs_per_tenant = opt.fast ? 10 : 24;
  for (unsigned t = 0; t < kTenants; ++t) {
    load.priorities.push_back(tenant_priority(t));
  }
  load.interval = kOpenInterval;
  load.deadline = kDeadline;
  load.shed_on_expiry = true;
  const bool human = !opt.json;
  benchjson::Report report("fault_recovery");
  benchjson::TelemetryCollector telem(opt);

  if (human) {
    std::printf(
        "Fault recovery (%u tenants, %u jobs/tenant, deadline %llu cyc, "
        "%u instances, policy %s)\n\n",
        kTenants, load.jobs_per_tenant,
        static_cast<unsigned long long>(kDeadline), instances,
        sched_policy_name(policy));
  }
  for (const MemBackendKind backend : benchjson::backend_sweep(opt)) {
    if (human) std::printf("backend %s:\n", backend_name(backend));
    SystemConfig base = SystemConfig::paper(opt.lanes.value_or(4));
    base.mem.backend = backend;
    base.sched_instances = instances;
    base.sched_policy = policy;
    if (opt.replacement) base.llc.replacement = *opt.replacement;

    for (const char* scenario : kScenarios) {
      if (!h.is("scenario", scenario)) continue;
      const benchjson::WallTimer cell_timer;
      // In-cell fault-free reference: anchors the fault plan, the goodput
      // retention basis and the recovery-qualification latency.
      const serving::Result ref = serving::run(base, load);
      const Scenario sc =
          make_scenario(scenario, ref.sched.makespan, instances);

      SystemConfig cfg = base;
      cfg.fault = sc.fault;
      serving::Result r = serving::run(
          cfg, load, &telem,
          std::string(backend_name(backend)) + " " + scenario);
      const Cycle recovery =
          std::string(scenario) == "none"
              ? 0
              : recovery_cycles_from(r.completed, sc.disturbance_end,
                                     ref.all.p99, r.sched.makespan);
      r.host_wall_ms = cell_timer.ms();
      for (unsigned t = 0; t < kTenants; ++t) {
        char who[16];
        std::snprintf(who, sizeof(who), "tenant%u", t);
        emit(report, human, scenario, who,
             serving::priority_name(tenant_priority(t)), backend, policy,
             instances, recovery, r, r.tenants[t], ref.tenants[t]);
      }
      emit(report, human, scenario, "all", "all", backend, policy, instances,
           recovery, r, r.all, ref.all);
    }
    if (human) std::printf("\n");
  }
  telem.finish("fault_recovery");
  if (opt.json) report.print();
  return 0;
}
