// SLO-aware serving of the kernel-offload scheduler under QoS admission
// control (src/qos/): goodput vs raw throughput, drop/reject rates, p99 job
// latency and deadline-miss rates across tenants x priority classes x
// external-memory backends.
//
// Every job is the canonical conv2d -> leaky_relu -> maxpool -> gemm
// inference request (src/sched/pipelines.hpp) with a relative completion
// deadline. Three sections per backend:
//
//  * open/ref — overdriven open-loop (tenants submit far above service
//    capacity) with admission DISABLED: the unbounded-queue reference.
//    Every queue grows with the offered load, p99 diverges with job count
//    and goodput collapses (the pipeline_throughput pathology).
//  * open/qos — same offered load through qos::AdmissionController:
//    per-tenant queue caps + token-bucket rates + drop-on-expiry deadline
//    shedding. Queues stay bounded: drop/reject rates are nonzero, p99 of
//    accepted jobs is flat and goodput holds.
//  * closed — closed-loop (each tenant keeps a fixed window of requests in
//    flight, submitting the next on completion): the well-behaved-client
//    baseline the open-loop sections bracket.
//
// Tenant priority classes come from --mix / ARCANE_BENCH_MIX (skewed: one
// high + one normal + two low tenants; uniform: all normal); dispatch
// defaults to SchedPolicy::kPriority (--sched-policy overrides).
// --admission=off / ARCANE_BENCH_ADMISSION=off runs the open/qos section
// with admission disabled (the nightly caps-on/off axis). --json emits
// schema-v2 rows; --fast shrinks the job counts. Grid cells:
// backend x section (open-ref / open-qos / closed).
#include <cstdio>
#include <string>

#include "serving.hpp"

using namespace arcane;

namespace {

// Operating point (psram anchor): 4 tenants x one 4-op pipeline job every
// 6000 cycles ~ 4.8x the 4-instance service capacity (~1 job / 7.3k
// cycles), so the reference section's queues grow without bound. Admission
// caps outstanding jobs at 3/tenant, rates tenants at 1 job / 16k cycles
// (burst 1) and sheds on a 60k-cycle completion SLO — at this point the
// high-priority tenant keeps a 100% on-time rate while low-priority
// traffic absorbs the drops.
constexpr unsigned kTenants = 4;
constexpr Cycle kOpenInterval = 6000;   // per-tenant arrival period (cycles)
constexpr Cycle kDeadline = 60000;      // relative completion SLO (cycles)
constexpr unsigned kQueueCap = 3;       // outstanding admitted jobs / tenant
constexpr unsigned kTokenBurst = 1;     // token-bucket capacity (jobs)
constexpr Cycle kTokenPeriod = 16000;   // cycles per token
constexpr unsigned kClosedWindow = 2;   // in-flight requests per tenant

enum class Mix { kSkewed, kUniform };

constexpr const char* mix_name(Mix m) {
  return m == Mix::kSkewed ? "skewed" : "uniform";
}

unsigned tenant_priority(Mix mix, unsigned t) {
  if (mix == Mix::kUniform) return kQosPriorityNormal;
  if (t == 0) return kQosPriorityHigh;
  if (t == 1) return kQosPriorityNormal;
  return kQosPriorityLow;
}

enum class Section { kOpenRef, kOpenQos, kClosed };

constexpr const char* section_name(Section s) {
  switch (s) {
    case Section::kOpenRef: return "open/ref";
    case Section::kOpenQos: return "open/qos";
    case Section::kClosed: return "closed";
  }
  return "?";
}

// Knob value for the --section sweep filter (cell ids avoid the slashes
// the row "case" names use).
constexpr const char* section_knob_value(Section s) {
  switch (s) {
    case Section::kOpenRef: return "open-ref";
    case Section::kOpenQos: return "open-qos";
    case Section::kClosed: return "closed";
  }
  return "?";
}

// Every section submits through the admission controller (pass-through
// unless the section runs with admission on); every job carries the SLO.
serving::Result run_section(Section section, bool admission_on, Mix mix,
                            unsigned jobs_per_tenant, MemBackendKind backend,
                            SchedPolicy policy, const benchjson::Options& opt,
                            benchjson::TelemetryCollector& telem) {
  SystemConfig cfg = SystemConfig::paper(opt.lanes.value_or(4));
  cfg.mem.backend = backend;
  cfg.sched_policy = policy;
  if (opt.replacement) cfg.llc.replacement = *opt.replacement;
  if (section == Section::kOpenQos && admission_on) {
    cfg.qos.enabled = true;
    cfg.qos.queue_cap = kQueueCap;
    cfg.qos.token_burst = kTokenBurst;
    cfg.qos.token_period = kTokenPeriod;
    cfg.qos.deadline_policy = DeadlinePolicy::kDropOnExpiry;
  }
  serving::Load load;
  load.tenants = kTenants;
  load.jobs_per_tenant = jobs_per_tenant;
  for (unsigned t = 0; t < kTenants; ++t) {
    load.priorities.push_back(tenant_priority(mix, t));
  }
  load.interval = kOpenInterval;
  if (section == Section::kClosed) load.window = kClosedWindow;
  load.deadline = kDeadline;
  load.admission = true;
  return serving::run(
      cfg, load, &telem,
      std::string(backend_name(backend)) + " " + section_name(section));
}

void emit(benchjson::Report& report, bool human, Section section,
          const char* who, const char* priority, MemBackendKind backend,
          SchedPolicy policy, bool admission_on, Mix mix,
          const serving::Result& r, const serving::TenantResult& tr) {
  const double throughput = r.per_sec(tr.completed);
  const double goodput = r.per_sec(tr.on_time);
  const double drop_rate =
      serving::ratio(tr.dropped, tr.completed + tr.dropped);
  const double reject_rate = serving::ratio(tr.rejected, tr.offered);
  const double miss_rate = serving::ratio(tr.deadline_misses, tr.completed);
  char name[64];
  std::snprintf(name, sizeof(name), "%s/%s", section_name(section), who);
  auto& row = report.row()
      .str("case", name)
      .str("backend", backend_name(backend))
      .str("policy", sched_policy_name(policy))
      .str("admission", admission_on ? "on" : "off")
      .str("mix", mix_name(mix))
      .str("priority", priority)
      .num("offered", tr.offered)
      .num("accepted", tr.accepted)
      .num("rejected", tr.rejected)
      .num("completed", tr.completed)
      .num("dropped", tr.dropped)
      .num("deadline_misses", tr.deadline_misses)
      .num("max_outstanding", tr.max_outstanding)
      .num("throughput_rps", throughput)
      .num("goodput_rps", goodput)
      .num("drop_rate", drop_rate)
      .num("reject_rate", reject_rate)
      .num("deadline_miss_rate", miss_rate)
      .num("p50_latency_cycles", static_cast<std::uint64_t>(tr.p50))
      .num("p99_latency_cycles", static_cast<std::uint64_t>(tr.p99))
      .num("host_wall_ms", r.host_wall_ms)
      .num("telemetry_spans_recorded", r.spans_recorded)
      .num("telemetry_spans_dropped", r.spans_dropped);
  benchjson::add_stall_fields(row, tr.stalls);
  if (human) {
    std::printf(
        "  %-18s %-8s: goodput %7.0f / tput %7.0f rps  drop %4.0f%%  "
        "rej %4.0f%%  p99 %8llu cyc\n",
        name, priority, goodput, throughput, drop_rate * 100.0,
        reject_rate * 100.0, static_cast<unsigned long long>(tr.p99));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Bench-local knobs live in the shared registry: usage text, env
  // fallbacks and value validation all come from grid.hpp.
  benchjson::Harness h("qos_slo");
  h.add_choice("admission", "--admission", "ARCANE_BENCH_ADMISSION",
               {"on", "off"},
               "QoS admission control in the open/qos section (default: on)");
  h.add_choice("mix", "--mix", "ARCANE_BENCH_MIX", {"skewed", "uniform"},
               "tenant priority mix (default: skewed)");
  h.add_choice("section", "--section", "", {"open-ref", "open-qos", "closed"},
               "restrict to one serving section");
  h.grid().add_product({{"backend", {}}, {"section", {}}});
  const benchjson::Options opt = h.parse(argc, argv);
  const bool admission_on = h.is("admission", "on");
  const Mix mix = h.is("mix", "skewed") ? Mix::kSkewed : Mix::kUniform;
  const SchedPolicy policy =
      opt.sched_policy.value_or(SchedPolicy::kPriority);
  const unsigned jobs_per_tenant = opt.fast ? 24 : 48;
  const bool human = !opt.json;
  benchjson::Report report("qos_slo");
  benchjson::TelemetryCollector telem(opt);

  if (human) {
    std::printf(
        "QoS SLO serving (%u tenants, %u jobs/tenant, deadline %llu cyc, "
        "mix %s, admission %s)\n\n",
        kTenants, jobs_per_tenant,
        static_cast<unsigned long long>(kDeadline), mix_name(mix),
        admission_on ? "on" : "off");
  }
  for (const MemBackendKind backend : benchjson::backend_sweep(opt)) {
    if (human) std::printf("backend %s:\n", backend_name(backend));
    for (const Section section :
         {Section::kOpenRef, Section::kOpenQos, Section::kClosed}) {
      if (!h.is("section", section_knob_value(section))) continue;
      const serving::Result r =
          run_section(section, admission_on, mix, jobs_per_tenant, backend,
                      policy, opt, telem);
      // Per-tenant rows for the admission-controlled sections; the
      // reference section only needs the aggregate (its per-tenant split
      // is symmetric by construction).
      if (section != Section::kOpenRef) {
        for (unsigned t = 0; t < kTenants; ++t) {
          char who[16];
          std::snprintf(who, sizeof(who), "tenant%u", t);
          emit(report, human, section, who,
               serving::priority_name(tenant_priority(mix, t)), backend,
               policy,
               admission_on, mix, r, r.tenants[t]);
        }
      }
      emit(report, human, section, "all", "all", backend, policy,
           admission_on, mix, r, r.all);
    }
    if (human) std::printf("\n");
  }
  telem.finish("qos_slo");
  if (opt.json) report.print();
  return 0;
}
