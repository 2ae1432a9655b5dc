// Serving workload: four tenants with skewed priorities submit the
// conv -> leaky_relu -> maxpool -> gemm pipeline job (sched/pipelines.hpp)
// open-loop in simulated time through QoS admission, onto 4 VPU instances
// under the priority policy, psram backend. One case is one System serving
// kJobsPerTenant jobs per tenant; one repetition is kSystemsPerRep cases.
//
// The arrival period sits near the 4-instance service capacity, so most
// jobs complete while admission still rejects or sheds a share. Sheds and
// rejects are simulated outcomes, not failures; a case fails when a
// completed output differs from golden_pipeline or a submitted job does not
// resolve exactly once (completed, shed, failed or rejected).
#include <algorithm>
#include <memory>

#include "arcane/system.hpp"
#include "bench.hpp"
#include "qos/admission.hpp"
#include "sched/pipelines.hpp"
#include "workloads/tensors.hpp"

namespace perfbench {
namespace {

using arcane::Addr;
using arcane::Cycle;

constexpr unsigned kTenants = 4;
constexpr unsigned kJobsPerTenant = 60;
constexpr unsigned kSystemsPerRep = 50;
constexpr Cycle kArrivalPeriod = 32000;  // per-tenant, cycles
// Admission contract of bench/qos_slo's open/qos section.
constexpr Cycle kDeadline = 60000;
constexpr unsigned kQueueCap = 3;
constexpr unsigned kTokenBurst = 1;
constexpr Cycle kTokenPeriod = 16000;

unsigned priority_of(unsigned tenant) {
  if (tenant == 0) return arcane::kQosPriorityHigh;
  if (tenant == 1) return arcane::kQosPriorityNormal;
  return arcane::kQosPriorityLow;
}

CaseResult run_system(std::uint64_t seed, unsigned idx) {
  namespace sched = arcane::sched;
  CaseResult res;
  res.id = "system=" + std::to_string(idx);

  arcane::SystemConfig cfg = arcane::SystemConfig::paper(4);
  cfg.mem.backend = arcane::MemBackendKind::kBurstPsram;
  cfg.sched_instances = 4;
  cfg.sched_policy = arcane::SchedPolicy::kPriority;
  cfg.qos.enabled = true;
  cfg.qos.queue_cap = kQueueCap;
  cfg.qos.token_burst = kTokenBurst;
  cfg.qos.token_period = kTokenPeriod;
  cfg.qos.deadline_policy = arcane::DeadlinePolicy::kDropOnExpiry;

  auto t0 = Clock::now();
  auto sys = std::make_unique<arcane::System>(cfg);
  auto& adm = sys->admission();
  for (unsigned t = 0; t < kTenants; ++t) {
    arcane::qos::TenantQos spec;
    spec.priority = priority_of(t);
    spec.queue_cap = kQueueCap;
    spec.token_burst = kTokenBurst;
    spec.token_period = kTokenPeriod;
    adm.add_tenant("tenant" + std::to_string(t), spec);
  }
  res.system_s = since(t0);

  // Job (t, j) owns slot t * kJobsPerTenant + j: disjoint 0x8000 regions.
  constexpr unsigned kJobs = kTenants * kJobsPerTenant;
  std::vector<sched::PipelineSlot> slots;
  std::vector<sched::PipelineData> data;
  slots.reserve(kJobs);
  data.reserve(kJobs);
  t0 = Clock::now();
  for (unsigned t = 0; t < kTenants; ++t) {
    arcane::workloads::Rng rng(seed * 0x9E3779B97F4A7C15ull +
                               idx * kTenants + t);
    for (unsigned j = 0; j < kJobsPerTenant; ++j) {
      slots.emplace_back(sys->data_base() + 0x10000 +
                         static_cast<Addr>(slots.size()) * 0x8000);
      data.push_back(sched::random_pipeline_data(rng));
      sched::place_pipeline_data(*sys, slots.back(), data.back());
    }
  }
  res.place_s = since(t0);

  t0 = Clock::now();
  std::vector<sched::JobSpec> jobs;
  std::vector<Cycle> arrival;
  jobs.reserve(kJobs);
  for (unsigned t = 0; t < kTenants; ++t) {
    for (unsigned j = 0; j < kJobsPerTenant; ++j) {
      const unsigned slot = t * kJobsPerTenant + j;
      arrival.push_back(j * kArrivalPeriod + t * (kArrivalPeriod / kTenants));
      jobs.push_back(sched::pipeline_job(slots[slot]));
      jobs.back().deadline = arrival.back() + kDeadline;
      jobs.back().tag = slot;
    }
  }
  res.program_s = since(t0);

  Counters& L = res.layers;
  t0 = Clock::now();
  {
    ScopedSpan span("sched.submit");
    const auto ts = Clock::now();
    for (unsigned slot = 0; slot < kJobs; ++slot) {
      adm.submit(slot / kJobsPerTenant, std::move(jobs[slot]), arrival[slot]);
    }
    L["sched.submit_s"] += since(ts);
  }
  {
    ScopedSpan span("sched.drain");
    const auto td = Clock::now();
    adm.drain();
    L["sched.drain_s"] += since(td);
  }
  res.sim_s = since(t0);

  const auto& sch = sys->scheduler();
  const auto& st = sch.stats();
  const auto& cache = sys->llc().stats();
  std::uint64_t offered = 0, accepted = 0, rejected = 0, macs = 0, vinsns = 0;
  for (unsigned t = 0; t < kTenants; ++t) {
    offered += adm.tenant_qos(t).jobs_offered;
    accepted += adm.tenant_qos(t).jobs_accepted;
    rejected += adm.tenant_qos(t).jobs_rejected();
  }
  for (auto& vu : sys->vpus()) {
    macs += vu.stats().macs;
    vinsns += vu.stats().instructions;
  }
  res.stats = {{"cycles", st.makespan},
               {"llc_hits", cache.hits},
               {"llc_misses", cache.misses},
               {"vpu_macs", macs},
               {"events", sys->events().executed()},
               {"jobs_completed", st.jobs_completed},
               {"jobs_dropped", st.jobs_dropped},
               {"jobs_rejected", rejected}};
  res.sim_cycles = static_cast<double>(st.makespan);
  const auto& done = sch.completed();
  res.jobs = static_cast<double>(done.size() + sch.shed().size() +
                                 sch.failed().size() + rejected);
  L["llc.hits"] += static_cast<double>(cache.hits);
  L["llc.misses"] += static_cast<double>(cache.misses);
  L["llc.kernel_line_claims"] += static_cast<double>(cache.kernel_line_claims);
  L["llc.writebacks"] += static_cast<double>(cache.writebacks);
  L["vpu.instructions"] += static_cast<double>(vinsns);
  L["vpu.macs"] += static_cast<double>(macs);
  L["dma.descriptors"] += static_cast<double>(sys->dma().stats().descriptors);
  L["dma.bytes_from_external"] +=
      static_cast<double>(sys->dma().stats().bytes_from_external);
  L["mem.ext_bursts"] += static_cast<double>(sys->mem_backend().stats().bursts);
  L["sim.events"] += static_cast<double>(sys->events().executed());
  L["sched.ops_dispatched"] += static_cast<double>(st.ops_dispatched);
  L["sched.hazard_deferrals"] += static_cast<double>(st.hazard_deferrals);
  L["sched.queue_wait_cycles"] += static_cast<double>(st.total_queue_wait);
  L["sched.jobs_completed"] += static_cast<double>(st.jobs_completed);
  L["sched.jobs_dropped"] += static_cast<double>(st.jobs_dropped);
  L["qos.offered"] += static_cast<double>(offered);
  L["qos.accepted"] += static_cast<double>(accepted);
  L["qos.rejected"] += static_cast<double>(rejected);

  t0 = Clock::now();
  // Exactly-once resolution: no tag twice among completed/shed/failed, and
  // those plus the rejects account for every submitted job.
  // seen[kJobs] counts reports carrying a tag no job was given.
  std::vector<unsigned> seen(kJobs + 1, 0);
  for (const auto* list : {&done, &sch.shed(), &sch.failed()}) {
    for (const auto& rep : *list) {
      ++seen[std::min<std::uint64_t>(rep.tag, kJobs)];
    }
  }
  const auto resolved = done.size() + sch.shed().size() + sch.failed().size();
  const bool twice = std::any_of(seen.begin(), seen.end() - 1,
                                 [](unsigned n) { return n > 1; });
  if (twice || seen[kJobs] != 0 || resolved + rejected != kJobs ||
      offered != kJobs) {
    res.failure = "a job did not resolve exactly once (" +
                  std::to_string(resolved) + " resolved + " +
                  std::to_string(rejected) + " rejected of " +
                  std::to_string(kJobs) + ")";
  }
  for (const auto& rep : done) {
    if (!res.failure.empty()) break;
    const auto tag = static_cast<unsigned>(rep.tag);
    auto got = arcane::workloads::load_matrix<std::int32_t>(
        *sys, slots[tag].out, 4, 4);
    maybe_corrupt({reinterpret_cast<std::uint8_t*>(got.flat().data()),
                   got.region_bytes()});
    if (got != sched::golden_pipeline(data[tag])) {
      res.failure = "job " + std::to_string(tag) +
                    " output differs from golden_pipeline";
    }
  }
  res.verify_s = since(t0);
  return res;
}

}  // namespace

Workload make_serving_workload(std::uint64_t seed) {
  Workload wl;
  wl.num_cases = kSystemsPerRep;
  // The plain timers around submit and drain cost two clock reads per
  // System, so the traced variant differs only by its spans.
  wl.run = [seed](std::size_t idx, bool /*traced*/) {
    return run_system(seed, static_cast<unsigned>(idx));
  };
  return wl;
}

}  // namespace perfbench
