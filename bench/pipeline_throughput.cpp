// End-to-end requests/sec of the multi-tenant kernel-offload scheduler:
// sweeps VPU instances x tenants x external-memory backend for two
// workloads and reports throughput plus p50/p99 job latency.
//
//  * pipeline  — each job is a conv2d -> leaky_relu -> maxpool -> gemm
//                inference request (4-op DAG, word elements);
//  * singleop  — independent 5x5 int8 conv2d requests (the multi-instance
//                scaling probe: no dependencies, disjoint buffers).
//
// The job shapes are the canonical ones in src/sched/pipelines.hpp, shared
// with tests/sched_test.cpp. A third section ("policies") sweeps the
// dispatch policy (fifo / rr / sjf) at the full 4-instance, 4-tenant
// point. --json emits schema-v2 rows; --fast shrinks the per-tenant job
// count for CI. Grid cells: backend x section.
#include <cstdio>
#include <string>

#include "serving.hpp"

using namespace arcane;

namespace {

enum class Workload { kPipeline, kSingleOp };

constexpr const char* workload_name(Workload w) {
  return w == Workload::kPipeline ? "pipeline" : "singleop";
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::Harness h("pipeline_throughput");
  h.add_choice("section", "--section", "",
               {"pipeline", "singleop", "policies"},
               "restrict to one workload section");
  h.grid().add_product({{"backend", {}}, {"section", {}}});
  const benchjson::Options opt = h.parse(argc, argv);
  // --sched-policy / ARCANE_BENCH_SCHED_POLICY overrides the default FIFO
  // grid (and suppresses the redundant policy sweep); unset keeps the
  // blessed-baseline row set bit-identical.
  const SchedPolicy base_policy =
      opt.sched_policy.value_or(SchedPolicy::kFifo);
  const bool human = !opt.json;
  benchjson::Report report("pipeline_throughput");
  benchjson::TelemetryCollector telem(opt);
  const unsigned jobs_per_tenant = opt.fast ? 6 : 24;
  // Run one configuration and emit its row.
  const auto run = [&](Workload w, unsigned instances, unsigned tenants,
                       MemBackendKind backend, SchedPolicy policy) {
    SystemConfig cfg = SystemConfig::paper(opt.lanes.value_or(4));
    cfg.mem.backend = backend;
    cfg.sched_instances = instances;
    cfg.sched_policy = policy;
    if (opt.replacement) cfg.llc.replacement = *opt.replacement;
    // Open-loop arrivals: each tenant issues one request every interval.
    serving::Load load;
    load.tenants = tenants;
    load.jobs_per_tenant = jobs_per_tenant;
    load.interval = w == Workload::kPipeline ? 4000 : 2000;
    if (w == Workload::kSingleOp) load.job = serving::JobKind::kScalingProbe;

    char name[64];
    std::snprintf(name, sizeof(name), "%s/inst=%u/tenants=%u",
                  workload_name(w), instances, tenants);
    const std::string run_name = std::string(backend_name(backend)) + " " +
                                 name + " (" + sched_policy_name(policy) +
                                 ")";
    const serving::Result r = serving::run(cfg, load, &telem, run_name);
    const std::uint64_t jobs = r.all.completed;
    const double rps = r.per_sec(jobs);
    auto& row = report.row()
        .str("case", name)
        .str("backend", backend_name(backend))
        .str("policy", sched_policy_name(policy))
        .num("jobs", jobs)
        .num("makespan_cycles", static_cast<std::uint64_t>(r.sched.makespan))
        .num("requests_per_sec", rps)
        .num("p50_latency_cycles", static_cast<std::uint64_t>(r.all.p50))
        .num("p99_latency_cycles", static_cast<std::uint64_t>(r.all.p99))
        .num("mean_queue_wait_cycles",
             serving::ratio(r.sched.total_queue_wait, r.sched.ops_dispatched))
        .num("hazard_deferrals", r.sched.hazard_deferrals)
        .num("host_wall_ms", r.host_wall_ms)
        .num("telemetry_spans_recorded", r.spans_recorded)
        .num("telemetry_spans_dropped", r.spans_dropped);
    benchjson::add_stall_fields(row, r.all.stalls);
    if (human) {
      std::printf(
          "  %-24s %-6s %-5s: %7.0f req/s  p50 %7llu  p99 %7llu cyc "
          "(%llu jobs, %llu cyc)\n",
          name, backend_name(backend), sched_policy_name(policy), rps,
          static_cast<unsigned long long>(r.all.p50),
          static_cast<unsigned long long>(r.all.p99),
          static_cast<unsigned long long>(jobs),
          static_cast<unsigned long long>(r.sched.makespan));
    }
  };

  if (human) {
    std::printf("Kernel-offload scheduler throughput "
                "(%u jobs/tenant, %u lanes)\n\n",
                jobs_per_tenant, opt.lanes.value_or(4));
  }
  for (const MemBackendKind backend : benchjson::backend_sweep(opt)) {
    if (human) std::printf("backend %s:\n", backend_name(backend));
    for (const Workload w : {Workload::kPipeline, Workload::kSingleOp}) {
      if (!h.is("section", workload_name(w))) continue;
      for (const unsigned instances : {1u, 2u, 4u}) {
        for (const unsigned tenants : {1u, 4u}) {
          run(w, instances, tenants, backend, base_policy);
        }
      }
    }
    // Dispatch-policy sweep at the contended corner (skipped when a single
    // policy was forced via --sched-policy — then the "policies" cells are
    // empty both serially and sharded).
    if (!opt.sched_policy && h.is("section", "policies")) {
      for (const SchedPolicy policy :
           {SchedPolicy::kRoundRobin, SchedPolicy::kSjf}) {
        run(Workload::kPipeline, 4, 4, backend, policy);
      }
    }
    if (human) std::printf("\n");
  }
  telem.finish("pipeline_throughput");
  if (opt.json) report.print();
  return 0;
}
