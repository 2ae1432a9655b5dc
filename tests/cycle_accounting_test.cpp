// Cycle accounting and critical-path extraction: the bucket-sum invariant
// (every retired op's stall buckets telescope to its lifetime) across
// memory backends and scheduling policies under multi-tenant contention,
// registry-view consistency, determinism, and telemetry::critical_path on
// synthetic DAGs and on the scheduler's own op records (completed jobs
// only).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "arcane/system.hpp"
#include "sched/job.hpp"
#include "sched/pipelines.hpp"
#include "sim/stats.hpp"
#include "telemetry/critical_path.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using sched::PipelineData;
using sched::PipelineSlot;
using telemetry::JobCriticalPath;
using telemetry::OpNode;
using telemetry::OpTiming;
using workloads::Rng;

constexpr unsigned kPipelineOps = 4;  // ops of sched::pipeline_job

SystemConfig contended_config(MemBackendKind backend, SchedPolicy policy) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.mem.backend = backend;
  // Two instances under three tenants x several 4-op pipeline jobs:
  // queue wait, hazard deferral and dispatch serialization all nonzero.
  cfg.sched_instances = 2;
  cfg.sched_policy = policy;
  return cfg;
}

/// Drive a contended multi-tenant pipeline workload and return the system
/// for inspection. `jobs_per_tenant` 4-op pipeline jobs per tenant, all
/// flooding in at closely spaced arrivals.
void run_contended(System& sys, unsigned jobs_per_tenant = 3) {
  auto& sch = sys.scheduler();
  const unsigned tenants[3] = {sch.add_tenant("t0"), sch.add_tenant("t1"),
                               sch.add_tenant("t2")};
  Rng rng(23);
  std::vector<PipelineSlot> slots;
  unsigned slot = 0;
  for (unsigned j = 0; j < jobs_per_tenant; ++j) {
    for (unsigned t = 0; t < 3; ++t) {
      slots.emplace_back(sys.data_base() + 0x10000 + slot * 0x8000);
      const PipelineData data = sched::random_pipeline_data(rng);
      sched::place_pipeline_data(sys, slots.back(), data);
      sch.submit(tenants[t], sched::pipeline_job(slots.back()),
                 slot * 50);
      ++slot;
    }
  }
  sch.drain();
}

// ---------------------------- bucket-sum invariant ----------------------

// Every retired op's buckets must sum to exactly its lifetime
// (finish - ready), on every backend x policy combination. The scheduler
// also asserts this live on completion; this test re-derives it from the
// scheduler's op records so a future bucket added without updating the
// accounting fails here even in builds that disable the runtime assert.
TEST(CycleAccountingTest, BucketSumInvariantAcrossBackendsAndPolicies) {
  for (MemBackendKind backend :
       {MemBackendKind::kIdealSram, MemBackendKind::kBurstPsram,
        MemBackendKind::kDramTiming}) {
    for (SchedPolicy policy :
         {SchedPolicy::kFifo, SchedPolicy::kRoundRobin, SchedPolicy::kSjf,
          SchedPolicy::kPriority}) {
      System sys(contended_config(backend, policy));
      run_contended(sys);
      const auto& sch = sys.scheduler();
      ASSERT_EQ(sch.completed().size(), 9u)
          << backend_name(backend) << "/" << sched_policy_name(policy);
      sim::OpStallBreakdown sum{};
      for (const sched::JobReport& rep : sch.completed()) {
        for (unsigned op = 0; op < kPipelineOps; ++op) {
          const OpTiming& t = sch.op_timing(rep.id, op);
          EXPECT_EQ(t.breakdown.total(), t.finish - t.ready)
              << backend_name(backend) << "/" << sched_policy_name(policy)
              << " job " << rep.id << " op " << op;
          EXPECT_LE(t.ready, t.dispatch);
          EXPECT_LT(t.dispatch, t.finish);
          sum += t.breakdown;
        }
      }
      // The system ledger is exactly the sum over retired ops.
      const sim::OpStallBreakdown& totals = sys.stall_totals();
      for (unsigned i = 0; i < sim::kNumStallBuckets; ++i) {
        EXPECT_EQ(totals.cycles[i], sum.cycles[i])
            << sim::stall_bucket_name(static_cast<sim::StallBucket>(i));
      }
      // Under contention the interesting buckets must actually move:
      // zero queue-wait would mean the workload exercises nothing.
      EXPECT_GT(totals[sim::StallBucket::kQueueWait], 0u);
      EXPECT_GT(totals[sim::StallBucket::kCompute], 0u);
      EXPECT_GT(totals[sim::StallBucket::kWriteback], 0u);
    }
  }
}

// Per-tenant accumulators partition the system ledger, and the registry's
// bound views (crt.stall.*, sched.tenant<i>.stall.*) read the same numbers
// the accessors return.
TEST(CycleAccountingTest, TenantPartitionAndRegistryViewsAgree) {
  System sys(
      contended_config(MemBackendKind::kBurstPsram, SchedPolicy::kFifo));
  run_contended(sys);
  const auto& sch = sys.scheduler();
  sim::OpStallBreakdown tenant_sum{};
  for (unsigned t = 0; t < 3; ++t) tenant_sum += sch.tenant_stalls(t);
  for (unsigned i = 0; i < sim::kNumStallBuckets; ++i) {
    const auto b = static_cast<sim::StallBucket>(i);
    const std::string name = sim::stall_bucket_name(b);
    EXPECT_EQ(tenant_sum.cycles[i], sys.stall_totals().cycles[i]) << name;
    EXPECT_EQ(sys.metrics().value("crt.stall." + name),
              sys.stall_totals().cycles[i])
        << name;
    for (unsigned t = 0; t < 3; ++t) {
      EXPECT_EQ(sys.metrics().value("sched.tenant" + std::to_string(t) +
                                    ".stall." + name),
                sch.tenant_stalls(t).cycles[i])
          << name << " tenant " << t;
    }
  }
}

// Identical runs produce bit-identical op records and stall totals.
TEST(CycleAccountingTest, AccountingIsDeterministic) {
  auto capture = [] {
    System sys(
        contended_config(MemBackendKind::kDramTiming, SchedPolicy::kSjf));
    run_contended(sys);
    const auto& sch = sys.scheduler();
    std::vector<Cycle> flat;
    for (const sched::JobReport& rep : sch.completed()) {
      flat.push_back(rep.id);
      for (unsigned op = 0; op < kPipelineOps; ++op) {
        const OpTiming& t = sch.op_timing(rep.id, op);
        flat.insert(flat.end(), {t.ready, t.dispatch, t.finish});
        flat.insert(flat.end(), std::begin(t.breakdown.cycles),
                    std::end(t.breakdown.cycles));
      }
    }
    return std::make_pair(flat, sys.stall_totals());
  };
  const auto a = capture();
  const auto b = capture();
  EXPECT_EQ(a.first, b.first);
  for (unsigned k = 0; k < sim::kNumStallBuckets; ++k) {
    EXPECT_EQ(a.second.cycles[k], b.second.cycles[k]);
  }
}

// ---------------------------- critical path -----------------------------

/// A synthetic retired op: a two-bucket decomposition that satisfies the
/// sum invariant (the pre-dispatch wait is queue time, execution compute).
OpTiming timing(Cycle ready, Cycle dispatch, Cycle finish) {
  OpTiming t;
  t.ready = ready;
  t.dispatch = dispatch;
  t.finish = finish;
  t.breakdown[sim::StallBucket::kQueueWait] = dispatch - ready;
  t.breakdown[sim::StallBucket::kCompute] = finish - dispatch;
  return t;
}

/// The walk's view of a synthetic job: op i is (ops[i], deps[i]).
std::vector<OpNode> nodes(const std::vector<OpTiming>& ops,
                          const std::vector<std::vector<unsigned>>& deps) {
  std::vector<OpNode> n;
  for (std::size_t i = 0; i < ops.size(); ++i) n.push_back({ops[i], deps[i]});
  return n;
}

// Diamond DAG: op0 -> {op1, op2} -> op3. op2 finishes last, so the path is
// 0 -> 2 -> 3 and op1's edge into op3 carries the slack.
TEST(CriticalPathTest, DiamondPicksBindingEdgesAndReportsSlack) {
  const std::vector<OpTiming> ops = {
      timing(/*ready=*/100, /*dispatch=*/110, /*fin=*/200),
      timing(200, 205, 300), timing(200, 210, 340), timing(340, 350, 400)};
  const std::vector<std::vector<unsigned>> deps = {{}, {0}, {0}, {1, 2}};

  const JobCriticalPath p =
      telemetry::critical_path(7, /*tenant=*/0, nodes(ops, deps));
  EXPECT_EQ(p.job_id, 7u);
  EXPECT_EQ(p.start, 100u);
  EXPECT_EQ(p.done, 400u);
  EXPECT_EQ(p.length(), 300u);
  ASSERT_EQ(p.steps.size(), 3u);
  EXPECT_EQ(p.steps[0].op, 0u);
  EXPECT_EQ(p.steps[1].op, 2u);
  EXPECT_EQ(p.steps[2].op, 3u);
  // Totals telescope to the length because consecutive steps chain
  // ready[k] == finish[k-1].
  EXPECT_EQ(p.totals.total(), p.length());
  EXPECT_EQ(p.totals[sim::StallBucket::kQueueWait], 10u + 10u + 10u);
  // Edges into path ops: op1 -> op3 has 40 cycles of slack (finished 300,
  // op3 got ready at 340); binding edges have none.
  Cycle slack_1_3 = ~Cycle{0};
  for (const auto& e : p.edges) {
    if (e.from == 1 && e.to == 3) slack_1_3 = e.slack;
    if ((e.from == 2 && e.to == 3) || (e.from == 0 && e.to == 2)) {
      EXPECT_EQ(e.slack, 0u) << e.from << "->" << e.to;
    }
  }
  EXPECT_EQ(slack_1_3, 40u);
}

// Ties on the sink op resolve to the lowest index.
TEST(CriticalPathTest, BreaksSinkTiesLow) {
  // Two independent ops finishing at the same cycle.
  const std::vector<OpTiming> ops = {timing(0, 4, 90), timing(0, 6, 90)};
  const std::vector<std::vector<unsigned>> deps = {{}, {}};

  const JobCriticalPath p = telemetry::critical_path(2, 0, nodes(ops, deps));
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].op, 0u);  // tie -> lowest op index
}

// End to end: the scheduler's critical paths of a real contended run.
// Every completed job gets a path whose steps chain contiguously and whose
// bucket totals telescope to its length.
TEST(CriticalPathTest, EndToEndPathsTelescopeToJobLatency) {
  System sys(
      contended_config(MemBackendKind::kBurstPsram, SchedPolicy::kFifo));
  run_contended(sys);
  const auto paths = sys.scheduler().critical_paths();
  ASSERT_EQ(paths.size(), 9u);  // one per completed job
  for (const JobCriticalPath& p : paths) {
    ASSERT_FALSE(p.steps.empty()) << "job " << p.job_id;
    for (std::size_t i = 1; i < p.steps.size(); ++i) {
      EXPECT_EQ(p.steps[i].ready, p.steps[i - 1].finish)
          << "job " << p.job_id << " step " << i;
    }
    EXPECT_EQ(p.totals.total(), p.length()) << "job " << p.job_id;
    EXPECT_EQ(p.done, p.steps.back().finish);
    // The 4-op pipeline is a chain: binding edges may skip ops only when
    // an op was ready before its dep finished, which a chain forbids.
    EXPECT_EQ(p.steps.size(), kPipelineOps) << "job " << p.job_id;
  }
}

// A drop-on-expiry job shed after its first op retired (its next op was
// still queued) gets no critical path: paths cover exactly the completed
// jobs, in ascending id.
TEST(CriticalPathTest, ShedJobWithRetiredOpsGetsNoPath) {
  System sys(
      contended_config(MemBackendKind::kBurstPsram, SchedPolicy::kFifo));
  auto& sch = sys.scheduler();
  const unsigned t = sch.add_tenant("t");
  Rng rng(31);
  std::vector<PipelineSlot> slots;
  for (unsigned j = 0; j < 3; ++j) {
    slots.emplace_back(sys.data_base() + 0x10000 + j * 0x8000);
    sched::place_pipeline_data(sys, slots.back(),
                               sched::random_pipeline_data(rng));
    sched::JobSpec job = sched::pipeline_job(slots.back());
    if (j == 1) {
      // Expires while its first op runs: shed when the second is queued.
      job.deadline = 1;
      job.shed_on_expiry = true;
    }
    sch.submit(t, std::move(job), 0);
  }
  sch.drain();

  ASSERT_EQ(sch.shed().size(), 1u);
  const std::uint64_t shed_id = sch.shed()[0].id;
  EXPECT_GT(sch.op_timing(shed_id, 0).finish, 0u);  // op 0 retired
  EXPECT_EQ(sch.stats().ops_completed, 2 * kPipelineOps + 1);

  std::vector<std::uint64_t> done_ids;
  for (const sched::JobReport& rep : sch.completed()) {
    done_ids.push_back(rep.id);
  }
  std::sort(done_ids.begin(), done_ids.end());
  std::vector<std::uint64_t> path_ids;
  for (const JobCriticalPath& p : sch.critical_paths()) {
    path_ids.push_back(p.job_id);
  }
  EXPECT_EQ(path_ids, done_ids);
}

}  // namespace
}  // namespace arcane
