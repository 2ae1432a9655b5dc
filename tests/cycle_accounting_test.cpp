// Cycle accounting and critical-path extraction: the bucket-sum invariant
// (every retired op's stall buckets telescope to its lifetime) across
// memory backends and scheduling policies under multi-tenant contention,
// registry-view consistency, determinism, the "free when read" guarantee
// (enabling the op log never moves simulated time), and
// telemetry::CriticalPath on both synthetic and end-to-end op logs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
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
using telemetry::CriticalPath;
using telemetry::JobCriticalPath;
using telemetry::OpLog;
using telemetry::OpTiming;
using workloads::Rng;

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

// Every recorded op's buckets must sum to exactly its lifetime
// (finish - ready), on every backend x policy combination. The scheduler
// also asserts this live on completion; this test re-derives it from the
// op log so a future bucket added without updating the accounting fails
// here even in builds that disable the runtime assert.
TEST(CycleAccountingTest, BucketSumInvariantAcrossBackendsAndPolicies) {
  for (MemBackendKind backend :
       {MemBackendKind::kIdealSram, MemBackendKind::kBurstPsram,
        MemBackendKind::kDramTiming}) {
    for (SchedPolicy policy :
         {SchedPolicy::kFifo, SchedPolicy::kRoundRobin, SchedPolicy::kSjf,
          SchedPolicy::kPriority}) {
      System sys(contended_config(backend, policy));
      sys.op_log().enable();
      run_contended(sys);
      const auto& entries = sys.op_log().entries();
      ASSERT_EQ(entries.size(), 9u * 4u)
          << backend_name(backend) << "/" << sched_policy_name(policy);
      sim::OpStallBreakdown sum{};
      for (const OpTiming& op : entries) {
        EXPECT_EQ(op.breakdown.total(), op.finish - op.ready)
            << backend_name(backend) << "/" << sched_policy_name(policy)
            << " job " << op.job_id << " op " << op.op;
        EXPECT_LE(op.ready, op.dispatch);
        EXPECT_LT(op.dispatch, op.finish);
        sum += op.breakdown;
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

// Identical runs produce bit-identical op logs and stall totals.
TEST(CycleAccountingTest, AccountingIsDeterministic) {
  auto capture = [] {
    System sys(
        contended_config(MemBackendKind::kDramTiming, SchedPolicy::kSjf));
    sys.op_log().enable();
    run_contended(sys);
    return std::make_pair(sys.op_log().entries(), sys.stall_totals());
  };
  const auto a = capture();
  const auto b = capture();
  ASSERT_EQ(a.first.size(), b.first.size());
  for (std::size_t i = 0; i < a.first.size(); ++i) {
    EXPECT_EQ(a.first[i].job_id, b.first[i].job_id) << i;
    EXPECT_EQ(a.first[i].op, b.first[i].op) << i;
    EXPECT_EQ(a.first[i].ready, b.first[i].ready) << i;
    EXPECT_EQ(a.first[i].dispatch, b.first[i].dispatch) << i;
    EXPECT_EQ(a.first[i].finish, b.first[i].finish) << i;
    for (unsigned k = 0; k < sim::kNumStallBuckets; ++k) {
      EXPECT_EQ(a.first[i].breakdown.cycles[k], b.first[i].breakdown.cycles[k])
          << i;
    }
  }
  for (unsigned k = 0; k < sim::kNumStallBuckets; ++k) {
    EXPECT_EQ(a.second.cycles[k], b.second.cycles[k]);
  }
}

// "Free when read": enabling the op log records timings but must not move
// a single simulated timestamp — completion times and stall totals are
// bit-identical with and without capture.
TEST(CycleAccountingTest, OpLogCaptureNeverPerturbsTiming) {
  auto run = [](bool capture) {
    System sys(contended_config(MemBackendKind::kBurstPsram,
                                SchedPolicy::kRoundRobin));
    if (capture) sys.op_log().enable();
    run_contended(sys);
    std::vector<Cycle> done;
    for (const auto& rep : sys.scheduler().completed()) {
      done.push_back(rep.done);
    }
    return std::make_pair(done, sys.stall_totals());
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_EQ(with.first, without.first);
  for (unsigned k = 0; k < sim::kNumStallBuckets; ++k) {
    EXPECT_EQ(with.second.cycles[k], without.second.cycles[k]);
  }
}

// ---------------------------- critical path -----------------------------

OpTiming timing(std::uint64_t job, std::uint16_t op, Cycle ready,
                Cycle dispatch, Cycle finish, std::vector<unsigned> deps,
                bool dropped = false) {
  OpTiming t;
  t.job_id = job;
  t.op = op;
  t.tenant = 0;
  t.ready = ready;
  t.dispatch = dispatch;
  t.finish = finish;
  // A two-bucket decomposition that satisfies the sum invariant: the
  // pre-dispatch wait is queue time, execution is compute.
  t.breakdown[sim::StallBucket::kQueueWait] = dispatch - ready;
  t.breakdown[sim::StallBucket::kCompute] = finish - dispatch;
  t.deps = std::move(deps);
  t.dropped_job = dropped;
  return t;
}

// Diamond DAG: op0 -> {op1, op2} -> op3. op2 finishes last, so the path is
// 0 -> 2 -> 3 and op1's edge into op3 carries the slack.
TEST(CriticalPathTest, DiamondPicksBindingEdgesAndReportsSlack) {
  OpLog log;
  log.enable();
  log.record(timing(7, 0, /*ready=*/100, /*dispatch=*/110, /*fin=*/200, {}));
  log.record(timing(7, 1, 200, 205, 300, {0}));
  log.record(timing(7, 2, 200, 210, 340, {0}));
  log.record(timing(7, 3, 340, 350, 400, {1, 2}));

  const std::vector<JobCriticalPath> paths = CriticalPath::analyze(log);
  ASSERT_EQ(paths.size(), 1u);
  const JobCriticalPath& p = paths[0];
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

// Shed jobs are skipped; ties on the sink op resolve to the lowest index.
TEST(CriticalPathTest, SkipsShedJobsAndBreaksSinkTiesLow) {
  OpLog log;
  log.enable();
  // Job 1: shed mid-flight — one op ran to completion anyway.
  log.record(timing(1, 0, 0, 5, 50, {}, /*dropped=*/true));
  // Job 2: two independent ops finishing at the same cycle.
  log.record(timing(2, 0, 0, 4, 90, {}));
  log.record(timing(2, 1, 0, 6, 90, {}));

  const auto paths = CriticalPath::analyze(log);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].job_id, 2u);
  ASSERT_EQ(paths[0].steps.size(), 1u);
  EXPECT_EQ(paths[0].steps[0].op, 0u);  // tie -> lowest op index
}

// End to end: analyze a real contended run's op log. Every completed job
// gets a path whose steps chain contiguously and whose bucket totals
// telescope to its length.
TEST(CriticalPathTest, EndToEndPathsTelescopeToJobLatency) {
  System sys(
      contended_config(MemBackendKind::kBurstPsram, SchedPolicy::kFifo));
  sys.op_log().enable();
  run_contended(sys);
  const auto paths = CriticalPath::analyze(sys.op_log());
  ASSERT_EQ(paths.size(), 9u);  // one per completed job
  for (const JobCriticalPath& p : paths) {
    ASSERT_FALSE(p.steps.empty()) << "job " << p.job_id;
    for (std::size_t i = 1; i < p.steps.size(); ++i) {
      EXPECT_EQ(p.steps[i].ready, p.steps[i - 1].finish)
          << "job " << p.job_id << " step " << i;
    }
    EXPECT_EQ(p.totals.total(), p.length()) << "job " << p.job_id;
    EXPECT_EQ(p.done, p.steps.back().finish);
  }
  // The 4-op pipeline is a chain: with every op recorded, the path covers
  // all four ops of at least the uncontended jobs (binding edges may skip
  // ops only when an op was ready before its dep finished, which a chain
  // forbids).
  std::map<std::uint64_t, std::size_t> steps_by_job;
  for (const auto& p : paths) steps_by_job[p.job_id] = p.steps.size();
  for (const auto& [job, n] : steps_by_job) {
    EXPECT_EQ(n, 4u) << "job " << job;
  }
}

// The op log stops recording (and counts drops) at capacity instead of
// growing unbounded; disabled logs record nothing at zero cost.
TEST(CycleAccountingTest, OpLogBoundedAndOptIn) {
  OpLog small(/*capacity=*/2);
  small.record(timing(0, 0, 0, 1, 2, {}));  // disabled: ignored
  EXPECT_EQ(small.size(), 0u);
  small.enable();
  small.record(timing(0, 0, 0, 1, 2, {}));
  small.record(timing(0, 1, 2, 3, 4, {0}));
  small.record(timing(0, 2, 4, 5, 6, {1}));  // over capacity: dropped
  EXPECT_EQ(small.size(), 2u);
  EXPECT_EQ(small.dropped(), 1u);
  small.clear();
  EXPECT_EQ(small.size(), 0u);
  EXPECT_EQ(small.dropped(), 0u);
}

}  // namespace
}  // namespace arcane
