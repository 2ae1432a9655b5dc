// Multi-tenant kernel-offload scheduler tests: DAG validation, dependency
// ordering under contention, buffer-reuse ordering across jobs (queued and
// in-flight hazards),
// determinism, tenant fairness, cross-backend functional equivalence and
// multi-instance throughput scaling.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "isa/xmnmc.hpp"
#include "resolution_check.hpp"
#include "sched/job.hpp"
#include "sched/pipelines.hpp"
#include "sched/ready_queue.hpp"
#include "sched/scheduler.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

namespace x = isa::xmnmc;
using sched::operand;
using sched::PipelineData;
using sched::PipelineSlot;
using workloads::Matrix;
using workloads::Rng;

SystemConfig sched_config(MemBackendKind backend, unsigned instances,
                          SchedPolicy policy = SchedPolicy::kFifo) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.mem.backend = backend;
  cfg.sched_instances = instances;
  cfg.sched_policy = policy;
  return cfg;
}

// ------------------------- ReadyQueue unit tests -------------------------
// Direct coverage of the pick/take hot path (previously only exercised
// through full-System scheduler runs).

sched::ReadyEntry entry(std::uint64_t seq, std::uint16_t tenant,
                        std::uint64_t est_cost, std::uint8_t priority = 1) {
  sched::ReadyEntry e;
  e.job = static_cast<std::uint32_t>(seq);
  e.tenant = tenant;
  e.priority = priority;
  e.est_cost = est_cost;
  e.seq = seq;
  return e;
}

const sched::ReadyQueue::Eligible kAll = [](const sched::ReadyEntry&) {
  return true;
};

/// Drain `q` under `policy` and return the seq order of dispatch.
std::vector<std::uint64_t> drain_order(sched::ReadyQueue& q,
                                       SchedPolicy policy,
                                       unsigned num_tenants) {
  std::vector<std::uint64_t> order;
  unsigned rr_last = num_tenants ? num_tenants - 1 : 0;
  while (!q.empty()) {
    const std::size_t i = q.pick(policy, num_tenants, rr_last, kAll);
    EXPECT_NE(i, sched::ReadyQueue::kNone) << "eligible entries remain";
    if (i == sched::ReadyQueue::kNone) break;
    const sched::ReadyEntry e = q.take(i);
    rr_last = e.tenant;
    order.push_back(e.seq);
  }
  return order;
}

TEST(ReadyQueueTest, EmptyQueuePicksNoneUnderEveryPolicy) {
  sched::ReadyQueue q;
  for (SchedPolicy policy :
       {SchedPolicy::kFifo, SchedPolicy::kRoundRobin, SchedPolicy::kSjf,
        SchedPolicy::kPriority}) {
    EXPECT_EQ(q.pick(policy, 4, 0, kAll), sched::ReadyQueue::kNone)
        << sched_policy_name(policy);
  }
  // Round-robin with no tenants registered must not spin.
  EXPECT_EQ(q.pick(SchedPolicy::kRoundRobin, 0, 0, kAll),
            sched::ReadyQueue::kNone);
}

TEST(ReadyQueueTest, SjfTieBreaksByPriorityThenSeq) {
  sched::ReadyQueue q;
  q.push(entry(10, 0, 500, 2));
  q.push(entry(11, 1, 500, 2));  // same cost+priority: lower seq (10) first
  q.push(entry(12, 2, 500, 0));  // same cost, higher class: beats both
  q.push(entry(13, 3, 400, 2));  // cheapest: beats everything
  std::vector<std::uint64_t> order = drain_order(q, SchedPolicy::kSjf, 4);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{13, 12, 10, 11}));
}

TEST(ReadyQueueTest, OrderingIsStableUnderEveryPolicy) {
  auto fill = [](sched::ReadyQueue& q) {
    q.push(entry(0, 1, 300, 1));
    q.push(entry(1, 0, 100, 2));
    q.push(entry(2, 1, 100, 1));
    q.push(entry(3, 2, 200, 0));
    q.push(entry(4, 0, 300, 2));
  };
  sched::ReadyQueue fifo;
  fill(fifo);
  EXPECT_EQ(drain_order(fifo, SchedPolicy::kFifo, 3),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  // Rotation from tenant 2: t0 -> seq 1, t1 -> seq 0, t2 -> seq 3, then
  // t0 -> seq 4, t1 -> seq 2.
  sched::ReadyQueue rr;
  fill(rr);
  EXPECT_EQ(drain_order(rr, SchedPolicy::kRoundRobin, 3),
            (std::vector<std::uint64_t>{1, 0, 3, 4, 2}));
  // Cost asc; 100-cost tie: priority 1 (seq 2) beats 2 (seq 1); 300-cost
  // tie: priority 1 (seq 0) beats 2 (seq 4).
  sched::ReadyQueue sjf;
  fill(sjf);
  EXPECT_EQ(drain_order(sjf, SchedPolicy::kSjf, 3),
            (std::vector<std::uint64_t>{2, 1, 3, 0, 4}));
  // Class asc; class-1 tie by seq; class-2 tie by seq.
  sched::ReadyQueue prio;
  fill(prio);
  EXPECT_EQ(drain_order(prio, SchedPolicy::kPriority, 3),
            (std::vector<std::uint64_t>{3, 0, 2, 1, 4}));
  // Repeated drains of identical content are identical (determinism).
  sched::ReadyQueue again;
  fill(again);
  EXPECT_EQ(drain_order(again, SchedPolicy::kSjf, 3),
            (std::vector<std::uint64_t>{2, 1, 3, 0, 4}));
}

TEST(ReadyQueueTest, PickHonoursEligibilityAndEraseIf) {
  sched::ReadyQueue q;
  q.push(entry(0, 0, 100));
  q.push(entry(1, 1, 200));
  q.push(entry(2, 0, 300));
  const auto odd_seq = [](const sched::ReadyEntry& e) {
    return e.seq % 2 == 1;
  };
  const std::size_t i = q.pick(SchedPolicy::kFifo, 2, 0, odd_seq);
  ASSERT_NE(i, sched::ReadyQueue::kNone);
  EXPECT_EQ(q.entries()[i].seq, 1u);
  EXPECT_EQ(q.erase_if([](const sched::ReadyEntry& e) {
              return e.tenant == 0;
            }),
            2u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.entries()[0].seq, 1u);
}

TEST(SchedJobTest, ValidateRejectsMalformedDags) {
  sched::JobSpec empty;
  EXPECT_FALSE(sched::validate(empty).empty());

  sched::JobSpec self;
  self.ops.resize(1);
  self.ops[0].deps = {0};
  EXPECT_NE(sched::validate(self).find("itself"), std::string::npos);

  sched::JobSpec range;
  range.ops.resize(2);
  range.ops[1].deps = {7};
  EXPECT_NE(sched::validate(range).find("out of range"), std::string::npos);

  sched::JobSpec cycle;
  cycle.ops.resize(3);
  cycle.ops[0].deps = {2};
  cycle.ops[1].deps = {0};
  cycle.ops[2].deps = {1};
  EXPECT_NE(sched::validate(cycle).find("cycle"), std::string::npos);

  sched::JobSpec huge;
  huge.ops.resize(0x10000);
  EXPECT_NE(sched::validate(huge).find("too large"), std::string::npos);

  sched::JobSpec diamond;  // 0 -> {1, 2} -> 3: fine
  diamond.ops.resize(4);
  diamond.ops[1].deps = {0};
  diamond.ops[2].deps = {0};
  diamond.ops[3].deps = {1, 2};
  EXPECT_TRUE(sched::validate(diamond).empty());
}

TEST(SchedSubmitTest, RejectsCyclesAndBadKernels) {
  System sys(sched_config(MemBackendKind::kBurstPsram, 4));
  auto& sch = sys.scheduler();
  const unsigned t0 = sch.add_tenant("t0");
  const PipelineSlot slot(sys.data_base());

  sched::JobSpec cycle = sched::pipeline_job(slot);
  cycle.ops[0].deps = {3};  // conv waits on gemm: cycle
  EXPECT_THROW(sch.submit(t0, cycle, 0), Error);

  sched::JobSpec unknown = sched::pipeline_job(slot);
  unknown.ops[0].func5 = 17;  // no kernel registered there
  EXPECT_THROW(sch.submit(t0, unknown, 0), Error);

  sched::JobSpec bad_shape = sched::pipeline_job(slot);
  bad_shape.ops[0].md = operand(sys.data_base() + 0x1000, {5, 5, 5});
  EXPECT_THROW(sch.submit(t0, bad_shape, 0), Error);

  EXPECT_THROW(sch.submit(7, sched::pipeline_job(slot), 0), Error);
}

// Dependency ordering under contention: many pipeline jobs across fewer
// instances; every op must consume its predecessor's output, so any
// ordering violation corrupts the final gemm result.
TEST(SchedPipelineTest, DependencyOrderingUnderContention) {
  System sys(sched_config(MemBackendKind::kBurstPsram, 2));
  auto& sch = sys.scheduler();
  const unsigned t0 = sch.add_tenant("stream0");
  const unsigned t1 = sch.add_tenant("stream1");

  Rng rng(11);
  constexpr unsigned kJobs = 6;
  std::vector<PipelineData> data;
  std::vector<PipelineSlot> slots;
  for (unsigned i = 0; i < kJobs; ++i) {
    slots.emplace_back(sys.data_base() + 0x10000 + i * 0x8000);
    data.push_back(sched::random_pipeline_data(rng));
    sched::place_pipeline_data(sys, slots[i], data[i]);
    sch.submit(i % 2 ? t1 : t0, sched::pipeline_job(slots[i]), i * 100);
  }
  sch.drain();
  expect_resolved_exactly_once(sch);

  EXPECT_EQ(sch.stats().jobs_completed, kJobs);
  EXPECT_EQ(sch.stats().ops_completed, kJobs * 4);
  for (unsigned i = 0; i < kJobs; ++i) {
    const auto out = workloads::load_matrix<std::int32_t>(sys, slots[i].out,
                                                          4, 4);
    EXPECT_EQ(workloads::count_mismatches(out, sched::golden_pipeline(data[i])),
              0u)
        << "job " << i;
  }
  for (const auto& rep : sch.completed()) {
    EXPECT_LE(rep.arrival, rep.first_dispatch);
    EXPECT_LT(rep.first_dispatch, rep.done);
  }
}

// Buffer reuse across jobs: two jobs of one tenant write the same output
// buffer. Conflicting ops must execute in ready order even when parked on
// different instance queues, so the final memory holds the *second* job's
// result.
TEST(SchedOrderingTest, ConflictingJobsExecuteInReadyOrder) {
  for (SchedPolicy policy :
       {SchedPolicy::kFifo, SchedPolicy::kRoundRobin, SchedPolicy::kSjf}) {
    System sys(sched_config(MemBackendKind::kBurstPsram, 4, policy));
    auto& sch = sys.scheduler();
    const unsigned t0 = sch.add_tenant("t");
    Rng rng(13);
    const Addr in_a = sys.data_base() + 0x10000;
    const Addr in_b = sys.data_base() + 0x12000;
    const Addr out = sys.data_base() + 0x14000;  // shared by both jobs
    const auto A = Matrix<std::int32_t>::random(8, 10, rng, -9, 9);
    const auto B = Matrix<std::int32_t>::random(8, 10, rng, -9, 9);
    workloads::store_matrix(sys, in_a, A);
    workloads::store_matrix(sys, in_b, B);
    auto relu_job = [&](Addr src) {
      sched::OpSpec relu;
      relu.func5 = x::kLeakyRelu;
      relu.alpha = 1;
      relu.md = operand(out, {8, 10, 10});
      relu.ms1 = operand(src, {8, 10, 10});
      sched::JobSpec job;
      job.ops.push_back(relu);
      return job;
    };
    sch.submit(t0, relu_job(in_a), 0);  // job 1: out <- f(A)
    sch.submit(t0, relu_job(in_b), 0);  // job 2: out <- f(B), must win
    sch.drain();
    expect_resolved_exactly_once(sch);

    const auto got = workloads::load_matrix<std::int32_t>(sys, out, 8, 10);
    EXPECT_EQ(workloads::count_mismatches(got,
                                          workloads::golden_leaky_relu(B, 1)),
              0u)
        << "policy " << sched_policy_name(policy);
  }
}

// The in-flight half of the hazard check: the second job arrives after the
// first has dispatched, so only the in-flight comparison (not the
// older-queued one) can hold it back. The first job is a many-tile op over
// 64 rows; the second, a one-tile op on an idle instance, touches the last
// 8 rows, which the first reaches last. Each case (WAW, WAR, RAW) must
// leave memory as if the two ops ran in ready order.
TEST(SchedOrderingTest, InFlightConflictsHoldLaterJobsBack) {
  enum class Hazard { kWaw, kWar, kRaw };
  for (Hazard hazard : {Hazard::kWaw, Hazard::kWar, Hazard::kRaw}) {
    System sys(sched_config(MemBackendKind::kBurstPsram, 4));
    auto& sch = sys.scheduler();
    const unsigned t0 = sch.add_tenant("t");
    Rng rng(17);
    const Addr a = sys.data_base() + 0x10000;  // 64 rows
    const Addr c = sys.data_base() + 0x14000;  // 64 rows
    const Addr b = sys.data_base() + 0x18000;  // 8 rows
    constexpr Addr kLast = 56 * 10 * 4;        // offset of rows 56..63
    const auto a_head = Matrix<std::int32_t>::random(56, 10, rng, -9, 9);
    const auto a_last = Matrix<std::int32_t>::random(8, 10, rng, -9, 9);
    const auto c_last = Matrix<std::int32_t>::random(8, 10, rng, -9, 9);
    const auto B = Matrix<std::int32_t>::random(8, 10, rng, -9, 9);
    workloads::store_matrix(sys, a, a_head);
    workloads::store_matrix(sys, a + kLast, a_last);
    workloads::store_matrix(sys, c + kLast, c_last);
    workloads::store_matrix(sys, b, B);
    auto relu_job = [&](Addr dst, Addr src, std::uint32_t rows) {
      sched::OpSpec relu;
      relu.func5 = x::kLeakyRelu;
      relu.alpha = 1;
      relu.md = operand(dst, {rows, 10, 10});
      relu.ms1 = operand(src, {rows, 10, 10});
      sched::JobSpec job;
      job.ops.push_back(relu);
      return job;
    };
    const auto f = [](const Matrix<std::int32_t>& m) {
      return workloads::golden_leaky_relu(m, 1);
    };
    // Second job's arrival: after the first dispatched at cycle 0, well
    // before it can finish (checked below).
    constexpr Cycle kSecond = 20;
    sch.submit(t0, relu_job(c, a, 64), 0);  // c <- f(a)
    const char* name = "";
    // (address, expected 8x10 contents) after both jobs, in ready order.
    std::vector<std::pair<Addr, Matrix<std::int32_t>>> expect;
    switch (hazard) {
      case Hazard::kWaw:  // the second also writes c's last rows: it wins
        name = "WAW";
        sch.submit(t0, relu_job(c + kLast, b, 8), kSecond);
        expect = {{c + kLast, f(B)}};
        break;
      case Hazard::kWar:  // the second writes a's last rows, read by the first
        name = "WAR";
        sch.submit(t0, relu_job(a + kLast, b, 8), kSecond);
        expect = {{c + kLast, f(a_last)}, {a + kLast, f(B)}};
        break;
      case Hazard::kRaw:  // the second reads c's last rows, written by the first
        name = "RAW";
        sch.submit(t0, relu_job(b, c + kLast, 8), kSecond);
        expect = {{c + kLast, f(a_last)}, {b, f(f(a_last))}};
        break;
    }
    sch.drain();
    expect_resolved_exactly_once(sch);

    ASSERT_EQ(sch.completed().size(), 2u) << name;
    const sched::JobReport& first = sch.completed()[0];
    EXPECT_EQ(first.id, 1u) << name;
    EXPECT_LT(first.first_dispatch, kSecond) << name;
    EXPECT_GT(first.done, kSecond) << name;  // in flight when job 2 arrived
    EXPECT_GE(sch.completed()[1].first_dispatch, first.done) << name;
    EXPECT_GE(sch.stats().hazard_deferrals, 1u) << name;
    const auto head = workloads::load_matrix<std::int32_t>(sys, c, 56, 10);
    EXPECT_EQ(workloads::count_mismatches(head, f(a_head)), 0u) << name;
    for (const auto& [addr, want] : expect) {
      const auto got = workloads::load_matrix<std::int32_t>(sys, addr, 8, 10);
      EXPECT_EQ(workloads::count_mismatches(got, want), 0u)
          << name << " at 0x" << std::hex << addr;
    }
  }
}

// Concurrent use of both offload paths is rejected loudly: a host-program
// xmk while a scheduler kernel is in flight must throw, not silently race
// the scheduler for lines and operand ranges.
TEST(SchedMixedPathTest, ConcurrentOffloadPathsRejected) {
  System sys(sched_config(MemBackendKind::kBurstPsram, 4));
  auto& sch = sys.scheduler();
  const unsigned t0 = sch.add_tenant("t");
  Rng rng(3);
  const Addr base = sys.data_base() + 0x10000;
  sched::place_scaling_probe_data(sys, base, rng);
  sch.submit(t0, sched::scaling_probe_job(base), 0);  // in flight at t=0

  const auto X = Matrix<std::int32_t>::random(8, 10, rng, -9, 9);
  workloads::store_matrix(sys, sys.data_base() + 0x40000, X);
  XProgram prog;
  prog.xmr(0, sys.data_base() + 0x40000, X.shape(), ElemType::kWord);
  prog.xmr(1, sys.data_base() + 0x48000, MatShape{8, 10, 10},
           ElemType::kWord);
  prog.leaky_relu(1, 0, 1, ElemType::kWord);
  prog.halt();
  sys.load_program(prog.finish());
  EXPECT_THROW(sys.run(), Error);
}

// The reverse order: a scheduler job arrives while a host-program kernel is
// still in flight.
TEST(SchedMixedPathTest, JobArrivingDuringHostKernelRejected) {
  Rng rng(5);
  const auto X = Matrix<std::int32_t>::random(8, 10, rng, -9, 9);
  auto host_program = [&](System& sys) {
    workloads::store_matrix(sys, sys.data_base() + 0x40000, X);
    XProgram prog;
    prog.xmr(0, sys.data_base() + 0x40000, X.shape(), ElemType::kWord);
    prog.xmr(1, sys.data_base() + 0x48000, MatShape{8, 10, 10},
             ElemType::kWord);
    prog.leaky_relu(1, 0, 1, ElemType::kWord);
    prog.halt();
    sys.load_program(prog.finish());
  };
  // When the host kernel retires, measured on its own.
  System solo(sched_config(MemBackendKind::kBurstPsram, 4));
  host_program(solo);
  solo.run();
  const Cycle host_done = solo.runtime().last_completion();
  ASSERT_GT(host_done, 1u);

  System sys(sched_config(MemBackendKind::kBurstPsram, 4));
  auto& sch = sys.scheduler();
  const unsigned t0 = sch.add_tenant("t");
  const Addr base = sys.data_base() + 0x10000;
  sched::place_scaling_probe_data(sys, base, rng);
  sch.submit(t0, sched::scaling_probe_job(base), host_done - 1);
  host_program(sys);
  EXPECT_THROW(sys.run(), Error);

  // The rejected dispatch holds nothing: host offloads still run.
  host_program(sys);
  EXPECT_NO_THROW(sys.run());
  EXPECT_EQ(sys.runtime().phases().kernels_executed, 2u);
}

TEST(SchedDeterminismTest, RepeatedRunsAreBitIdentical) {
  auto run = [](SchedPolicy policy) {
    System sys(sched_config(MemBackendKind::kDramTiming, 4, policy));
    auto& sch = sys.scheduler();
    const unsigned t0 = sch.add_tenant("a");
    const unsigned t1 = sch.add_tenant("b");
    Rng rng(23);
    std::vector<PipelineSlot> slots;
    std::vector<PipelineData> data;
    for (unsigned i = 0; i < 8; ++i) {
      slots.emplace_back(sys.data_base() + 0x20000 + i * 0x8000);
      data.push_back(sched::random_pipeline_data(rng));
      sched::place_pipeline_data(sys, slots[i], data[i]);
      sch.submit(i < 4 ? t0 : t1, sched::pipeline_job(slots[i]),
                 (i % 4) * 500);
    }
    sch.drain();
    expect_resolved_exactly_once(sch);
    std::vector<std::uint8_t> outs;
    for (const auto& s : slots) {
      std::vector<std::uint8_t> buf(4 * 4 * 4);
      sys.read_bytes(s.out, buf);
      outs.insert(outs.end(), buf.begin(), buf.end());
    }
    return std::tuple(sch.completed(), sch.stats().makespan, outs);
  };
  for (SchedPolicy policy :
       {SchedPolicy::kFifo, SchedPolicy::kRoundRobin, SchedPolicy::kSjf}) {
    const auto [jobs_a, makespan_a, outs_a] = run(policy);
    const auto [jobs_b, makespan_b, outs_b] = run(policy);
    EXPECT_EQ(makespan_a, makespan_b);
    EXPECT_EQ(outs_a, outs_b);
    ASSERT_EQ(jobs_a.size(), jobs_b.size());
    for (std::size_t i = 0; i < jobs_a.size(); ++i) {
      EXPECT_EQ(jobs_a[i].id, jobs_b[i].id);
      EXPECT_EQ(jobs_a[i].tenant, jobs_b[i].tenant);
      EXPECT_EQ(jobs_a[i].done, jobs_b[i].done);
    }
  }
}

// Round-robin fairness: two tenants flood one instance at t=0; RR must
// alternate their jobs while FIFO drains tenant 0's burst first.
TEST(SchedFairnessTest, RoundRobinAlternatesTenants) {
  auto completion_tenants = [](SchedPolicy policy) {
    System sys(sched_config(MemBackendKind::kBurstPsram, 1, policy));
    auto& sch = sys.scheduler();
    const unsigned t0 = sch.add_tenant("heavy");
    const unsigned t1 = sch.add_tenant("light");
    Rng rng(5);
    unsigned slot = 0;
    auto submit_one = [&](unsigned tenant) {
      const Addr base = sys.data_base() + 0x10000 + slot++ * 0x2000;
      auto X = Matrix<std::int32_t>::random(8, 10, rng, -9, 9);
      workloads::store_matrix(sys, base, X);
      sched::OpSpec relu;
      relu.func5 = x::kLeakyRelu;
      relu.md = operand(base + 0x1000, {8, 10, 10});
      relu.ms1 = operand(base, {8, 10, 10});
      sched::JobSpec job;
      job.ops.push_back(relu);
      sch.submit(tenant, job, 0);
    };
    for (unsigned i = 0; i < 6; ++i) submit_one(t0);
    for (unsigned i = 0; i < 6; ++i) submit_one(t1);
    sch.drain();
    expect_resolved_exactly_once(sch);
    std::vector<unsigned> order;
    for (const auto& rep : sch.completed()) order.push_back(rep.tenant);
    return order;
  };

  const auto rr = completion_tenants(SchedPolicy::kRoundRobin);
  ASSERT_EQ(rr.size(), 12u);
  // First job dispatches before tenant 1's burst arrives; afterwards the
  // rotation strictly alternates.
  for (std::size_t i = 1; i + 1 < rr.size(); i += 2) {
    EXPECT_NE(rr[i], rr[i + 1]) << "position " << i;
  }
  const auto fifo = completion_tenants(SchedPolicy::kFifo);
  ASSERT_EQ(fifo.size(), 12u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(fifo[i], 0u);
  for (std::size_t i = 6; i < 12; ++i) EXPECT_EQ(fifo[i], 1u);
}

TEST(SchedBackendTest, CrossBackendFunctionalEquivalence) {
  auto run = [](MemBackendKind backend) {
    System sys(sched_config(backend, 4));
    auto& sch = sys.scheduler();
    const unsigned t0 = sch.add_tenant("t");
    std::vector<PipelineSlot> slots;
    for (unsigned i = 0; i < 4; ++i) {
      slots.emplace_back(sys.data_base() + 0x10000 + i * 0x8000);
      Rng rng(100 + i);  // per-slot seed so backends see identical data
      sched::place_pipeline_data(sys, slots[i],
                                 sched::random_pipeline_data(rng));
      sch.submit(t0, sched::pipeline_job(slots[i]), i * 50);
    }
    sch.drain();
    expect_resolved_exactly_once(sch);
    std::vector<std::uint8_t> outs;
    for (const auto& s : slots) {
      std::vector<std::uint8_t> buf(4 * 4 * 4);
      sys.read_bytes(s.out, buf);
      outs.insert(outs.end(), buf.begin(), buf.end());
    }
    return std::pair(outs, sch.stats().makespan);
  };
  const auto [ideal, ideal_span] = run(MemBackendKind::kIdealSram);
  const auto [psram, psram_span] = run(MemBackendKind::kBurstPsram);
  const auto [dram, dram_span] = run(MemBackendKind::kDramTiming);
  EXPECT_EQ(ideal, psram);
  EXPECT_EQ(psram, dram);
  EXPECT_LE(ideal_span, psram_span);
  EXPECT_LE(psram_span, dram_span);
}

// The acceptance-criterion scaling check: independent single-op jobs under
// the psram backend must reach >= 2x requests/sec with 4 instances vs 1.
TEST(SchedScalingTest, FourInstancesAtLeastTwiceOneInstance) {
  auto makespan = [](unsigned instances) {
    System sys(sched_config(MemBackendKind::kBurstPsram, instances));
    auto& sch = sys.scheduler();
    const unsigned t0 = sch.add_tenant("load");
    Rng rng(7);
    constexpr unsigned kJobs = 16;
    for (unsigned i = 0; i < kJobs; ++i) {
      const Addr base = sys.data_base() + 0x10000 + i * 0x4000;
      sched::place_scaling_probe_data(sys, base, rng);
      sch.submit(t0, sched::scaling_probe_job(base), 0);
    }
    sch.drain();
    expect_resolved_exactly_once(sch);
    return sch.stats().makespan;
  };
  const Cycle one = makespan(1);
  const Cycle four = makespan(4);
  // requests/sec ratio == makespan ratio for a fixed job count.
  EXPECT_GE(one, 2 * four) << "1-instance " << one << " vs 4-instance "
                           << four;
}

}  // namespace
}  // namespace arcane
