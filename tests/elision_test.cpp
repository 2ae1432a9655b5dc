// Write-back elision (paper §IV-B2): destination forwarding and full
// elision with lazy materialization must preserve memory consistency under
// every consumption/abandonment path.
#include <gtest/gtest.h>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "isa/xmnmc.hpp"
#include "sched/job.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using isa::Reg;
using sched::operand;
using workloads::Matrix;
using workloads::Rng;

struct ChainSetup {
  Rng rng{7};
  Matrix<std::int32_t> X = Matrix<std::int32_t>::random(14, 16, rng, -9, 9);
  Matrix<std::int32_t> F = Matrix<std::int32_t>::random(3, 3, rng, -3, 3);
};

SystemConfig full_elision_cfg() {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.full_writeback_elision = true;
  return cfg;
}

TEST(ElisionTest, FullElisionSkipsProducerWriteback) {
  ChainSetup s;
  System sys(full_elision_cfg());
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.xmr(3, out, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.leaky_relu(3, 2, 0, ElemType::kWord);
  prog.sync_read(out);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();

  EXPECT_EQ(sys.runtime().phases().full_elisions, 1u);
  EXPECT_GT(sys.runtime().phases().writebacks_elided, 0u);
  auto got = workloads::load_matrix<std::int32_t>(sys, out, 12, 14);
  auto want = workloads::golden_leaky_relu(workloads::golden_conv2d(s.X, s.F), 0u);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u);
}

TEST(ElisionTest, ElidedIntermediateMaterializedOnHostRead) {
  ChainSetup s;
  System sys(full_elision_cfg());
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.xmr(3, out, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.leaky_relu(3, 2, 0, ElemType::kWord);
  // The host reads the *intermediate*: the elided write-back must be
  // materialized lazily and return the correct data.
  auto& a = prog.a();
  a.li(Reg::kT3, static_cast<std::int32_t>(mid));
  a.lw(Reg::kA0, Reg::kT3, 0);
  a.ecall();
  sys.load_program(prog.finish());
  const auto res = sys.run_unchecked();
  ASSERT_EQ(res.reason, cpu::HaltReason::kEcall);
  const auto conv = workloads::golden_conv2d(s.X, s.F);
  EXPECT_EQ(static_cast<std::int32_t>(res.exit_code), conv.at(0, 0));
  // Whole intermediate correct in memory after materialization.
  auto midm = workloads::load_matrix<std::int32_t>(sys, mid, 12, 14);
  EXPECT_EQ(workloads::count_mismatches(midm, conv), 0u);
}

TEST(ElisionTest, ElidedIntermediateMaterializedOnBackdoorRead) {
  ChainSetup s;
  System sys(full_elision_cfg());
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.xmr(3, out, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.leaky_relu(3, 2, 0, ElemType::kWord);
  prog.sync_read(out);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  // load_matrix goes through the coherent backdoor: must materialize.
  auto midm = workloads::load_matrix<std::int32_t>(sys, mid, 12, 14);
  EXPECT_EQ(workloads::count_mismatches(midm,
                                        workloads::golden_conv2d(s.X, s.F)),
            0u);
}

TEST(ElisionTest, NoElisionWhenNoConsumerQueued) {
  ChainSetup s;
  System sys(full_elision_cfg());
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);  // nothing consumes mid
  prog.sync_read(mid);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  EXPECT_EQ(sys.runtime().phases().full_elisions, 0u);
  auto midm = workloads::load_matrix<std::int32_t>(sys, mid, 12, 14);
  EXPECT_EQ(workloads::count_mismatches(midm,
                                        workloads::golden_conv2d(s.X, s.F)),
            0u);
}

TEST(ElisionTest, SupersededElidedDestMaterializedBeforeOverwrite) {
  // k1: mid = conv(X, F) [elided, consumed by k2]; then k3 writes mid
  // again. The final state of mid must be k3's result.
  ChainSetup s;
  System sys(full_elision_cfg());
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.xmr(3, out, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);        // k1 -> mid (elidable)
  prog.leaky_relu(3, 2, 0, ElemType::kWord);    // k2 consumes mid
  prog.leaky_relu(2, 3, 2, ElemType::kWord);    // k3 overwrites mid
  prog.sync_read(mid);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  const auto relu = workloads::golden_leaky_relu(
      workloads::golden_conv2d(s.X, s.F), 0u);
  auto midm = workloads::load_matrix<std::int32_t>(sys, mid, 12, 14);
  EXPECT_EQ(workloads::count_mismatches(
                midm, workloads::golden_leaky_relu(relu, 2u)),
            0u);
}

TEST(ElisionTest, ForwardingDisabledStillCorrect) {
  ChainSetup s;
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.enable_writeback_elision = false;
  System sys(cfg);
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.xmr(3, out, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.leaky_relu(3, 2, 0, ElemType::kWord);
  prog.sync_read(out);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  EXPECT_EQ(sys.runtime().phases().writebacks_elided, 0u);
  auto got = workloads::load_matrix<std::int32_t>(sys, out, 12, 14);
  auto want = workloads::golden_leaky_relu(workloads::golden_conv2d(s.X, s.F), 0u);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u);
}

TEST(ElisionTest, LiveResidentForcesHostAccessOntoHookPath) {
  // A forwarding resident arms the C-RT host hook, so host accesses skip
  // the LLC's fast hit path even when their line is cached. A host write
  // into the resident's range drops it (releasing its register lines),
  // which disarms the hook and reopens the fast path.
  ChainSetup s;
  System sys(SystemConfig::paper(4));
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.sync_read(mid);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();

  auto busy_lines = [&] {
    unsigned n = 0;
    for (unsigned v = 0; v < sys.config().llc.num_vpus; ++v) {
      n += sys.llc().busy_lines_in_vpu(v);
    }
    return n;
  };
  ASSERT_TRUE(sys.llc().host_hook_armed());
  ASSERT_GT(busy_lines(), 0u);  // the resident's register lines
  Cycle t = sys.host().time() + 1;
  std::uint32_t v = 0;
  Cycle done = 0;
  EXPECT_FALSE(sys.llc().try_host_hit(mid, 4, false, &v, t, done));
  t = sys.read(mid, 4, &v, t);  // a read leaves the resident in place
  EXPECT_TRUE(sys.llc().host_hook_armed());

  const std::uint64_t misses = sys.llc().stats().misses;
  const std::uint32_t w = 0x1234'5678u;
  t = sys.write(mid, 4, &w, t);
  EXPECT_EQ(sys.llc().stats().misses, misses);  // the line was cached
  EXPECT_FALSE(sys.llc().host_hook_armed());
  EXPECT_EQ(busy_lines(), 0u);
  ASSERT_TRUE(sys.llc().try_host_hit(mid, 4, false, &v, t, done));
  EXPECT_EQ(v, w);
  EXPECT_EQ(done, t + sys.config().llc.hit_latency);
}

// Both offload paths share one resident set: a destination the host
// program left resident is forwarded into a later scheduler job.
TEST(ElisionTest, HostResidentForwardsIntoSchedulerJob) {
  ChainSetup s;
  System sys(SystemConfig::paper(4));
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  const MatShape mid_shape{12, 14, 14};
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, mid_shape, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);  // single tile: stays resident
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  ASSERT_TRUE(sys.llc().host_hook_armed());
  const std::uint64_t forwarded = sys.runtime().phases().writebacks_elided;

  auto& sch = sys.scheduler();
  const unsigned t = sch.add_tenant("t");
  sched::JobSpec job;
  sched::OpSpec relu;
  relu.func5 = isa::xmnmc::kLeakyRelu;
  relu.alpha = 1;
  relu.md = operand(out, mid_shape);
  relu.ms1 = operand(mid, mid_shape);
  job.ops.push_back(relu);
  sch.submit(t, std::move(job), 0);
  sch.drain();

  EXPECT_GT(sys.runtime().phases().writebacks_elided, forwarded);
  auto got = workloads::load_matrix<std::int32_t>(sys, out, 12, 14);
  auto want =
      workloads::golden_leaky_relu(workloads::golden_conv2d(s.X, s.F), 1u);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u);
}

// A host program that leaves mid = conv(X, F) resident on VPU 1 — with
// full elision, its write-back deferred — and its last result on VPU 0.
// Keeping a deferred intermediate past the program takes a consumer that
// names it as a source (so its producer elides the write-back) but reads
// another operand instead, and lands on a different VPU: xmk9 below is
// LeakyReLU of ms2 that nominally also sources ms1, and ms2 is resident
// elsewhere.
struct HostLeavesMidResident {
  static constexpr std::uint8_t kReluOfMs2 = 9;
  static constexpr MatShape kShape{12, 14, 14};

  static crt::KernelLibrary library() {
    crt::KernelLibrary lib = crt::KernelLibrary::with_builtins();
    crt::PlannerFn relu = lib.find(isa::xmnmc::kLeakyRelu)->planner;
    lib.register_kernel(crt::KernelInfo{
        kReluOfMs2, "xmk9", "LeakyReLU of ms2, nominal source ms1",
        /*uses_ms1=*/true, /*uses_ms2=*/true, /*uses_ms3=*/false,
        [relu](const crt::KernelOp& op, const SystemConfig& cfg) {
          crt::KernelOp of_ms2 = op;
          of_ms2.ms1 = op.ms2;
          of_ms2.ms2 = crt::Operand{};
          return relu(of_ms2, cfg);
        }});
    return lib;
  }
  static SystemConfig config(bool full_elision) {
    SystemConfig cfg = SystemConfig::paper(4);
    cfg.full_writeback_elision = full_elision;
    cfg.vpu_select = VpuSelectPolicy::kRoundRobin;
    return cfg;
  }

  explicit HostLeavesMidResident(bool full_elision)
      : sys(config(full_elision), library()) {
    workloads::store_matrix(sys, x, s.X);
    workloads::store_matrix(sys, f, s.F);
    workloads::store_matrix(sys, y, Y);
    XProgram prog;
    prog.xmr(0, x, s.X.shape(), ElemType::kWord);
    prog.xmr(1, f, s.F.shape(), ElemType::kWord);
    prog.xmr(2, mid, kShape, ElemType::kWord);
    prog.xmr(3, out, kShape, ElemType::kWord);
    prog.xmr(4, y, kShape, ElemType::kWord);
    prog.xmr(5, a, kShape, ElemType::kWord);
    prog.leaky_relu(5, 4, 0, ElemType::kWord);  // a resident on VPU 0
    prog.conv2d(2, 0, 1, ElemType::kWord);      // mid resident on VPU 1
    prog.xmk(kReluOfMs2, ElemType::kWord, {0, 0, 0, 3, 2, 5});  // VPU 0
    prog.halt();
    sys.load_program(prog.finish());
    sys.run();
  }

  ChainSetup s;
  Matrix<std::int32_t> Y = Matrix<std::int32_t>::random(12, 14, s.rng, -9, 9);
  System sys;
  Addr x = sys.data_base() + 0x1000;
  Addr f = sys.data_base() + 0x10000;
  Addr mid = sys.data_base() + 0x20000;
  Addr out = sys.data_base() + 0x30000;
  Addr y = sys.data_base() + 0x40000;
  Addr a = sys.data_base() + 0x50000;
};

sched::OpSpec relu_op(Addr dst, Addr src, MatShape shape) {
  sched::OpSpec op;
  op.func5 = isa::xmnmc::kLeakyRelu;
  op.md = operand(dst, shape);
  op.ms1 = operand(src, shape);
  return op;
}

// A deferred intermediate the host program never let anyone materialize
// is written back before a scheduler kernel claims lines on its VPU.
TEST(ElisionTest, DeferredHostResultMaterializedBeforeSchedulerClaim) {
  HostLeavesMidResident h(/*full_elision=*/true);
  System& sys = h.sys;
  ASSERT_EQ(sys.runtime().phases().full_elisions, 1u);
  ASSERT_TRUE(sys.llc().host_hook_armed());

  // Two independent jobs park on instances 0 and 1, so one of them claims
  // lines on VPU 1, where mid's only copy lives.
  auto& sch = sys.scheduler();
  const unsigned t = sch.add_tenant("t");
  const Addr z[2] = {sys.data_base() + 0x60000, sys.data_base() + 0x70000};
  for (const Addr dst : z) {
    sched::JobSpec job;
    job.ops.push_back(relu_op(dst, h.y, h.kShape));
    sch.submit(t, std::move(job), 0);
  }
  sch.drain();
  EXPECT_FALSE(sys.llc().host_hook_armed());

  // load_matrix reads through the coherent System::read_bytes.
  auto midm = workloads::load_matrix<std::int32_t>(sys, h.mid, 12, 14);
  EXPECT_EQ(workloads::count_mismatches(midm,
                                        workloads::golden_conv2d(h.s.X, h.s.F)),
            0u);
  const auto relu_y = workloads::golden_leaky_relu(h.Y, 0u);
  EXPECT_EQ(workloads::count_mismatches(
                workloads::load_matrix<std::int32_t>(sys, h.out, 12, 14),
                relu_y),
            0u);
  for (const Addr dst : z) {
    EXPECT_EQ(workloads::count_mismatches(
                  workloads::load_matrix<std::int32_t>(sys, dst, 12, 14),
                  relu_y),
              0u);
  }
}

// A scheduler kernel overwriting a host-left resident on another VPU
// supersedes it: a later scheduler kernel reading that range gets the new
// data, not the old register copy, and a host read is not clobbered by a
// late materialization of the old one.
class SchedulerSupersedesHostResident : public ::testing::TestWithParam<bool> {
};

TEST_P(SchedulerSupersedesHostResident, ConsumerAndHostSeeNewData) {
  HostLeavesMidResident h(/*full_elision=*/GetParam());
  System& sys = h.sys;
  ASSERT_TRUE(sys.llc().host_hook_armed());

  // Alone in the scheduler, both ops run on instance 0; mid's resident
  // copy lives on VPU 1.
  const Addr z = sys.data_base() + 0x60000;
  auto& sch = sys.scheduler();
  const unsigned t = sch.add_tenant("t");
  sched::JobSpec job;
  job.ops.push_back(relu_op(h.mid, h.y, h.kShape));  // writes mid
  job.ops.push_back(relu_op(z, h.mid, h.kShape));    // reads mid
  job.ops.back().deps = {0};
  sch.submit(t, std::move(job), 0);
  sch.drain();

  const auto relu_y = workloads::golden_leaky_relu(h.Y, 0u);
  EXPECT_EQ(workloads::count_mismatches(
                workloads::load_matrix<std::int32_t>(sys, z, 12, 14),
                workloads::golden_leaky_relu(relu_y, 0u)),
            0u);
  EXPECT_EQ(workloads::count_mismatches(
                workloads::load_matrix<std::int32_t>(sys, h.mid, 12, 14),
                relu_y),
            0u);
}

INSTANTIATE_TEST_SUITE_P(Elision, SchedulerSupersedesHostResident,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "FullElision" : "Forwarding";
                         });

}  // namespace
}  // namespace arcane
