// Host ISS semantics: RV32IM instruction behaviour, halting, timing basics.
#include <gtest/gtest.h>

#include <array>
#include <optional>

#include "arcane/system.hpp"
#include "isa/assembler.hpp"
#include "isa/decode.hpp"
#include "isa/encode.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using isa::Assembler;
using isa::Reg;

cpu::HostCpu::RunResult run_program(System& sys, Assembler& a) {
  sys.load_program(a.finish());
  return sys.run_unchecked();
}

/// Runs a fragment that leaves its result in a0 and calls ecall.
std::uint32_t run_for_a0(Assembler& a) {
  System sys(SystemConfig::paper(4));
  sys.load_program(a.finish());
  auto res = sys.run_unchecked();
  EXPECT_EQ(res.reason, cpu::HaltReason::kEcall);
  return res.exit_code;
}

TEST(CpuTest, AddiAndExit) {
  Assembler a;
  a.li(Reg::kA0, 41);
  a.addi(Reg::kA0, Reg::kA0, 1);
  a.ecall();
  EXPECT_EQ(run_for_a0(a), 42u);
}

TEST(CpuTest, LuiAddiLargeConstants) {
  for (std::int32_t v : {0x12345678, -1, -2048, 2047, 0x7FFFFFFF,
                         static_cast<std::int32_t>(0x80000000), 0x800, -2049}) {
    Assembler a;
    a.li(Reg::kA0, v);
    a.ecall();
    EXPECT_EQ(run_for_a0(a), static_cast<std::uint32_t>(v)) << v;
  }
}

TEST(CpuTest, ArithmeticOps) {
  struct Case {
    void (Assembler::*op)(Reg, Reg, Reg);
    std::int32_t a, b, want;
  };
  const Case cases[] = {
      {&Assembler::add, 5, 7, 12},
      {&Assembler::sub, 5, 7, -2},
      {&Assembler::xor_, 0b1100, 0b1010, 0b0110},
      {&Assembler::or_, 0b1100, 0b1010, 0b1110},
      {&Assembler::and_, 0b1100, 0b1010, 0b1000},
      {&Assembler::sll, 1, 5, 32},
      {&Assembler::srl, -8, 1, 0x7FFFFFFC},
      {&Assembler::sra, -8, 1, -4},
      {&Assembler::slt, -1, 1, 1},
      {&Assembler::sltu, -1, 1, 0},
      {&Assembler::mul, -3, 7, -21},
      {&Assembler::div, -7, 2, -3},
      {&Assembler::rem, -7, 2, -1},
      {&Assembler::divu, -7, 2, 0x7FFFFFFC},
      {&Assembler::remu, 7, 3, 1},
  };
  for (const auto& c : cases) {
    Assembler a;
    a.li(Reg::kA1, c.a);
    a.li(Reg::kA2, c.b);
    (a.*c.op)(Reg::kA0, Reg::kA1, Reg::kA2);
    a.ecall();
    EXPECT_EQ(run_for_a0(a), static_cast<std::uint32_t>(c.want));
  }
}

TEST(CpuTest, MulhVariants) {
  Assembler a;
  a.li(Reg::kA1, -2);
  a.li(Reg::kA2, 3);
  a.mulh(Reg::kA0, Reg::kA1, Reg::kA2);
  a.ecall();
  EXPECT_EQ(run_for_a0(a), 0xFFFFFFFFu);  // (-6) >> 32

  Assembler b;
  b.li(Reg::kA1, -1);
  b.li(Reg::kA2, -1);
  b.mulhu(Reg::kA0, Reg::kA1, Reg::kA2);
  b.ecall();
  EXPECT_EQ(run_for_a0(b), 0xFFFFFFFEu);

  Assembler c;
  c.li(Reg::kA1, -1);
  c.li(Reg::kA2, 2);
  c.mulhsu(Reg::kA0, Reg::kA1, Reg::kA2);
  c.ecall();
  EXPECT_EQ(run_for_a0(c), 0xFFFFFFFFu);
}

TEST(CpuTest, DivisionSpecialCases) {
  Assembler a;
  a.li(Reg::kA1, 17);
  a.li(Reg::kA2, 0);
  a.div(Reg::kA0, Reg::kA1, Reg::kA2);
  a.ecall();
  EXPECT_EQ(run_for_a0(a), 0xFFFFFFFFu);  // div by zero => -1

  Assembler b;
  b.li(Reg::kA1, static_cast<std::int32_t>(0x80000000));
  b.li(Reg::kA2, -1);
  b.div(Reg::kA0, Reg::kA1, Reg::kA2);
  b.ecall();
  EXPECT_EQ(run_for_a0(b), 0x80000000u);  // signed overflow case

  Assembler c;
  c.li(Reg::kA1, 17);
  c.li(Reg::kA2, 0);
  c.rem(Reg::kA0, Reg::kA1, Reg::kA2);
  c.ecall();
  EXPECT_EQ(run_for_a0(c), 17u);  // rem by zero => dividend
}

TEST(CpuTest, BranchesAndLoop) {
  Assembler a;
  a.li(Reg::kA0, 0);
  a.li(Reg::kA1, 10);
  auto loop = a.here();
  a.add(Reg::kA0, Reg::kA0, Reg::kA1);
  a.addi(Reg::kA1, Reg::kA1, -1);
  a.bnez(Reg::kA1, loop);
  a.ecall();
  EXPECT_EQ(run_for_a0(a), 55u);
}

TEST(CpuTest, BranchConditions) {
  struct Case {
    void (Assembler::*br)(Reg, Reg, Assembler::Label);
    std::int32_t x, y;
    bool taken;
  };
  const Case cases[] = {
      {&Assembler::beq, 3, 3, true},   {&Assembler::beq, 3, 4, false},
      {&Assembler::bne, 3, 4, true},   {&Assembler::bne, 3, 3, false},
      {&Assembler::blt, -1, 0, true},  {&Assembler::blt, 0, -1, false},
      {&Assembler::bge, 0, -1, true},  {&Assembler::bge, -1, 0, false},
      {&Assembler::bltu, 1, -1, true}, {&Assembler::bltu, -1, 1, false},
      {&Assembler::bgeu, -1, 1, true}, {&Assembler::bgeu, 1, -1, false},
  };
  for (const auto& c : cases) {
    Assembler a;
    a.li(Reg::kA1, c.x);
    a.li(Reg::kA2, c.y);
    auto t = a.label();
    (a.*c.br)(Reg::kA1, Reg::kA2, t);
    a.li(Reg::kA0, 0);
    a.ecall();
    a.bind(t);
    a.li(Reg::kA0, 1);
    a.ecall();
    EXPECT_EQ(run_for_a0(a), c.taken ? 1u : 0u);
  }
}

TEST(CpuTest, JalLinksAndJalrReturns) {
  Assembler a;
  auto func = a.label();
  a.li(Reg::kA0, 1);
  a.call(func);
  a.addi(Reg::kA0, Reg::kA0, 100);
  a.ecall();
  a.bind(func);
  a.addi(Reg::kA0, Reg::kA0, 10);
  a.ret();
  EXPECT_EQ(run_for_a0(a), 111u);
}

TEST(CpuTest, LoadStoreAllWidths) {
  System sys(SystemConfig::paper(4));
  const Addr base = sys.data_base() + 0x100;
  Assembler a;
  a.li(Reg::kT0, static_cast<std::int32_t>(base));
  a.li(Reg::kT1, -2);
  a.sw(Reg::kT1, Reg::kT0, 0);
  a.li(Reg::kT1, 0x1234);
  a.sh(Reg::kT1, Reg::kT0, 4);
  a.li(Reg::kT1, 0x80);
  a.sb(Reg::kT1, Reg::kT0, 6);
  a.lw(Reg::kA0, Reg::kT0, 0);
  a.lhu(Reg::kA1, Reg::kT0, 4);
  a.lb(Reg::kA2, Reg::kT0, 6);  // sign-extends 0x80
  a.add(Reg::kA0, Reg::kA0, Reg::kA1);
  a.add(Reg::kA0, Reg::kA0, Reg::kA2);
  a.ecall();
  auto res = run_program(sys, a);
  ASSERT_EQ(res.reason, cpu::HaltReason::kEcall);
  EXPECT_EQ(res.exit_code, static_cast<std::uint32_t>(-2 + 0x1234 - 128));
}

TEST(CpuTest, MisalignedLoadCrossingWordBoundary) {
  System sys(SystemConfig::paper(4));
  const Addr base = sys.data_base() + 0x200;
  const std::uint8_t bytes[8] = {0x11, 0x22, 0x33, 0x44, 0x55, 0, 0, 0};
  sys.write_bytes(base, bytes);
  Assembler a;
  a.li(Reg::kT0, static_cast<std::int32_t>(base));
  a.lw(Reg::kA0, Reg::kT0, 1);  // crosses the 32-bit boundary
  a.ecall();
  auto res = run_program(sys, a);
  ASSERT_EQ(res.reason, cpu::HaltReason::kEcall);
  EXPECT_EQ(res.exit_code, 0x55443322u);
}

TEST(CpuTest, IllegalInstructionHalts) {
  System sys(SystemConfig::paper(4));
  sys.load_program({0xFFFFFFFFu});
  EXPECT_EQ(sys.run_unchecked().reason,
            cpu::HaltReason::kIllegalInstruction);
  sys.load_program({0xFFFFFFFFu});
  EXPECT_THROW(sys.run(), Error);
}

TEST(CpuTest, XcvpulpIllegalOnPlainCv32e40x) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.host_cpu = HostCpuKind::kCv32e40x;
  System sys(cfg);
  Assembler a;
  a.pv_add_b(Reg::kA0, Reg::kA1, Reg::kA2);
  a.ecall();
  sys.load_program(a.finish());
  EXPECT_EQ(sys.run_unchecked().reason,
            cpu::HaltReason::kIllegalInstruction);
}

TEST(CpuTest, BusFaultOnUnmappedAccess) {
  System sys(SystemConfig::paper(4));
  Assembler a;
  a.li(Reg::kT0, 0x7000'0000);
  a.lw(Reg::kA0, Reg::kT0, 0);
  a.ecall();
  sys.load_program(a.finish());
  EXPECT_EQ(sys.run_unchecked().reason, cpu::HaltReason::kBusFault);
}

TEST(CpuTest, TopOfAddressSpaceAccessIsBusFault) {
  // addr + bytes wraps to 0 at the top of the 32-bit space: the region
  // checks must not route these accesses into the LLC.
  for (const std::int32_t addr : {-4, -2}) {  // 0xFFFFFFFC, 0xFFFFFFFE
    for (const bool store : {false, true}) {
      System sys(SystemConfig::paper(4));
      Assembler a;
      a.li(Reg::kT0, addr);  // one addi
      if (store) {
        a.sw(Reg::kA0, Reg::kT0, 0);
      } else {
        a.lw(Reg::kA0, Reg::kT0, 0);
      }
      a.ecall();
      sys.load_program(a.finish());
      const auto res = sys.run_unchecked();
      EXPECT_EQ(res.reason, cpu::HaltReason::kBusFault)
          << std::hex << addr << (store ? " store" : " load");
      EXPECT_EQ(res.pc, sys.config().mem.imem_base + 4);
    }
  }
}

TEST(CpuTest, McycleAndMinstretCsrs) {
  Assembler a;
  a.nop();
  a.nop();
  a.csrr(Reg::kA0, isa::kCsrMinstret);
  a.ecall();
  EXPECT_EQ(run_for_a0(a), 3u);

  Assembler b;
  b.csrr(Reg::kA1, isa::kCsrMcycle);
  b.nop();
  b.nop();
  b.csrr(Reg::kA2, isa::kCsrMcycle);
  b.sub(Reg::kA0, Reg::kA2, Reg::kA1);
  b.ecall();
  EXPECT_GE(run_for_a0(b), 2u);
}

TEST(CpuTest, EbreakHalts) {
  System sys(SystemConfig::paper(4));
  Assembler a;
  a.ebreak();
  sys.load_program(a.finish());
  EXPECT_EQ(sys.run_unchecked().reason, cpu::HaltReason::kEbreak);
}

TEST(CpuTest, TimingAluIsOneCyclePerInstruction) {
  System sys(SystemConfig::paper(4));
  Assembler a;
  for (int i = 0; i < 100; ++i) a.addi(Reg::kA0, Reg::kA0, 1);
  a.ecall();
  auto res = run_program(sys, a);
  EXPECT_EQ(res.cycles, 101u);  // 100 alu + ecall
}

TEST(CpuTest, TakenBranchCostsConfiguredPenalty) {
  SystemConfig cfg = SystemConfig::paper(4);
  System sys(cfg);
  Assembler a;
  a.li(Reg::kA1, 100);
  auto loop = a.here();
  a.addi(Reg::kA1, Reg::kA1, -1);
  a.bnez(Reg::kA1, loop);
  a.ecall();
  auto res = run_program(sys, a);
  EXPECT_EQ(res.cycles, 1u + 100u + 99u * cfg.cpu.branch_taken +
                            cfg.cpu.branch_not_taken + 1u);
}

TEST(CpuTest, CacheHitAndMissCounted) {
  System sys(SystemConfig::paper(4));
  const Addr base = sys.data_base();
  Assembler a;
  a.li(Reg::kT0, static_cast<std::int32_t>(base));
  a.lw(Reg::kA0, Reg::kT0, 0);  // miss: refill from external memory
  a.lw(Reg::kA1, Reg::kT0, 4);  // hit: single cycle
  a.ecall();
  auto res = run_program(sys, a);
  ASSERT_EQ(res.reason, cpu::HaltReason::kEcall);
  EXPECT_EQ(sys.llc().stats().misses, 1u);
  EXPECT_EQ(sys.llc().stats().hits, 1u);
}

TEST(CpuTest, DeterministicCycleCounts) {
  auto once = [] {
    System sys(SystemConfig::paper(4));
    Assembler a;
    a.li(Reg::kT0, static_cast<std::int32_t>(sys.data_base()));
    a.li(Reg::kA1, 2000);
    auto loop = a.here();
    a.sw(Reg::kA1, Reg::kT0, 0);
    a.lw(Reg::kA2, Reg::kT0, 0);
    a.addi(Reg::kT0, Reg::kT0, 36);
    a.addi(Reg::kA1, Reg::kA1, -1);
    a.bnez(Reg::kA1, loop);
    a.ecall();
    sys.load_program(a.finish());
    return sys.run_unchecked().cycles;
  };
  EXPECT_EQ(once(), once());
}

// ---------------------------------------------------------------------
// Chunked-run equivalence: running a program as run(k) slices must be
// indistinguishable from one run(), for every exit the ISS can take.
// ---------------------------------------------------------------------

/// Everything a finished run exposes.
struct RunObservation {
  cpu::HostCpu::RunResult result;
  Addr pc = 0;
  Cycle time = 0;
  std::array<std::uint32_t, 32> regs{};
  std::vector<std::uint64_t> stats;
  std::vector<std::uint8_t> csr_log;
  std::uint64_t llc_hits = 0, llc_misses = 0;
};

constexpr Addr kCsrLogOffset = 0x100;
constexpr std::uint32_t kCsrLogBytes = 4096;

RunObservation observe(System& sys, const cpu::HostCpu::RunResult& result) {
  RunObservation o;
  o.result = result;
  o.pc = sys.host().pc();
  o.time = sys.host().time();
  for (unsigned r = 0; r < 32; ++r) o.regs[r] = sys.host().reg(r);
  const sim::CpuStats& s = sys.host().stats();
  o.stats = {s.instructions,    s.compressed_instructions,
             s.loads,           s.stores,
             s.branches,        s.taken_branches,
             s.mul_div,         s.simd_ops,
             s.hw_loop_iterations, s.offloads,
             s.cycles,          s.stall_cycles};
  o.csr_log.resize(kCsrLogBytes);
  sys.read_bytes(sys.data_base() + kCsrLogOffset, o.csr_log);
  o.llc_hits = sys.llc().stats().hits;
  o.llc_misses = sys.llc().stats().misses;
  return o;
}

/// Runs the loaded program to its halt as run(slice) calls; every call
/// must retire at most `slice` instructions.
cpu::HostCpu::RunResult run_sliced(System& sys, std::uint64_t slice) {
  cpu::HostCpu::RunResult r;
  std::uint64_t before = 0;
  do {
    r = sys.host().run(slice);
    if (r.instructions - before > slice) {
      ADD_FAILURE() << "run(" << slice << ") retired "
                    << r.instructions - before << " instructions";
      break;
    }
    before = r.instructions;
  } while (r.reason == cpu::HaltReason::kMaxInstructions);
  return r;
}

RunObservation run_in_slices(const SystemConfig& cfg,
                             const std::vector<std::uint32_t>& words,
                             std::uint64_t slice,
                             std::optional<Addr> base = std::nullopt) {
  System sys(cfg);
  sys.load_program(words, base.value_or(cfg.mem.imem_base));
  const auto result = run_sliced(sys, slice);
  return observe(sys, result);
}

/// A loop that logs mcycle/minstret every iteration, mixes hits and misses
/// (36-byte stride), multiplies and runs two compressed c.nop, then ends
/// in `tail` (ecall, a bus fault or an illegal instruction).
std::vector<std::uint32_t> logging_loop(Addr data_base,
                                        void (*tail)(Assembler&)) {
  Assembler a;
  a.li(Reg::kT0, static_cast<std::int32_t>(data_base + kCsrLogOffset));
  a.li(Reg::kT1, static_cast<std::int32_t>(data_base + 0x4000));
  a.li(Reg::kA1, 200);
  auto loop = a.here();
  a.csrr(Reg::kT2, isa::kCsrMcycle);
  a.sw(Reg::kT2, Reg::kT0, 0);
  a.csrr(Reg::kT2, isa::kCsrMinstret);
  a.sw(Reg::kT2, Reg::kT0, 4);
  a.addi(Reg::kT0, Reg::kT0, 8);
  a.lw(Reg::kA2, Reg::kT1, 0);
  a.add(Reg::kA0, Reg::kA0, Reg::kA2);
  a.addi(Reg::kA0, Reg::kA0, 3);
  a.sw(Reg::kA0, Reg::kT1, 0);
  a.addi(Reg::kT1, Reg::kT1, 36);
  a.mul(Reg::kA3, Reg::kA0, Reg::kA1);
  a.word(0x00010001u);  // c.nop; c.nop
  a.addi(Reg::kA1, Reg::kA1, -1);
  a.bnez(Reg::kA1, loop);
  tail(a);
  return a.finish();
}

void expect_chunked_equivalence(const SystemConfig& cfg,
                                const std::vector<std::uint32_t>& words,
                                cpu::HaltReason want) {
  const RunObservation whole = run_in_slices(cfg, words, ~0ull);
  ASSERT_EQ(whole.result.reason, want);
  EXPECT_EQ(whole.stats[0], whole.result.instructions);  // == instret
  EXPECT_EQ(whole.time, whole.result.cycles);
  EXPECT_EQ(whole.pc, whole.result.pc);
  for (std::uint64_t k : {1ull, 3ull, 64ull}) {
    const RunObservation got = run_in_slices(cfg, words, k);
    EXPECT_EQ(got.result.reason, whole.result.reason) << "slice " << k;
    EXPECT_EQ(got.result.cycles, whole.result.cycles) << "slice " << k;
    EXPECT_EQ(got.result.instructions, whole.result.instructions)
        << "slice " << k;
    EXPECT_EQ(got.result.exit_code, whole.result.exit_code) << "slice " << k;
    EXPECT_EQ(got.result.pc, whole.result.pc) << "slice " << k;
    EXPECT_EQ(got.pc, whole.pc) << "slice " << k;
    EXPECT_EQ(got.time, whole.time) << "slice " << k;
    EXPECT_EQ(got.regs, whole.regs) << "slice " << k;
    EXPECT_EQ(got.stats, whole.stats) << "slice " << k;
    EXPECT_EQ(got.csr_log, whole.csr_log) << "slice " << k;
    EXPECT_EQ(got.llc_hits, whole.llc_hits) << "slice " << k;
    EXPECT_EQ(got.llc_misses, whole.llc_misses) << "slice " << k;
  }
}

TEST(CpuChunkedRunTest, EcallExit) {
  const SystemConfig cfg = SystemConfig::paper(4);
  expect_chunked_equivalence(
      cfg, logging_loop(cfg.mem.data_base, [](Assembler& a) { a.ecall(); }),
      cpu::HaltReason::kEcall);
}

TEST(CpuChunkedRunTest, BusFaultExit) {
  const SystemConfig cfg = SystemConfig::paper(4);
  expect_chunked_equivalence(cfg,
                             logging_loop(cfg.mem.data_base,
                                          [](Assembler& a) {
                                            a.li(Reg::kT3, 0x7000'0000);
                                            a.lw(Reg::kA0, Reg::kT3, 0);
                                            a.ecall();
                                          }),
                             cpu::HaltReason::kBusFault);
}

TEST(CpuChunkedRunTest, IllegalInstructionExit) {
  const SystemConfig cfg = SystemConfig::paper(4);
  expect_chunked_equivalence(cfg,
                             logging_loop(cfg.mem.data_base,
                                          [](Assembler& a) {
                                            a.word(0xFFFFFFFFu);
                                            a.ecall();
                                          }),
                             cpu::HaltReason::kIllegalInstruction);
}

TEST(CpuChunkedRunTest, XcvpulpHardwareLoopsAcrossSlices) {
  // Slices end inside nested hardware loops and between a post-increment
  // load and its use.
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.host_cpu = HostCpuKind::kCv32e40px;
  Assembler a;
  a.li(Reg::kT2, static_cast<std::int32_t>(cfg.mem.data_base + 0x4000));
  a.li(Reg::kT0, 9);
  a.li(Reg::kT1, 7);
  auto outer_end = a.label();
  a.cv_setup(1, Reg::kT0, outer_end);
  {
    auto inner_end = a.label();
    a.cv_setup(0, Reg::kT1, inner_end);
    a.cv_lw_post(Reg::kA2, Reg::kT2, 20);
    a.pv_sdotsp_b(Reg::kA0, Reg::kA2, Reg::kT2);
    a.bind(inner_end);
    a.csrr(Reg::kA3, isa::kCsrMinstret);
    a.add(Reg::kA0, Reg::kA0, Reg::kA3);
  }
  a.bind(outer_end);
  a.ecall();
  expect_chunked_equivalence(cfg, a.finish(), cpu::HaltReason::kEcall);
}


// ---------------------------------------------------------------------
// Randomized differential test of translated blocks: a seeded random
// RV32IMC or XCVPULP program run whole must be indistinguishable from the
// same program run as run(1) slices, which cut every block to one
// instruction. The programs branch forward into the middle of blocks the
// fall-through path already translated, end hardware loops mid-block, read
// the counters mid-run and end in an ecall, an illegal word mid-block or a
// run off the end of imem.
// ---------------------------------------------------------------------

// RVC encodings the generator emits, always in pairs so every 32-bit
// instruction stays word aligned. `rd` and `rs2` are x1..x31; `rdp` and
// `rs1p` are x8..x15 (the 3-bit compressed register field).
std::uint16_t c_addi(unsigned rd, std::int32_t imm) {
  return static_cast<std::uint16_t>(0x0001u | ((imm >> 5) & 1u) << 12 |
                                    rd << 7 | (imm & 0x1Fu) << 2);
}
std::uint16_t c_li(unsigned rd, std::int32_t imm) {
  return static_cast<std::uint16_t>(0x4001u | ((imm >> 5) & 1u) << 12 |
                                    rd << 7 | (imm & 0x1Fu) << 2);
}
std::uint16_t c_slli(unsigned rd, unsigned shamt) {
  return static_cast<std::uint16_t>(0x0002u | rd << 7 | (shamt & 0x1Fu) << 2);
}
std::uint16_t c_mv(unsigned rd, unsigned rs2) {
  return static_cast<std::uint16_t>(0x8002u | rd << 7 | rs2 << 2);
}
std::uint16_t c_add(unsigned rd, unsigned rs2) {
  return static_cast<std::uint16_t>(0x9002u | rd << 7 | rs2 << 2);
}
std::uint16_t c_lw_sw(bool store, unsigned rdp, unsigned rs1p,
                      std::uint32_t off) {
  return static_cast<std::uint16_t>(
      (store ? 0xC000u : 0x4000u) | ((off >> 3) & 7u) << 10 |
      (rs1p - 8) << 7 | ((off >> 2) & 1u) << 6 | ((off >> 6) & 1u) << 5 |
      (rdp - 8) << 2);
}

enum class Tail { kEcall, kIllegalMidBlock, kOffEndOfImem };

/// Seeded random program over a fixed register convention: s0 is the
/// data pointer, s1 the main-loop counter, s2/s3 hardware-loop counts and
/// s4 the post-increment pointer; everything else is scratch.
class RandomProgram {
 public:
  RandomProgram(std::uint64_t seed, bool pulp, bool memory, Addr data_base)
      : rng_(seed), pulp_(pulp), memory_(memory), data_base_(data_base) {}

  std::vector<std::uint32_t> build(Tail tail) {
    a_.li(Reg::kS0, static_cast<std::int32_t>(data_base_ + 0x1000));
    a_.li(Reg::kS4, static_cast<std::int32_t>(data_base_ + 0x3000));
    for (Reg r : kScratch) {
      a_.li(r, static_cast<std::int32_t>(rng_.next()));
    }
    a_.li(Reg::kS1, static_cast<std::int32_t>(pick(4, 12)));
    auto loop = a_.here();
    const unsigned n = pick(20, 60);
    for (unsigned i = 0; i < n; ++i) any_item();
    a_.addi(Reg::kS1, Reg::kS1, -1);
    a_.bnez(Reg::kS1, loop);
    switch (tail) {
      case Tail::kEcall:
        a_.ecall();
        break;
      case Tail::kIllegalMidBlock:
        for (unsigned i = pick(1, 6); i > 0; --i) straight_item();
        a_.word(rng_.next() % 2 ? 0xFFFF'FFFFu : 0u);
        a_.ecall();
        break;
      case Tail::kOffEndOfImem:
        for (unsigned i = pick(1, 6); i > 0; --i) straight_item();
        break;
    }
    return a_.finish();
  }

 private:
  static constexpr Reg kScratch[] = {
      Reg::kT0, Reg::kT1, Reg::kT2, Reg::kA0, Reg::kA1, Reg::kA2,
      Reg::kA3, Reg::kA4, Reg::kA5, Reg::kA6, Reg::kA7, Reg::kT3,
      Reg::kT4, Reg::kT5, Reg::kT6};

  unsigned pick(unsigned lo, unsigned hi) {
    return static_cast<unsigned>(rng_.uniform(lo, hi));
  }
  Reg dst() { return kScratch[pick(0, std::size(kScratch) - 1)]; }
  Reg src() {
    const unsigned i = pick(0, std::size(kScratch) + 1);
    return i < std::size(kScratch) ? kScratch[i]
                                   : (i == std::size(kScratch) ? Reg::kZero
                                                               : Reg::kS0);
  }
  /// A compressed-register scratch destination (a0..a5 = x10..x15).
  unsigned dstp() { return pick(10, 15); }
  std::int32_t data_off() { return static_cast<std::int32_t>(pick(0, 2044)); }

  void half(std::uint16_t h) {
    const isa::DecodedInst d = isa::decode(h);
    ASSERT_TRUE(d.op != isa::Op::kIllegal && d.size == 2) << std::hex << h;
    if (pending_half_) {
      a_.word(*pending_half_ | std::uint32_t{h} << 16);
      pending_half_.reset();
    } else {
      pending_half_ = h;
    }
  }

  void compressed_pair() {
    for (int i = 0; i < 2; ++i) {
      const unsigned rd = reg_index(dst());
      const std::int32_t imm = static_cast<std::int32_t>(pick(0, 63)) - 32;
      switch (pick(0, memory_ ? 6 : 4)) {
        case 0: half(c_addi(rd, imm == 0 ? 1 : imm)); break;
        case 1: half(c_li(rd, imm)); break;
        case 2: half(c_slli(rd, pick(1, 31))); break;
        case 3: half(c_mv(rd, reg_index(dst()))); break;
        case 4: half(c_add(rd, reg_index(dst()))); break;
        case 5: half(c_lw_sw(false, dstp(), 8, 4 * pick(0, 31))); break;
        default: half(c_lw_sw(true, dstp(), 8, 4 * pick(0, 31))); break;
      }
    }
  }

  /// One instruction (or a compressed pair) that falls through.
  void straight_item() {
    const Reg rd = dst(), r1 = src(), r2 = src();
    const auto imm = static_cast<std::int32_t>(pick(0, 4095)) - 2048;
    switch (pick(0, pulp_ ? 9 : 7)) {
      case 0:
        switch (pick(0, 9)) {
          case 0: a_.add(rd, r1, r2); break;
          case 1: a_.sub(rd, r1, r2); break;
          case 2: a_.sll(rd, r1, r2); break;
          case 3: a_.slt(rd, r1, r2); break;
          case 4: a_.sltu(rd, r1, r2); break;
          case 5: a_.xor_(rd, r1, r2); break;
          case 6: a_.srl(rd, r1, r2); break;
          case 7: a_.sra(rd, r1, r2); break;
          case 8: a_.or_(rd, r1, r2); break;
          default: a_.and_(rd, r1, r2); break;
        }
        break;
      case 1:
        switch (pick(0, 10)) {
          case 0: a_.addi(rd, r1, imm); break;
          case 1: a_.slti(rd, r1, imm); break;
          case 2: a_.sltiu(rd, r1, imm); break;
          case 3: a_.xori(rd, r1, imm); break;
          case 4: a_.ori(rd, r1, imm); break;
          case 5: a_.andi(rd, r1, imm); break;
          case 6: a_.slli(rd, r1, pick(0, 31)); break;
          case 7: a_.srli(rd, r1, pick(0, 31)); break;
          case 8: a_.srai(rd, r1, pick(0, 31)); break;
          case 9: a_.lui(rd, static_cast<std::int32_t>(pick(0, 0xFFFFF))); break;
          default: a_.auipc(rd, static_cast<std::int32_t>(pick(0, 0xFFFFF))); break;
        }
        break;
      case 2:
        switch (pick(0, 7)) {
          case 0: a_.mul(rd, r1, r2); break;
          case 1: a_.mulh(rd, r1, r2); break;
          case 2: a_.mulhsu(rd, r1, r2); break;
          case 3: a_.mulhu(rd, r1, r2); break;
          case 4: a_.div(rd, r1, r2); break;
          case 5: a_.divu(rd, r1, r2); break;
          case 6: a_.rem(rd, r1, r2); break;
          default: a_.remu(rd, r1, r2); break;
        }
        break;
      case 3:
        if (!memory_) return straight_item();
        switch (pick(0, 4)) {  // any alignment: some split in two
          case 0: a_.lb(rd, Reg::kS0, data_off()); break;
          case 1: a_.lh(rd, Reg::kS0, data_off()); break;
          case 2: a_.lw(rd, Reg::kS0, data_off()); break;
          case 3: a_.lbu(rd, Reg::kS0, data_off()); break;
          default: a_.lhu(rd, Reg::kS0, data_off()); break;
        }
        break;
      case 4:
        if (!memory_) return straight_item();
        switch (pick(0, 2)) {
          case 0: a_.sb(r1, Reg::kS0, data_off()); break;
          case 1: a_.sh(r1, Reg::kS0, data_off()); break;
          default: a_.sw(r1, Reg::kS0, data_off()); break;
        }
        break;
      case 5: {
        static constexpr unsigned kCsrs[] = {isa::kCsrMcycle, isa::kCsrMcycleH,
                                             isa::kCsrMinstret,
                                             isa::kCsrMinstretH,
                                             isa::kCsrMhartid};
        a_.csrr(rd, kCsrs[pick(0, 4)]);
        break;
      }
      case 6:
      case 7:
        compressed_pair();
        break;
      case 8:
        switch (pick(0, 9)) {
          case 0: a_.pv_add_b(rd, r1, r2); break;
          case 1: a_.pv_sub_h(rd, r1, r2); break;
          case 2: a_.pv_max_b(rd, r1, r2); break;
          case 3: a_.pv_min_h(rd, r1, r2); break;
          case 4: a_.pv_sdotsp_b(rd, r1, r2); break;
          case 5: a_.pv_sdotsp_h(rd, r1, r2); break;
          case 6: a_.pv_sdotup_b(rd, r1, r2); break;
          case 7: a_.cv_mac(rd, r1, r2); break;
          case 8: a_.cv_clip(rd, r1, pick(1, 31)); break;
          default: a_.cv_abs(rd, r1); break;
        }
        break;
      default: {
        if (!memory_) return straight_item();
        const auto inc = static_cast<std::int32_t>(pick(1, 8));
        switch (pick(0, 3)) {
          case 0: a_.cv_lb_post(rd, Reg::kS4, inc); break;
          case 1: a_.cv_lhu_post(rd, Reg::kS4, inc); break;
          case 2: a_.cv_lw_post(rd, Reg::kS4, inc); break;
          default: a_.cv_sw_post(r1, Reg::kS4, inc); break;
        }
        break;
      }
    }
  }

  /// A hardware loop whose end falls mid-block (the code after the end
  /// label continues straight), optionally nested in an outer one.
  void hardware_loop() {
    const bool nested = pick(0, 1) == 1;
    Assembler::Label outer_end = a_.label();
    if (nested) {
      a_.li(Reg::kS3, static_cast<std::int32_t>(pick(1, 3)));
      a_.cv_setup(1, Reg::kS3, outer_end);
      for (unsigned i = pick(0, 2); i > 0; --i) straight_item();
    }
    Assembler::Label inner_end = a_.label();
    a_.li(Reg::kS2, static_cast<std::int32_t>(pick(1, 4)));
    a_.cv_setup(0, Reg::kS2, inner_end);
    for (unsigned i = pick(1, 5); i > 0; --i) straight_item();
    a_.bind(inner_end);
    straight_item();
    if (nested) a_.bind(outer_end);
  }

  void any_item() {
    switch (pick(0, pulp_ ? 9 : 8)) {
      case 0: {  // forward branch into the middle of the fall-through block
        Assembler::Label over = a_.label();
        const Reg r1 = src(), r2 = src();
        switch (pick(0, 5)) {
          case 0: a_.beq(r1, r2, over); break;
          case 1: a_.bne(r1, r2, over); break;
          case 2: a_.blt(r1, r2, over); break;
          case 3: a_.bge(r1, r2, over); break;
          case 4: a_.bltu(r1, r2, over); break;
          default: a_.bgeu(r1, r2, over); break;
        }
        for (unsigned i = pick(1, 5); i > 0; --i) straight_item();
        a_.bind(over);
        break;
      }
      case 1: {  // forward jump (sometimes linking)
        Assembler::Label over = a_.label();
        a_.jal(pick(0, 1) ? dst() : Reg::kZero, over);
        for (unsigned i = pick(1, 3); i > 0; --i) straight_item();
        a_.bind(over);
        break;
      }
      case 9:
        hardware_loop();
        break;
      default:
        straight_item();
        break;
    }
  }

  workloads::Rng rng_;
  bool pulp_;
  bool memory_;
  Addr data_base_;
  Assembler a_;
  std::optional<std::uint16_t> pending_half_;
};

SystemConfig config_for(bool pulp) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.host_cpu = pulp ? HostCpuKind::kCv32e40px : HostCpuKind::kCv32e40x;
  return cfg;
}

void expect_same_run(const RunObservation& got, const RunObservation& want,
                     const std::string& what) {
  EXPECT_EQ(got.result.reason, want.result.reason) << what;
  EXPECT_EQ(got.result.cycles, want.result.cycles) << what;
  EXPECT_EQ(got.result.instructions, want.result.instructions) << what;
  EXPECT_EQ(got.result.pc, want.result.pc) << what;
  EXPECT_EQ(got.pc, want.pc) << what;
  EXPECT_EQ(got.time, want.time) << what;
  EXPECT_EQ(got.regs, want.regs) << what;
  EXPECT_EQ(got.stats, want.stats) << what;
  EXPECT_EQ(got.llc_hits, want.llc_hits) << what;
  EXPECT_EQ(got.llc_misses, want.llc_misses) << what;
}

TEST(CpuBlockDifferentialTest, RandomProgramsMatchOneInstructionSlices) {
  std::uint64_t compressed = 0, hw_loop_trips = 0;
  for (const bool pulp : {false, true}) {
    const SystemConfig cfg = config_for(pulp);
    for (const Tail tail :
         {Tail::kEcall, Tail::kIllegalMidBlock, Tail::kOffEndOfImem}) {
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const auto words =
            RandomProgram(seed * 7919 + static_cast<unsigned>(tail), pulp,
                          /*memory=*/true, cfg.mem.data_base)
                .build(tail);
        const Addr imem_end = cfg.mem.imem_base + cfg.mem.imem_bytes;
        const Addr base = tail == Tail::kOffEndOfImem
                              ? imem_end - static_cast<Addr>(4 * words.size())
                              : cfg.mem.imem_base;
        const std::string what = std::string(pulp ? "xcvpulp" : "rv32imc") +
                                 " tail " +
                                 std::to_string(static_cast<int>(tail)) +
                                 " seed " + std::to_string(seed);
        const RunObservation whole = run_in_slices(cfg, words, ~0ull, base);
        const RunObservation step = run_in_slices(cfg, words, 1, base);
        switch (tail) {
          case Tail::kEcall:
            EXPECT_EQ(whole.result.reason, cpu::HaltReason::kEcall) << what;
            break;
          case Tail::kIllegalMidBlock:
            EXPECT_EQ(whole.result.reason,
                      cpu::HaltReason::kIllegalInstruction) << what;
            break;
          case Tail::kOffEndOfImem:
            EXPECT_EQ(whole.result.reason, cpu::HaltReason::kBusFault) << what;
            EXPECT_EQ(whole.result.pc, imem_end) << what;
            break;
        }
        compressed += whole.stats[1];
        hw_loop_trips += whole.stats[8];
        expect_same_run(step, whole, what);
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GT(compressed, 0u);
  EXPECT_GT(hw_loop_trips, 0u);
}

TEST(CpuBlockDifferentialTest, ReloadAtSameBaseRetranslates) {
  // imem is immutable between load_program calls, so a reload is the one
  // invalidation point: the second program must not run the first one's
  // blocks. The first program touches no data, so the LLC stays cold and
  // the reused System must match a fresh one exactly.
  for (const bool pulp : {false, true}) {
    const SystemConfig cfg = config_for(pulp);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const auto first = RandomProgram(seed, pulp, /*memory=*/false,
                                       cfg.mem.data_base)
                             .build(Tail::kEcall);
      const auto second = RandomProgram(seed + 500, pulp, /*memory=*/true,
                                        cfg.mem.data_base)
                              .build(Tail::kEcall);
      System reused(cfg);
      reused.load_program(first);
      ASSERT_EQ(reused.run_unchecked().reason, cpu::HaltReason::kEcall);
      reused.load_program(second);
      const RunObservation got = observe(reused, run_sliced(reused, ~0ull));
      const RunObservation want = run_in_slices(cfg, second, ~0ull);
      expect_same_run(got, want, "seed " + std::to_string(seed));
      if (HasFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------
// The port contract: System's hit window lets the CPU complete LLC hits
// without calling System::read/write, so a DataPort that wraps a System
// (perfbench's replay port, this test's counting port) sets no window and
// must still see every access a plain run makes, with identical results.
// ---------------------------------------------------------------------

class CountingPort final : public cpu::DataPort {
 public:
  explicit CountingPort(System& sys) : sys_(&sys) {}
  Cycle read(Addr addr, unsigned bytes, void* out, Cycle now) override {
    ++accesses;
    return sys_->read(addr, bytes, out, now);
  }
  Cycle write(Addr addr, unsigned bytes, const void* in, Cycle now) override {
    ++accesses;
    return sys_->write(addr, bytes, in, now);
  }
  std::uint64_t accesses = 0;

 private:
  System* sys_;
};

/// Schedules `n` host-path hazards on `sys`, one every 40 cycles: a held
/// controller lock, an active AT destination over the program's data, an
/// armed C-RT host hook (disarmed again later) or a bare pending event.
void schedule_hazards(System& sys, std::uint64_t seed, unsigned n) {
  workloads::Rng rng(seed);
  const Addr data = sys.data_base() + 0x1000;
  const std::uint32_t line = sys.config().llc.line_bytes();
  for (unsigned i = 1; i <= n; ++i) {
    const Cycle t = 40ull * i;
    const auto roll = rng.uniform(0, 3);
    const auto off = static_cast<Addr>(rng.uniform(0, 2047)) & ~(line - 1);
    sys.events().schedule(t, [&sys, t, roll, off, data, line] {
      switch (roll) {
        case 0:
          sys.llc().lock_until(t + 25);
          break;
        case 1: {
          if (sys.llc().at().any_active()) break;
          const unsigned e = sys.llc().at().register_range(
              data + off, data + off + 2 * line, /*is_dest=*/true, 1);
          sys.llc().at().set_free_time(e, t + 30);
          sys.events().schedule(t + 30,
                                [&sys, e] { sys.llc().at().release(e); });
          break;
        }
        case 2:
          sys.llc().set_host_hook_armed(true);
          sys.events().schedule(t + 20,
                                [&sys] { sys.llc().set_host_hook_armed(false); });
          break;
        default:
          break;  // the pending event alone keeps the hit path off
      }
    });
  }
}

/// Runs `words` once plainly (System's own CPU, hit window on) and once on
/// a twin System through a CountingPort; everything must agree and the
/// port must have seen every access the plain run's LLC served.
void expect_port_contract(bool pulp, std::uint64_t seed, unsigned hazards) {
  const SystemConfig cfg = config_for(pulp);
  const auto words = RandomProgram(seed, pulp, /*memory=*/true,
                                   cfg.mem.data_base)
                         .build(Tail::kEcall);
  const std::string what = std::string(pulp ? "xcvpulp" : "rv32imc") +
                           " seed " + std::to_string(seed);
  System plain(cfg);
  schedule_hazards(plain, seed, hazards);
  plain.load_program(words);
  const RunObservation want = observe(plain, plain.run_unchecked());
  ASSERT_EQ(want.result.reason, cpu::HaltReason::kEcall) << what;

  System twin(cfg);
  schedule_hazards(twin, seed, hazards);
  mem::InstructionMemory imem(cfg.mem.imem_base, cfg.mem.imem_bytes);
  imem.load(cfg.mem.imem_base, words);
  CountingPort port(twin);
  cpu::HostCpu cpu(cfg, imem, port, &twin.bridge());
  cpu.reset(cfg.mem.imem_base, twin.stack_top());
  const auto res = cpu.run();
  twin.drain();

  EXPECT_EQ(res.reason, want.result.reason) << what;
  EXPECT_EQ(res.cycles, want.result.cycles) << what;
  EXPECT_EQ(res.instructions, want.result.instructions) << what;
  EXPECT_EQ(res.pc, want.result.pc) << what;
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(cpu.reg(r), want.regs[r]) << what << " x" << r;
  }
  const sim::CacheStats& ps = plain.llc().stats();
  const sim::CacheStats& ts = twin.llc().stats();
  EXPECT_EQ(port.accesses, ps.reads + ps.writes) << what;
  EXPECT_GT(ps.hits, 0u) << what;
  EXPECT_EQ(ts.hits, ps.hits) << what;
  EXPECT_EQ(ts.misses, ps.misses) << what;
  EXPECT_EQ(ts.reads, ps.reads) << what;
  EXPECT_EQ(ts.writes, ps.writes) << what;
  EXPECT_EQ(ts.stalls.lock, ps.stalls.lock) << what;
  EXPECT_EQ(ts.stalls.at_dest, ps.stalls.at_dest) << what;
  std::vector<std::uint8_t> pd(4096), td(4096);
  plain.read_bytes(plain.data_base() + 0x1000, pd);
  twin.read_bytes(twin.data_base() + 0x1000, td);
  EXPECT_EQ(pd, td) << what;
}

TEST(CpuPortContractTest, CountingPortSeesEveryAccess) {
  for (const bool pulp : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      expect_port_contract(pulp, seed, /*hazards=*/0);
    }
  }
}

TEST(CpuPortContractTest, HitWindowMatchesPortUnderHazards) {
  // Hazards fill the first part of each run; the hit window must decline
  // while any of them holds and take hits again once the queue is empty.
  for (const bool pulp : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      expect_port_contract(pulp, seed, /*hazards=*/60);
    }
  }
}

}  // namespace
}  // namespace arcane
