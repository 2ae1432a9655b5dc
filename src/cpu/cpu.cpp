#include "cpu/cpu.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <type_traits>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "isa/disasm.hpp"
#include "llc/llc.hpp"

#if defined(__GNUC__)
#define ARCANE_ALWAYS_INLINE __attribute__((always_inline))
#else
#define ARCANE_ALWAYS_INLINE
#endif

namespace arcane::cpu {

using isa::DecodedInst;
using isa::Op;

const char* halt_reason_name(HaltReason r) {
  switch (r) {
    case HaltReason::kNone: return "none";
    case HaltReason::kEcall: return "ecall";
    case HaltReason::kEbreak: return "ebreak";
    case HaltReason::kIllegalInstruction: return "illegal-instruction";
    case HaltReason::kMisalignedAccess: return "misaligned-access";
    case HaltReason::kBusFault: return "bus-fault";
    case HaltReason::kMaxInstructions: return "max-instructions";
  }
  return "?";
}

namespace {

/// Control transfers, system, CSR, cv.setup, xmnmc and illegal
/// instructions end a translated block.
bool ends_block(Op op) {
  switch (isa::op_class(op)) {
    case isa::OpClass::kAlu:
    case isa::OpClass::kMulDiv:
    case isa::OpClass::kLoad:
    case isa::OpClass::kStore:
    case isa::OpClass::kSimd:
      return false;
    default:
      return true;
  }
}

}  // namespace

HostCpu::HostCpu(const SystemConfig& cfg, mem::InstructionMemory& imem,
                 DataPort& port, Coprocessor* copro)
    : cfg_(cfg), timing_(cfg.cpu), imem_(&imem), port_(&port), copro_(copro) {
  invalidate_decode_cache();
}

void HostCpu::invalidate_decode_cache() {
  arena_.clear();
  const std::size_t n = imem_->size() / 2;
  if (block_index_.size() != n) {
    // translate() keeps the arena below 2n + kMaxBlockLen entries; every
    // offset must fit beside the length in an index entry.
    ARCANE_CHECK(
        2 * n + kMaxBlockLen < (std::size_t{1} << (32 - kBlockLenBits)),
        "instruction memory too large for the block index");
    block_index_.resize(n);
    decode_gen_.assign(n, 0);
    gen_ = 1;
    return;
  }
  if (++gen_ == 0) {  // stamp wrapped: reset the slate once per 2^32 loads
    std::fill(decode_gen_.begin(), decode_gen_.end(), 0u);
    gen_ = 1;
  }
}

std::uint32_t HostCpu::translate(Addr pc) {
  // Jumps into the middle of blocks re-translate overlapping tails; a
  // program that keeps doing so starts over rather than growing the arena
  // without bound.
  if (arena_.size() >= 2 * block_index_.size()) invalidate_decode_cache();
  const std::size_t begin = arena_.size();
  const Addr imem_base = imem_->base();
  const std::uint32_t imem_bytes = imem_->size();
  Addr at = pc;
  for (;;) {
    const DecodedInst& d = arena_.emplace_back(isa::decode(imem_->fetch(at)));
    at += d.size;
    if (ends_block(d.op) || arena_.size() - begin == kMaxBlockLen ||
        !in_region(at, 2, imem_base, imem_bytes)) {
      break;
    }
  }
  const std::size_t slot = (pc - imem_base) / 2;
  block_index_[slot] = static_cast<std::uint32_t>(
      begin << kBlockLenBits | (arena_.size() - begin));
  decode_gen_[slot] = gen_;
  return block_index_[slot];
}

void HostCpu::reset(Addr pc, Addr sp) {
  regs_.fill(0);
  regs_[reg_index(isa::Reg::kSp)] = sp;
  pc_ = pc;
  time_ = 0;
  instret_ = 0;
  hwloop_ = {};
  stats_ = {};
}

HostCpu::PortResult HostCpu::port_access(Addr addr, unsigned bytes,
                                         bool is_write, std::uint32_t value,
                                         Cycle now) {
  // Misaligned accesses that cross a 32-bit boundary split into two bus
  // transactions, as on the CV32E40X LSU.
  const unsigned p1 = std::min(bytes, 4u - (addr & 3u));
  std::uint8_t buf[4] = {0, 0, 0, 0};
  std::memcpy(buf, &value, 4);
  PortResult r;
  try {
    if (is_write) {
      r.done = port_->write(addr, p1, buf, now);
      if (p1 < bytes) {
        r.done = port_->write(addr + p1, bytes - p1, buf + p1, r.done);
      }
    } else {
      r.done = port_->read(addr, p1, buf, now);
      if (p1 < bytes) {
        r.done = port_->read(addr + p1, bytes - p1, buf + p1, r.done);
      }
    }
  } catch (const Error&) {
    return r;
  }
  std::memcpy(&r.data, buf, 4);
  r.ok = true;
  return r;
}

std::optional<Coprocessor::IssueResult> HostCpu::offload(
    const DecodedInst& d, std::uint32_t rs1, std::uint32_t rs2,
    std::uint32_t rs3, Cycle now) {
  try {
    return copro_->offload(d, rs1, rs2, rs3, now);
  } catch (const Error&) {
    return std::nullopt;
  }
}

HostCpu::RunResult HostCpu::run(std::uint64_t max_instructions) {
  // The hot loop keeps pc, time and the retire counter in locals (registers)
  // and writes them back to the members at every exit, through halt().
  Addr pc = pc_;
  Cycle time = time_;
  std::uint64_t instret = instret_;
  const std::uint64_t stop = max_instructions > ~instret
                                 ? ~0ull
                                 : instret + max_instructions;
  const bool pulp = xcvpulp();
  // Instruction memory is fixed while the program runs (loads happen
  // between runs); the arena moves only when a block is translated.
  const Addr imem_base = imem_->base();
  const std::uint32_t imem_bytes = imem_->size();
  const std::uint32_t* const block_index = block_index_.data();
  const std::uint32_t* const decoded_gen = decode_gen_.data();
  std::uint32_t gen = gen_;
  const DecodedInst* arena = arena_.data();
  const DataPort::HitWindow window = port_->hit_window();
  auto halt = [&](HaltReason why) {
    pc_ = pc;
    time_ = time;
    instret_ = instret;
    stats_.instructions = instret;
    stats_.cycles = time;
    return RunResult{why, time, instret, regs_[10] /* a0 */, pc};
  };

  auto sext8 = [](std::uint32_t v) { return static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int8_t>(v))); };
  auto sext16 = [](std::uint32_t v) { return static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int16_t>(v))); };

  // Data accesses have a compile-time width, so the inline LLC hit path
  // folds it: a single transaction (one not crossing a 32-bit boundary)
  // inside the port's hit window tries Llc::try_host_hit first, and
  // everything else takes the out-of-line port path. load/store charge the
  // LSU timing and counters and return false on a bus fault. Both are
  // forced inline: an out-of-line copy would pin pc and time in memory.
  using Width1 = std::integral_constant<unsigned, 1>;
  using Width2 = std::integral_constant<unsigned, 2>;
  using Width4 = std::integral_constant<unsigned, 4>;
  auto load = [&](auto width, Addr addr,
                  std::uint32_t& raw) ARCANE_ALWAYS_INLINE {
    constexpr unsigned bytes = decltype(width)::value;
    std::uint32_t v = 0;
    Cycle done;
    if (!((addr & 3u) + bytes <= 4 &&
          in_region(addr, bytes, window.base, window.bytes) &&
          window.llc->try_host_hit(addr, bytes, /*is_write=*/false, &v, time,
                                   done))) {
      const PortResult r = port_access(addr, bytes, /*is_write=*/false, 0,
                                       time);
      if (!r.ok) return false;
      v = r.data;
      done = r.done;
    }
    raw = v;
    const Cycle start = time + timing_.load_base;
    stats_.stall_cycles += (done > start) ? done - start : 0;
    time = std::max(done, start);
    ++stats_.loads;
    return true;
  };
  auto store = [&](auto width, Addr addr,
                   std::uint32_t value) ARCANE_ALWAYS_INLINE {
    constexpr unsigned bytes = decltype(width)::value;
    Cycle done;
    if (!((addr & 3u) + bytes <= 4 &&
          in_region(addr, bytes, window.base, window.bytes) &&
          window.llc->try_host_hit(addr, bytes, /*is_write=*/true, &value,
                                   time, done))) {
      const PortResult r = port_access(addr, bytes, /*is_write=*/true, value,
                                       time);
      if (!r.ok) return false;
      done = r.done;
    }
    const Cycle start = time + timing_.store_base;
    stats_.stall_cycles += (done > start) ? done - start : 0;
    time = std::max(done, start);
    ++stats_.stores;
    return true;
  };

  // Every iteration either halts or retires exactly one instruction. At a
  // block boundary the budget, imem-bounds and generation checks run once
  // and the next block is cut to the remaining budget, so run(k) slices
  // stay exact; pc, time and instret still advance per instruction, so a
  // halt mid-block reports exactly what a one-instruction step would.
  const DecodedInst* inst = nullptr;
  const DecodedInst* block_end = nullptr;
  for (;;) {
    if (inst == block_end) {
      if (instret >= stop) return halt(HaltReason::kMaxInstructions);
      if (!in_region(pc, 2, imem_base, imem_bytes)) {
        return halt(HaltReason::kBusFault);
      }
      const std::size_t slot = (pc - imem_base) / 2;
      std::uint32_t entry = block_index[slot];
      if (decoded_gen[slot] != gen) {
        entry = translate(pc);
        gen = gen_;
        arena = arena_.data();
      }
      inst = arena + (entry >> kBlockLenBits);
      block_end = inst + std::min<std::uint64_t>(
                             entry & ((1u << kBlockLenBits) - 1),
                             stop - instret);
    }
    const DecodedInst& d = *inst;
    if (d.op == Op::kIllegal) return halt(HaltReason::kIllegalInstruction);

    Addr next_pc = pc + d.size;
    const std::uint32_t rs1 = regs_[d.rs1];
    const std::uint32_t rs2 = regs_[d.rs2];
    std::uint32_t rd_val = 0;
    bool write_rd = false;

    ++instret;
    if (d.is_compressed()) ++stats_.compressed_instructions;

    switch (d.op) {
      // ---- ALU ----
      case Op::kLui: rd_val = static_cast<std::uint32_t>(d.imm) << 12; write_rd = true; time += timing_.alu; break;
      case Op::kAuipc: rd_val = pc + (static_cast<std::uint32_t>(d.imm) << 12); write_rd = true; time += timing_.alu; break;
      case Op::kAddi: rd_val = rs1 + static_cast<std::uint32_t>(d.imm); write_rd = true; time += timing_.alu; break;
      case Op::kSlti: rd_val = static_cast<std::int32_t>(rs1) < d.imm ? 1 : 0; write_rd = true; time += timing_.alu; break;
      case Op::kSltiu: rd_val = rs1 < static_cast<std::uint32_t>(d.imm) ? 1 : 0; write_rd = true; time += timing_.alu; break;
      case Op::kXori: rd_val = rs1 ^ static_cast<std::uint32_t>(d.imm); write_rd = true; time += timing_.alu; break;
      case Op::kOri: rd_val = rs1 | static_cast<std::uint32_t>(d.imm); write_rd = true; time += timing_.alu; break;
      case Op::kAndi: rd_val = rs1 & static_cast<std::uint32_t>(d.imm); write_rd = true; time += timing_.alu; break;
      case Op::kSlli: rd_val = rs1 << (d.imm & 31); write_rd = true; time += timing_.alu; break;
      case Op::kSrli: rd_val = rs1 >> (d.imm & 31); write_rd = true; time += timing_.alu; break;
      case Op::kSrai: rd_val = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) >> (d.imm & 31)); write_rd = true; time += timing_.alu; break;
      case Op::kAdd: rd_val = rs1 + rs2; write_rd = true; time += timing_.alu; break;
      case Op::kSub: rd_val = rs1 - rs2; write_rd = true; time += timing_.alu; break;
      case Op::kSll: rd_val = rs1 << (rs2 & 31); write_rd = true; time += timing_.alu; break;
      case Op::kSlt: rd_val = static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2) ? 1 : 0; write_rd = true; time += timing_.alu; break;
      case Op::kSltu: rd_val = rs1 < rs2 ? 1 : 0; write_rd = true; time += timing_.alu; break;
      case Op::kXor: rd_val = rs1 ^ rs2; write_rd = true; time += timing_.alu; break;
      case Op::kSrl: rd_val = rs1 >> (rs2 & 31); write_rd = true; time += timing_.alu; break;
      case Op::kSra: rd_val = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) >> (rs2 & 31)); write_rd = true; time += timing_.alu; break;
      case Op::kOr: rd_val = rs1 | rs2; write_rd = true; time += timing_.alu; break;
      case Op::kAnd: rd_val = rs1 & rs2; write_rd = true; time += timing_.alu; break;
      case Op::kFence: time += timing_.alu; break;

      // ---- jumps & branches ----
      case Op::kJal:
        rd_val = next_pc; write_rd = true;
        next_pc = pc + static_cast<Addr>(d.imm);
        time += timing_.jump;
        break;
      case Op::kJalr:
        rd_val = next_pc; write_rd = true;
        next_pc = (rs1 + static_cast<Addr>(d.imm)) & ~1u;
        time += timing_.jump;
        break;
      case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
      case Op::kBltu: case Op::kBgeu: {
        bool taken = false;
        switch (d.op) {
          case Op::kBeq: taken = rs1 == rs2; break;
          case Op::kBne: taken = rs1 != rs2; break;
          case Op::kBlt: taken = static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2); break;
          case Op::kBge: taken = static_cast<std::int32_t>(rs1) >= static_cast<std::int32_t>(rs2); break;
          case Op::kBltu: taken = rs1 < rs2; break;
          default: taken = rs1 >= rs2; break;
        }
        ++stats_.branches;
        if (taken) {
          ++stats_.taken_branches;
          next_pc = pc + static_cast<Addr>(d.imm);
          time += timing_.branch_taken;
        } else {
          time += timing_.branch_not_taken;
        }
        break;
      }

      // ---- memory ----
      case Op::kLb: if (!load(Width1{}, rs1 + static_cast<Addr>(d.imm), rd_val)) return halt(HaltReason::kBusFault); rd_val = sext8(rd_val); write_rd = true; break;
      case Op::kLbu: if (!load(Width1{}, rs1 + static_cast<Addr>(d.imm), rd_val)) return halt(HaltReason::kBusFault); rd_val &= 0xFFu; write_rd = true; break;
      case Op::kLh: if (!load(Width2{}, rs1 + static_cast<Addr>(d.imm), rd_val)) return halt(HaltReason::kBusFault); rd_val = sext16(rd_val); write_rd = true; break;
      case Op::kLhu: if (!load(Width2{}, rs1 + static_cast<Addr>(d.imm), rd_val)) return halt(HaltReason::kBusFault); rd_val &= 0xFFFFu; write_rd = true; break;
      case Op::kLw: if (!load(Width4{}, rs1 + static_cast<Addr>(d.imm), rd_val)) return halt(HaltReason::kBusFault); write_rd = true; break;
      case Op::kSb: if (!store(Width1{}, rs1 + static_cast<Addr>(d.imm), rs2)) return halt(HaltReason::kBusFault); break;
      case Op::kSh: if (!store(Width2{}, rs1 + static_cast<Addr>(d.imm), rs2)) return halt(HaltReason::kBusFault); break;
      case Op::kSw: if (!store(Width4{}, rs1 + static_cast<Addr>(d.imm), rs2)) return halt(HaltReason::kBusFault); break;

      // ---- M ----
      case Op::kMul: rd_val = rs1 * rs2; write_rd = true; time += timing_.mul; ++stats_.mul_div; break;
      case Op::kMulh: rd_val = static_cast<std::uint32_t>((static_cast<std::int64_t>(static_cast<std::int32_t>(rs1)) * static_cast<std::int64_t>(static_cast<std::int32_t>(rs2))) >> 32); write_rd = true; time += timing_.mul; ++stats_.mul_div; break;
      case Op::kMulhsu: rd_val = static_cast<std::uint32_t>((static_cast<std::int64_t>(static_cast<std::int32_t>(rs1)) * static_cast<std::uint64_t>(rs2)) >> 32); write_rd = true; time += timing_.mul; ++stats_.mul_div; break;
      case Op::kMulhu: rd_val = static_cast<std::uint32_t>((static_cast<std::uint64_t>(rs1) * static_cast<std::uint64_t>(rs2)) >> 32); write_rd = true; time += timing_.mul; ++stats_.mul_div; break;
      case Op::kDiv:
        if (rs2 == 0) rd_val = 0xFFFF'FFFFu;
        else if (rs1 == 0x8000'0000u && rs2 == 0xFFFF'FFFFu) rd_val = 0x8000'0000u;
        else rd_val = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) / static_cast<std::int32_t>(rs2));
        write_rd = true; time += timing_.div; ++stats_.mul_div; break;
      case Op::kDivu:
        rd_val = rs2 == 0 ? 0xFFFF'FFFFu : rs1 / rs2;
        write_rd = true; time += timing_.div; ++stats_.mul_div; break;
      case Op::kRem:
        if (rs2 == 0) rd_val = rs1;
        else if (rs1 == 0x8000'0000u && rs2 == 0xFFFF'FFFFu) rd_val = 0;
        else rd_val = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) % static_cast<std::int32_t>(rs2));
        write_rd = true; time += timing_.div; ++stats_.mul_div; break;
      case Op::kRemu:
        rd_val = rs2 == 0 ? rs1 : rs1 % rs2;
        write_rd = true; time += timing_.div; ++stats_.mul_div; break;

      // ---- Zicsr (reads of the counters; writes are ignored) ----
      case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
      case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci: {
        const auto csr = static_cast<std::uint16_t>(d.imm);
        switch (csr) {
          case isa::kCsrMcycle: rd_val = static_cast<std::uint32_t>(time); break;
          case isa::kCsrMcycleH: rd_val = static_cast<std::uint32_t>(time >> 32); break;
          case isa::kCsrMinstret: rd_val = static_cast<std::uint32_t>(instret); break;
          case isa::kCsrMinstretH: rd_val = static_cast<std::uint32_t>(instret >> 32); break;
          case isa::kCsrMhartid: rd_val = 0; break;
          default: return halt(HaltReason::kIllegalInstruction);
        }
        write_rd = true;
        time += timing_.csr;
        break;
      }

      case Op::kEcall: time += timing_.alu; pc = next_pc; return halt(HaltReason::kEcall);
      case Op::kEbreak: time += timing_.alu; pc = next_pc; return halt(HaltReason::kEbreak);

      // ---- XCVPULP ----
      // Post-increment the pointer after the access. rd == rs1 is
      // architecturally unpredictable; we define rd (the loaded value) to
      // win.
      case Op::kCvLbPost: case Op::kCvLbuPost: case Op::kCvLhPost:
      case Op::kCvLhuPost: case Op::kCvLwPost: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        bool ok;
        switch (d.op) {
          case Op::kCvLbPost: ok = load(Width1{}, rs1, rd_val); rd_val = sext8(rd_val); break;
          case Op::kCvLbuPost: ok = load(Width1{}, rs1, rd_val); rd_val &= 0xFFu; break;
          case Op::kCvLhPost: ok = load(Width2{}, rs1, rd_val); rd_val = sext16(rd_val); break;
          case Op::kCvLhuPost: ok = load(Width2{}, rs1, rd_val); rd_val &= 0xFFFFu; break;
          default: ok = load(Width4{}, rs1, rd_val); break;
        }
        if (!ok) return halt(HaltReason::kBusFault);
        write_rd = true;
        regs_[d.rs1] = rs1 + static_cast<std::uint32_t>(d.imm);
        regs_[0] = 0;
        break;
      }
      case Op::kCvSbPost: case Op::kCvShPost: case Op::kCvSwPost: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        const bool ok = d.op == Op::kCvSbPost   ? store(Width1{}, rs1, rs2)
                        : d.op == Op::kCvShPost ? store(Width2{}, rs1, rs2)
                                                : store(Width4{}, rs1, rs2);
        if (!ok) return halt(HaltReason::kBusFault);
        regs_[d.rs1] = rs1 + static_cast<std::uint32_t>(d.imm);
        regs_[0] = 0;
        break;
      }
      case Op::kCvMac:
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        rd_val = regs_[d.rd] + rs1 * rs2; write_rd = true;
        time += timing_.simd; ++stats_.simd_ops;
        break;
      case Op::kCvMax:
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        rd_val = static_cast<std::int32_t>(rs1) > static_cast<std::int32_t>(rs2) ? rs1 : rs2;
        write_rd = true; time += timing_.simd; ++stats_.simd_ops;
        break;
      case Op::kCvMin:
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        rd_val = static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2) ? rs1 : rs2;
        write_rd = true; time += timing_.simd; ++stats_.simd_ops;
        break;
      case Op::kCvAbs: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        const auto v = static_cast<std::int32_t>(rs1);
        rd_val = static_cast<std::uint32_t>(v < 0 ? -v : v);
        write_rd = true; time += timing_.simd; ++stats_.simd_ops;
        break;
      }
      case Op::kCvClip: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        const unsigned b = d.rs2 & 31u;
        const std::int32_t hi_v = b == 0 ? 0 : (1 << (b - 1)) - 1;
        const std::int32_t lo_v = b == 0 ? -1 : -(1 << (b - 1));
        auto v = static_cast<std::int32_t>(rs1);
        v = v < lo_v ? lo_v : (v > hi_v ? hi_v : v);
        rd_val = static_cast<std::uint32_t>(v);
        write_rd = true; time += timing_.simd; ++stats_.simd_ops;
        break;
      }
      case Op::kCvSetup: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        const unsigned l = d.rd & 1u;
        hwloop_[l].start = pc + 4;
        hwloop_[l].end = pc + 4 + static_cast<Addr>(d.imm);
        hwloop_[l].count = rs1;
        time += timing_.alu;
        break;
      }

      // ---- packed SIMD ----
      case Op::kPvAddB: case Op::kPvSubB: case Op::kPvMaxB: case Op::kPvMinB: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        std::uint32_t out = 0;
        for (unsigned i = 0; i < 4; ++i) {
          const auto a = static_cast<std::int8_t>(rs1 >> (8 * i));
          const auto b = static_cast<std::int8_t>(rs2 >> (8 * i));
          std::int8_t r;
          switch (d.op) {
            case Op::kPvAddB: r = static_cast<std::int8_t>(a + b); break;
            case Op::kPvSubB: r = static_cast<std::int8_t>(a - b); break;
            case Op::kPvMaxB: r = a > b ? a : b; break;
            default: r = a < b ? a : b; break;
          }
          out |= (static_cast<std::uint32_t>(static_cast<std::uint8_t>(r)) << (8 * i));
        }
        rd_val = out; write_rd = true; time += timing_.simd; ++stats_.simd_ops;
        break;
      }
      case Op::kPvAddH: case Op::kPvSubH: case Op::kPvMaxH: case Op::kPvMinH: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        std::uint32_t out = 0;
        for (unsigned i = 0; i < 2; ++i) {
          const auto a = static_cast<std::int16_t>(rs1 >> (16 * i));
          const auto b = static_cast<std::int16_t>(rs2 >> (16 * i));
          std::int16_t r;
          switch (d.op) {
            case Op::kPvAddH: r = static_cast<std::int16_t>(a + b); break;
            case Op::kPvSubH: r = static_cast<std::int16_t>(a - b); break;
            case Op::kPvMaxH: r = a > b ? a : b; break;
            default: r = a < b ? a : b; break;
          }
          out |= (static_cast<std::uint32_t>(static_cast<std::uint16_t>(r)) << (16 * i));
        }
        rd_val = out; write_rd = true; time += timing_.simd; ++stats_.simd_ops;
        break;
      }
      case Op::kPvSdotspB: case Op::kPvSdotupB: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        std::int64_t acc = static_cast<std::int32_t>(regs_[d.rd]);
        for (unsigned i = 0; i < 4; ++i) {
          if (d.op == Op::kPvSdotspB) {
            acc += static_cast<std::int64_t>(static_cast<std::int8_t>(rs1 >> (8 * i))) *
                   static_cast<std::int8_t>(rs2 >> (8 * i));
          } else {
            acc += static_cast<std::int64_t>((rs1 >> (8 * i)) & 0xFFu) *
                   ((rs2 >> (8 * i)) & 0xFFu);
          }
        }
        rd_val = static_cast<std::uint32_t>(acc); write_rd = true;
        time += timing_.simd; ++stats_.simd_ops;
        break;
      }
      case Op::kPvSdotspH: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        std::int64_t acc = static_cast<std::int32_t>(regs_[d.rd]);
        for (unsigned i = 0; i < 2; ++i) {
          acc += static_cast<std::int64_t>(static_cast<std::int16_t>(rs1 >> (16 * i))) *
                 static_cast<std::int16_t>(rs2 >> (16 * i));
        }
        rd_val = static_cast<std::uint32_t>(acc); write_rd = true;
        time += timing_.simd; ++stats_.simd_ops;
        break;
      }

      // ---- xmnmc offload ----
      case Op::kXmnmc: {
        if (copro_ == nullptr) return halt(HaltReason::kIllegalInstruction);
        time += timing_.offload_handshake;
        const std::optional<Coprocessor::IssueResult> r =
            offload(d, rs1, rs2, regs_[d.rs3], time);
        if (!r) return halt(HaltReason::kBusFault);
        if (!r->accepted) return halt(HaltReason::kIllegalInstruction);
        stats_.stall_cycles += (r->complete_at > time) ? r->complete_at - time : 0;
        time = std::max(time, r->complete_at);
        ++stats_.offloads;
        break;
      }

      case Op::kIllegal:
      case Op::kOpCount:
        return halt(HaltReason::kIllegalInstruction);
    }

    // x0 is rewritten to zero after every write: cheaper than a branch.
    if (write_rd) {
      regs_[d.rd] = rd_val;
      regs_[0] = 0;
    }

    // Hardware-loop back-edges (zero overhead). Inner loop (index 0) has
    // priority; a loop fires when the *sequential* next pc reaches its end.
    if (pulp && d.op != Op::kCvSetup) {
      for (unsigned l = 0; l < 2; ++l) {
        HwLoop& hl = hwloop_[l];
        if (hl.count > 1 && next_pc == hl.end && pc + d.size == next_pc) {
          --hl.count;
          next_pc = hl.start;
          ++stats_.hw_loop_iterations;
          break;
        }
        if (hl.count == 1 && next_pc == hl.end && pc + d.size == next_pc) {
          hl.count = 0;  // loop exhausted; fall through
          ++stats_.hw_loop_iterations;
          break;
        }
      }
    }

    // A redirect (taken branch, jump, hardware-loop back-edge) leaves the
    // block; the next iteration finds the target's.
    ++inst;
    if (next_pc != pc + d.size) block_end = inst;
    pc = next_pc;
  }
}

}  // namespace arcane::cpu
