// Host CPU instruction-set simulator with a CV32E40X-style timing model.
//
// Two personalities (paper §V):
//  * CV32E40X  (RV32IMC + Zicsr): scalar baseline and ARCANE host.
//  * CV32E40PX (adds the XCVPULP subset): hardware loops, post-increment
//    memory accesses, scalar DSP and packed-SIMD dot products.
//
// The core is in-order and single-issue; data accesses go through a DataPort
// (the LLC), instruction fetches hit a single-cycle instruction memory, and
// unknown custom-2 instructions are offloaded to a Coprocessor over a
// CV-X-IF-like interface — exactly the integration contract of the paper's
// bridge (§III-B).
//
// Host speed: the interpreter runs translated basic blocks (straight-line
// runs of pre-decoded instructions, see HostCpu) and completes LLC hits
// inside a port's hit window without the virtual DataPort call. Neither
// changes a simulated number.
#ifndef ARCANE_CPU_CPU_HPP_
#define ARCANE_CPU_CPU_HPP_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "isa/decode.hpp"
#include "isa/rv32.hpp"
#include "mem/imem.hpp"
#include "sim/stats.hpp"

namespace arcane::llc {
class Llc;
}

namespace arcane::cpu {

/// Data-side memory port (implemented by the system: LLC + MMIO routing).
class DataPort {
 public:
  virtual ~DataPort() = default;
  /// Perform the access starting at `now`; returns its completion time.
  virtual Cycle read(Addr addr, unsigned bytes, void* out, Cycle now) = 0;
  virtual Cycle write(Addr addr, unsigned bytes, const void* in,
                      Cycle now) = 0;

  /// Inline hit window (non-virtual). A port that sets one promises that
  /// its read/write of a single transaction inside [base, base + bytes)
  /// first tries `llc->try_host_hit` and returns its completion time when
  /// that succeeds; the CPU then makes that call itself and skips the
  /// port. Ports that leave the window empty see every access.
  struct HitWindow {
    llc::Llc* llc = nullptr;
    Addr base = 0;
    std::uint32_t bytes = 0;
  };
  const HitWindow& hit_window() const { return window_; }

 protected:
  void set_hit_window(llc::Llc& llc, Addr base, std::uint32_t bytes) {
    window_ = {&llc, base, bytes};
  }

 private:
  HitWindow window_;
};

/// CV-X-IF-like coprocessor attachment point.
class Coprocessor {
 public:
  virtual ~Coprocessor() = default;
  struct IssueResult {
    bool accepted = false;
    Cycle complete_at = 0;  // when the offloaded instruction retires
  };
  virtual IssueResult offload(const isa::DecodedInst& inst, std::uint32_t rs1,
                              std::uint32_t rs2, std::uint32_t rs3,
                              Cycle now) = 0;
};

enum class HaltReason : std::uint8_t {
  kNone = 0,
  kEcall,            // clean exit; exit code in a0
  kEbreak,
  kIllegalInstruction,
  kMisalignedAccess,
  kBusFault,
  kMaxInstructions,  // run() budget exhausted
};

const char* halt_reason_name(HaltReason r);

class HostCpu {
 public:
  HostCpu(const SystemConfig& cfg, mem::InstructionMemory& imem,
          DataPort& port, Coprocessor* copro = nullptr);

  /// Reset architectural state and start executing at `pc` with stack `sp`.
  void reset(Addr pc, Addr sp);

  struct RunResult {
    HaltReason reason = HaltReason::kNone;
    Cycle cycles = 0;           // total elapsed (== time() at halt)
    std::uint64_t instructions = 0;
    std::uint32_t exit_code = 0;  // a0 at ecall
    Addr pc = 0;                // faulting / final pc
  };
  RunResult run(std::uint64_t max_instructions = ~0ull);

  std::uint32_t reg(unsigned idx) const { return regs_[idx & 31u]; }
  Addr pc() const { return pc_; }
  Cycle time() const { return time_; }

  const sim::CpuStats& stats() const { return stats_; }
  /// Drop every translated block (after loading a new program): imem is
  /// immutable between load_program calls, so this is the only
  /// invalidation. O(1): bumps the generation stamp and empties the arena
  /// instead of rewriting the per-halfword arrays — hot in multi-job
  /// scheduler runs that construct and reload many CPUs.
  void invalidate_decode_cache();

 private:
  bool xcvpulp() const { return cfg_.host_cpu == HostCpuKind::kCv32e40px; }
  /// Translate the block starting at `pc` (inside imem) into the arena and
  /// stamp its index entry; returns that entry.
  std::uint32_t translate(Addr pc);
  /// The port path of one data access (a write sends `value`, a read
  /// returns `data`); ok is false on a bus fault. It and offload() are
  /// out of line so the interpreter loop holds no exception state.
  struct PortResult {
    Cycle done = 0;
    std::uint32_t data = 0;
    bool ok = false;
  };
  PortResult port_access(Addr addr, unsigned bytes, bool is_write,
                         std::uint32_t value, Cycle now);
  /// Offload one xmnmc instruction; nullopt on a bus fault.
  std::optional<Coprocessor::IssueResult> offload(const isa::DecodedInst& d,
                                                  std::uint32_t rs1,
                                                  std::uint32_t rs2,
                                                  std::uint32_t rs3,
                                                  Cycle now);

  SystemConfig cfg_;
  CpuTiming timing_;
  mem::InstructionMemory* imem_;
  DataPort* port_;
  Coprocessor* copro_;

  std::array<std::uint32_t, 32> regs_{};
  Addr pc_ = 0;
  Cycle time_ = 0;
  std::uint64_t instret_ = 0;

  // XCVPULP hardware-loop state (two nesting levels).
  struct HwLoop {
    Addr start = 0, end = 0;
    std::uint32_t count = 0;
  };
  std::array<HwLoop, 2> hwloop_{};

  // Translated blocks. A block is a straight-line run of decoded
  // instructions in arena_ that ends at the first control transfer,
  // system, CSR, cv.setup, xmnmc or illegal instruction, at the end of imem
  // or after kMaxBlockLen instructions. block_index_ maps a start halfword
  // to (arena offset << kBlockLenBits | length); an entry is valid only
  // when its decode_gen_ stamp matches gen_. A jump into the middle of a
  // block translates a new block from there. Invalidation bumps gen_ and
  // empties the arena, so the per-halfword arrays are never rewritten
  // (capacity reused across program loads).
  static constexpr unsigned kMaxBlockLen = 64;
  static constexpr unsigned kBlockLenBits = 7;
  std::vector<isa::DecodedInst> arena_;
  std::vector<std::uint32_t> block_index_;
  std::vector<std::uint32_t> decode_gen_;
  std::uint32_t gen_ = 1;
  sim::CpuStats stats_;
};

}  // namespace arcane::cpu

#endif  // ARCANE_CPU_CPU_HPP_
