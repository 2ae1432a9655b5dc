// C-RT — the Cache Runtime executed by the eCPU inside the ARCANE LLC
// (paper §IV-B). Single-threaded, preemptive, producer-consumer around a
// statically allocated kernel queue. Three modules:
//
//  * Kernel Decoder  (decode_offload): runs in the bridge interrupt handler;
//    O(1) kernel-library lookup, operand resolution with hazard-checking
//    renames (operand snapshots), AT registration, preamble cost model.
//  * Kernel Scheduler (try_start): selects VPUs (fewest dirty lines by
//    default) and arbitrates the eCPU, DMA engine and controller lock.
//  * Matrix Allocator (inside crt::KernelExecutor): claims vector-register
//    lines, programs 2D DMA transfers through the cache (hit forwarding),
//    and consolidates results back with fetch-on-write during write-back.
//
// The Runtime is the paper's front end of the C-RT: the in-order kernel
// queue on a single executor — one kernel in flight — plus the policy that
// goes with it: VPU selection and the write-back elision lookahead. The
// back end it shares with sched::Scheduler (eCPU, DMA, LLC, resident set,
// retirement, stall ledger) is crt::CrtContext.
//
// The functional semantics of this runtime are native C++; its *timing* is
// an instruction-budget model (CrtCostModel) — see DESIGN.md substitutions.
#ifndef ARCANE_CRT_RUNTIME_HPP_
#define ARCANE_CRT_RUNTIME_HPP_

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "crt/context.hpp"
#include "crt/executor.hpp"
#include "crt/kernel_op.hpp"
#include "crt/matrix_map.hpp"
#include "isa/xmnmc.hpp"
#include "sim/stats.hpp"

namespace arcane::crt {

class Runtime final : public KernelExecutor::Client {
 public:
  explicit Runtime(CrtContext& ctx);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Kernel Decoder entry point, invoked by the bridge IRQ at `irq_time`.
  /// Runs the software decode + preamble; returns the acceptance decision
  /// and the cycle at which the decode outcome reaches the bridge.
  struct DecodeResult {
    bool accepted = false;
    Cycle complete_at = 0;
    std::string reject_reason;
  };
  DecodeResult decode_offload(const isa::xmnmc::OffloadPayload& payload,
                              Cycle irq_time);

  bool idle() const { return !exec_.busy() && queue_.empty(); }
  Cycle last_completion() const { return last_completion_; }

  const sim::CrtPhaseStats& phases() const { return ctx_->phases; }
  const MatrixMap& matrix_map() const { return map_; }
  unsigned queue_occupancy() const {
    return static_cast<unsigned>(queue_.size());
  }

  // --------------------- KernelExecutor::Client ----------------------
  bool allow_writeback_elision(Addr dest_lo, Addr dest_hi) override;
  void on_kernel_finish(KernelExecutor& ex, FinishedKernel fin,
                        Cycle t) override;

 private:
  DecodeResult decode_xmr(const isa::xmnmc::OffloadPayload& p, Cycle start,
                          Cycle cost);
  DecodeResult decode_kernel(const isa::xmnmc::OffloadPayload& p, Cycle start,
                             Cycle cost);
  void try_start(Cycle t);
  std::vector<unsigned> assign_vpus(const KernelOp& op, unsigned count);

  /// True when the next queued kernel consumes [lo, hi) entirely as one of
  /// its sources and runs as a single forwardable chain.
  bool next_kernel_consumes(Addr lo, Addr hi) const;

  CrtContext* ctx_;
  MatrixMap map_;
  KernelExecutor exec_;

  std::deque<std::pair<KernelOp, Plan>> queue_;
  unsigned rr_next_ = 0;  // round-robin VPU selection state (ablation)
  Cycle last_completion_ = 0;
};

}  // namespace arcane::crt

#endif  // ARCANE_CRT_RUNTIME_HPP_
