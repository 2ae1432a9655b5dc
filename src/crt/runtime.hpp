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
// The chain/tile walking machinery lives in crt::KernelExecutor (one per
// concurrently executing kernel). The Runtime owns a single executor and
// serializes its kernel queue on it — the paper's one-kernel-in-flight C-RT.
// sched::Scheduler owns one executor per VPU instance instead, sharing this
// Runtime's CrtContext (same eCPU, DMA and LLC arbitration).
//
// The functional semantics of this runtime are native C++; its *timing* is
// an instruction-budget model (CrtCostModel) — see DESIGN.md substitutions.
#ifndef ARCANE_CRT_RUNTIME_HPP_
#define ARCANE_CRT_RUNTIME_HPP_

#include <deque>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "crt/executor.hpp"
#include "crt/kernel_library.hpp"
#include "crt/kernel_op.hpp"
#include "crt/matrix_map.hpp"
#include "dma/dma.hpp"
#include "isa/xmnmc.hpp"
#include "llc/llc.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "vpu/vector_unit.hpp"

namespace arcane::crt {

class Runtime final : public KernelExecutor::Client {
 public:
  Runtime(const SystemConfig& cfg, sim::EventQueue& events, llc::Llc& llc,
          dma::DmaEngine& dma, std::vector<vpu::VectorUnit>& vpus,
          KernelLibrary library);

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
  Cycle ecpu_busy_until() const { return ctx_.ecpu_free; }
  Cycle last_completion() const { return last_completion_; }

  const sim::CrtPhaseStats& phases() const { return ctx_.phases; }
  /// Accumulated stall-bucket cycles of every kernel retired through this
  /// Runtime's own executor (the legacy single-kernel offload path;
  /// scheduler-dispatched kernels accumulate in sched::Scheduler instead).
  const sim::OpStallBreakdown& stall_totals() const { return stall_totals_; }
  const MatrixMap& matrix_map() const { return map_; }
  const KernelLibrary& library() const { return lib_; }
  unsigned queue_occupancy() const {
    return static_cast<unsigned>(queue_.size());
  }

  /// The shared C-RT firmware context (eCPU timeline, phases, uid
  /// allocator). sched::Scheduler executors charge the same eCPU here.
  CrtContext& context() { return ctx_; }

  /// Materialize deferred (elided) write-backs overlapping a range — used
  /// by the System's coherent backdoor accessors.
  void materialize_range(Addr addr, std::uint32_t len);

  /// Invalidate (after materializing) any resident register-file copies on
  /// `vpu` — used by the scheduler before its executors claim lines there.
  void drop_residents_on_vpu(unsigned vpu, Cycle t);

  void set_spans(telemetry::SpanTracer* spans) { ctx_.spans = spans; }
  /// Bind the shared CrtPhaseStats fields as `crt.*` registry views.
  void register_metrics(telemetry::Registry& reg);

  // --------------------- KernelExecutor::Client ----------------------
  bool forward_load(const DmaXfer& x, std::vector<std::uint8_t>& out) override;
  void before_claim(unsigned vpu, Cycle t) override;
  void materialize_deferred(Addr lo, Addr hi) override;
  bool allow_writeback_elision(Addr dest_lo, Addr dest_hi) override;
  void on_kernel_finish(KernelExecutor& ex, FinishedKernel fin,
                        Cycle t) override;

 private:
  /// A destination kept resident in VPU registers after kernel completion
  /// so a dependent kernel can skip its allocation DMA (dest->source
  /// forwarding; see DESIGN.md on write-back elision). With full elision
  /// the write-back itself was skipped: `deferred_at_entry` then holds the
  /// still-active AT entry and the data is materialized to memory lazily.
  struct Resident {
    Addr lo = 0, hi = 0;
    unsigned vpu = 0;
    std::uint8_t first_vreg = 0;
    std::uint32_t rows = 0, row_bytes = 0, mem_stride = 0;
    std::uint64_t uid = 0;
    int deferred_at_entry = -1;  // >= 0: write-back was elided
  };

  DecodeResult decode_xmr(const isa::xmnmc::OffloadPayload& p, Cycle start,
                          Cycle cost);
  DecodeResult decode_kernel(const isa::xmnmc::OffloadPayload& p, Cycle start,
                             Cycle cost);
  void try_start(Cycle t);
  std::vector<unsigned> assign_vpus(const KernelOp& op, unsigned count);

  const Resident* find_resident(const DmaXfer& x) const;
  /// Host hook, armed on the LLC exactly while residents_ is non-empty.
  void on_host_access(Addr addr, unsigned len, bool is_write);
  void sync_host_hook();
  /// Write an elided (never materialized) resident back to memory and
  /// release its deferred AT entry.
  void materialize(Resident& r);
  /// True when the next queued kernel consumes [lo, hi) entirely as one of
  /// its sources and runs as a single forwardable chain.
  bool next_kernel_consumes(Addr lo, Addr hi) const;

  SystemConfig cfg_;
  KernelLibrary lib_;
  MatrixMap map_;

  CrtContext ctx_;
  KernelExecutor exec_;

  std::deque<std::pair<KernelOp, Plan>> queue_;
  std::vector<Resident> residents_;
  unsigned rr_next_ = 0;  // round-robin VPU selection state (ablation)
  Cycle last_completion_ = 0;
  sim::OpStallBreakdown stall_totals_{};
};

}  // namespace arcane::crt

#endif  // ARCANE_CRT_RUNTIME_HPP_
