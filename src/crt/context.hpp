// CrtContext — the C-RT back end (paper §IV-B), one per System. Both
// offload front ends run on it: crt::Runtime (the paper's in-order bridge
// queue) and sched::Scheduler (multi-tenant jobs). Each front end keeps
// only its dispatch policy; everything a kernel needs around its execution
// is here, once:
//
//  * the platform (config, event queue, LLC, DMA engine, VPUs) and the
//    kernel library;
//  * the single management eCPU: its busy-until horizon, the phase
//    accounting and the kernel uid allocator. Every executor and both
//    front ends charge it, so descriptor programming serializes on one
//    core even when kernels overlap across instances;
//  * address-table registration and the retirement step that undoes it;
//  * the resident set — destinations kept in VPU registers after their
//    kernel finished, for destination forwarding or with an elided
//    write-back (see DESIGN.md on write-back elision);
//  * the stall ledger of every retired kernel.
#ifndef ARCANE_CRT_CONTEXT_HPP_
#define ARCANE_CRT_CONTEXT_HPP_

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "crt/kernel_library.hpp"
#include "crt/kernel_op.hpp"
#include "dma/dma.hpp"
#include "llc/llc.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "vpu/vector_unit.hpp"

namespace arcane::crt {

/// Everything a front end needs to retire a completed kernel: the decoded
/// op (AT entries, uid), its plan (destination range, chain/tile geometry
/// for resident bookkeeping), the VPU each chain ran on, whether the
/// write-back was elided, and the kernel's cycle accounting.
struct FinishedKernel {
  KernelOp op;
  Plan plan;
  std::vector<unsigned> vpus;  // VPU per chain
  bool elided_writeback = false;
  /// Exclusive stall-bucket decomposition of the kernel's in-executor
  /// lifetime. For a single-chain kernel the segments tile [launch event,
  /// finish] exactly; multi-chain kernels accumulate per-chain segments
  /// (chains overlap in wall-clock, so their sum exceeds the interval).
  sim::OpStallBreakdown breakdown{};
};

struct CrtContext {
  CrtContext(const SystemConfig& cfg, sim::EventQueue& events, llc::Llc& llc,
             dma::DmaEngine& dma, std::vector<vpu::VectorUnit>& vpus,
             KernelLibrary library);

  CrtContext(const CrtContext&) = delete;
  CrtContext& operator=(const CrtContext&) = delete;

  const SystemConfig* cfg;
  CrtCostModel costs;
  sim::EventQueue* events;
  llc::Llc* llc;
  dma::DmaEngine* dma;
  std::vector<vpu::VectorUnit>* vpus;
  KernelLibrary library;
  telemetry::SpanTracer* spans = nullptr;

  Cycle ecpu_free = 0;
  sim::CrtPhaseStats phases{};
  std::uint64_t next_uid = 1;
  /// Stall-bucket cycles of every kernel retired by either front end
  /// (docs/OBSERVABILITY.md "Cycle accounting").
  sim::OpStallBreakdown stall_totals{};

  /// Kernels each front end holds: host-program kernels from decode
  /// (queued) to retirement, scheduler ops from dispatch to retirement.
  unsigned host_kernels = 0;
  unsigned sched_kernels = 0;
  enum class FrontEnd { kHost, kScheduler };
  /// The front ends share neither hazard tracking nor line claims, so a
  /// launch by `launching` while the other front end holds kernels is
  /// rejected, not arbitrated.
  void check_one_offload_path(FrontEnd launching) const;

  /// Charge eCPU work that starts at `start` (never before the horizon the
  /// caller last saw): `preamble` decode/preamble cycles, then
  /// `scheduling` cycles. Returns the cycle the work completes.
  Cycle charge_ecpu(Cycle start, Cycle preamble, Cycle scheduling);

  /// eCPU cycles of the CT source/destination status-marking pass
  /// (§III-A3): one `preamble_per_line` charge per cache line covered by
  /// the valid source operands and the plan's destination range.
  Cycle marking_cost(const KernelOp& op, const Plan& plan) const;
  /// Register the plan's destination and any source ranges not covered by
  /// it in the address table (§IV-B1), recording the entry ids in `op`.
  void register_at_ranges(KernelOp& op, const Plan& plan);
  /// Undo a kernel's claims: release its source AT entries, its
  /// destination entry unless `keep_dest_entry` (an elided write-back
  /// still owes memory the data), then its register lines unless
  /// `keep_lines` (they hold a resident copy).
  void retire(const KernelOp& op, bool keep_dest_entry, bool keep_lines);

  // ----------------------------- resident set -----------------------------
  /// A destination kept resident in VPU registers after kernel completion
  /// so a dependent kernel can skip its allocation DMA. With full elision
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

  /// VPU holding a resident (forwardable) copy of one of `op`'s source
  /// operands, or -1 when none does.
  int resident_vpu(const KernelOp& op) const;
  /// Keep a single-tile kernel's destination resident (destination
  /// forwarding, or an elided write-back). Returns true when it did: the
  /// kernel's register lines then stay claimed.
  bool keep_resident(const FinishedKernel& fin);
  /// Fill `out` with a forwardable register-file copy of the rows load `x`
  /// would fetch and return true (a deferred source counts as consumed and
  /// is materialized); false = fetch through the cache as usual. `out` is
  /// the executor's reusable scratch buffer: resized here, capacity kept.
  bool forward_load(const DmaXfer& x, std::vector<std::uint8_t>& out);
  /// Write back every deferred resident overlapping [lo, hi).
  void materialize_range(Addr lo, Addr hi);
  /// Drop (after materializing) residents overlapping [lo, hi), e.g. a
  /// destination about to be superseded.
  void drop_residents(Addr lo, Addr hi);
  /// Drop (after materializing) residents on `vpu`, before lines there are
  /// claimed again.
  void drop_residents_on_vpu(unsigned vpu);

  /// Bind the phase stats as `crt.*` and the stall ledger as
  /// `crt.stall.<bucket>` registry views.
  void register_metrics(telemetry::Registry& reg);

 private:
  std::vector<Resident> residents_;

  template <typename Pred>
  void drop_residents_if(Pred drop);
  /// Host hook, armed on the LLC exactly while `residents_` is non-empty.
  void on_host_access(Addr addr, unsigned len, bool is_write);
  void sync_host_hook();
  /// Write an elided (never materialized) resident back to memory and
  /// release its deferred AT entry.
  void materialize(Resident& r);
};

}  // namespace arcane::crt

#endif  // ARCANE_CRT_CONTEXT_HPP_
