#include "crt/runtime.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/log.hpp"

namespace arcane::crt {

using isa::xmnmc::OffloadPayload;

Runtime::Runtime(CrtContext& ctx)
    : ctx_(&ctx), map_(ctx.cfg->num_matrix_regs), exec_(ctx, *this, 0) {}

// --------------------------- Kernel Decoder ---------------------------

Runtime::DecodeResult Runtime::decode_offload(const OffloadPayload& payload,
                                              Cycle irq_time) {
  Cycle start = std::max(irq_time, ctx_->ecpu_free);
  const Cycle base_cost = ctx_->costs.irq_entry + ctx_->costs.decode_lookup;
  const DecodeResult r = payload.is_xmr()
                             ? decode_xmr(payload, start, base_cost)
                             : decode_kernel(payload, start, base_cost);
  if (ctx_->spans != nullptr) {
    ctx_->spans->span(telemetry::kTrackEcpu,
                      payload.is_xmr() ? "decode.xmr" : "decode.kernel", start,
                      r.complete_at, /*tenant=*/-1, /*job=*/-1,
                      /*arg=*/payload.func5);
  }
  return r;
}

Runtime::DecodeResult Runtime::decode_xmr(const OffloadPayload& p, Cycle start,
                                          Cycle cost) {
  const auto f = isa::xmnmc::unpack_xmr(p);
  cost += ctx_->costs.xmr_preamble;
  const Cycle done = ctx_->charge_ecpu(start, cost, 0);

  if (!map_.in_range(f.md)) {
    return {false, done, "xmr: matrix register out of range"};
  }
  if (f.rows == 0 || f.cols == 0 || f.stride < f.cols) {
    return {false, done, "xmr: degenerate shape"};
  }
  // Hazard check: rebinding a register still referenced by pending kernels
  // is resolved by renaming — operand snapshots make the rebind safe, we
  // only account for the rename the real C-RT would perform.
  bool referenced = false;
  auto references = [&](const KernelOp& op) {
    return op.f.md == f.md || op.f.ms1 == f.md || op.f.ms2 == f.md ||
           op.f.ms3 == f.md;
  };
  for (const auto& [op, plan] : queue_) referenced |= references(op);
  if (exec_.busy()) referenced |= references(exec_.op());
  if (referenced && map_.get(f.md).valid) ++ctx_->phases.renames;

  map_.bind(f.md, f.addr, MatShape{f.rows, f.cols, f.stride}, p.et);
  ++ctx_->phases.xmr_executed;
  return {true, done, {}};
}

Runtime::DecodeResult Runtime::decode_kernel(const OffloadPayload& p,
                                             Cycle start, Cycle cost) {
  const KernelInfo* info = ctx_->library.find(p.func5);
  if (info == nullptr) {
    return {false, ctx_->charge_ecpu(start, cost, 0), "unknown kernel id"};
  }

  KernelOp op;
  op.uid = ctx_->next_uid++;
  op.func5 = p.func5;
  op.et = p.et;
  op.f = isa::xmnmc::unpack_xmk(p);

  auto resolve = [&](std::uint16_t idx, Operand& out) -> bool {
    if (!map_.in_range(idx) || !map_.get(idx).valid) return false;
    const MatrixBinding& b = map_.get(idx);
    out = Operand{b.addr, b.shape, true};
    return true;
  };

  cost += ctx_->costs.kernel_preamble;
  std::string why;
  if (!resolve(op.f.md, op.md)) why = "destination matrix not reserved";
  if (why.empty() && info->uses_ms1 && !resolve(op.f.ms1, op.ms1))
    why = "ms1 not reserved";
  if (why.empty() && info->uses_ms2 && !resolve(op.f.ms2, op.ms2))
    why = "ms2 not reserved";
  if (why.empty() && info->uses_ms3 && !resolve(op.f.ms3, op.ms3))
    why = "ms3 not reserved";

  Plan plan;
  if (why.empty()) {
    plan = info->planner(op, *ctx_->cfg);
    if (!plan.ok()) why = plan.error;
  }
  if (!why.empty()) return {false, ctx_->charge_ecpu(start, cost, 0), why};

  // CT source/destination status marking scales with the operand footprint
  // (one pass over the covered cache-line addresses, §III-A3).
  cost += ctx_->marking_cost(op, plan);

  // Wait for a slot in the statically allocated kernel queue.
  Cycle t = start;
  while (queue_.size() >= ctx_->cfg->kernel_queue_depth) {
    ARCANE_CHECK(!ctx_->events->empty(),
                 "kernel queue full with no pending completions (deadlock)");
    t = std::max(t, ctx_->events->run_one());
  }

  ctx_->register_at_ranges(op, plan);
  const Cycle done = ctx_->charge_ecpu(t, cost, 0);

  queue_.emplace_back(std::move(op), std::move(plan));
  ++ctx_->host_kernels;
  if (!exec_.busy()) {
    ctx_->events->schedule(done, [this] { try_start(ctx_->events->now()); },
                           "crt.try_start");
  }
  return {true, done, {}};
}

// --------------------------- Kernel Scheduler ---------------------------

std::vector<unsigned> Runtime::assign_vpus(const KernelOp& op,
                                           unsigned count) {
  const unsigned n = ctx_->cfg->llc.num_vpus;
  ARCANE_CHECK(count <= n, "plan has more chains than VPUs");
  std::vector<unsigned> order(n);
  std::iota(order.begin(), order.end(), 0u);

  // Prefer a VPU holding a resident (forwardable) copy of a source operand.
  const int resident_vpu = ctx_->resident_vpu(op);

  switch (ctx_->cfg->vpu_select) {
    case VpuSelectPolicy::kFewestDirty:
      // Paper policy (§IV-B2): prioritise VPUs with the fewest dirty lines.
      std::stable_sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
        return ctx_->llc->dirty_lines_in_vpu(a) <
               ctx_->llc->dirty_lines_in_vpu(b);
      });
      break;
    case VpuSelectPolicy::kRoundRobin:
      std::rotate(order.begin(), order.begin() + (rr_next_ % n), order.end());
      rr_next_ += count;
      break;
    case VpuSelectPolicy::kFixed:
      break;
  }
  if (resident_vpu >= 0) {
    auto it = std::find(order.begin(), order.end(),
                        static_cast<unsigned>(resident_vpu));
    if (it != order.end()) std::rotate(order.begin(), it, it + 1);
  }
  order.resize(count);
  return order;
}

void Runtime::try_start(Cycle t) {
  if (exec_.busy() || queue_.empty()) return;
  ctx_->check_one_offload_path(CrtContext::FrontEnd::kHost);

  auto [op, plan] = std::move(queue_.front());
  queue_.pop_front();

  // A resident copy overlapping this kernel's destination is about to be
  // superseded: materialize any deferred write-back first (the untouched
  // part of the region must stay architecturally correct), then drop the
  // record so no later consumer forwards stale data.
  ctx_->drop_residents(plan.dest_lo, plan.dest_hi);
  ctx_->charge_ecpu(std::max(t, ctx_->ecpu_free), 0, ctx_->costs.schedule);

  const auto vpus = assign_vpus(op, static_cast<unsigned>(plan.chains.size()));
  exec_.launch(std::move(op), std::move(plan), vpus, t);
}

// ---------------------- KernelExecutor::Client ----------------------

bool Runtime::allow_writeback_elision(Addr dest_lo, Addr dest_hi) {
  return ctx_->cfg->full_writeback_elision &&
         next_kernel_consumes(dest_lo, dest_hi);
}

void Runtime::on_kernel_finish(KernelExecutor&, FinishedKernel fin, Cycle t) {
  --ctx_->host_kernels;
  ctx_->stall_totals += fin.breakdown;
  ctx_->retire(fin.op, fin.elided_writeback, ctx_->keep_resident(fin));
  last_completion_ = t;
  if (ctx_->spans != nullptr) {
    ctx_->spans->instant(telemetry::track_vpu(fin.vpus[0]), "kernel.done", t,
                         /*tenant=*/-1,
                         /*job=*/static_cast<std::int64_t>(fin.op.uid),
                         /*arg=*/fin.elided_writeback ? 1 : 0);
  }
  try_start(t);
}

bool Runtime::next_kernel_consumes(Addr lo, Addr hi) const {
  if (queue_.empty()) return false;
  const auto& [op, plan] = queue_.front();
  if (plan.chains.size() != 1) return false;  // forwarding is per-VPU
  for (const Operand* o : {&op.ms1, &op.ms2, &op.ms3}) {
    if (o->valid && o->range(op.et) == std::pair{lo, hi}) return true;
  }
  return false;
}

}  // namespace arcane::crt
