#include "crt/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/log.hpp"

namespace arcane::crt {

using isa::xmnmc::OffloadPayload;

Runtime::Runtime(const SystemConfig& cfg, sim::EventQueue& events,
                 llc::Llc& llc, dma::DmaEngine& dma,
                 std::vector<vpu::VectorUnit>& vpus, KernelLibrary library)
    : cfg_(cfg),
      lib_(std::move(library)),
      map_(cfg.num_matrix_regs),
      exec_(ctx_, *this, 0) {
  ctx_.cfg = &cfg_;
  ctx_.costs = cfg_.crt;
  ctx_.events = &events;
  ctx_.llc = &llc;
  ctx_.dma = &dma;
  ctx_.vpus = &vpus;
  ctx_.llc->on_host_access = [this](Addr addr, unsigned len, bool is_write) {
    on_host_access(addr, len, is_write);
  };
}

// --------------------------- Kernel Decoder ---------------------------

Runtime::DecodeResult Runtime::decode_offload(const OffloadPayload& payload,
                                              Cycle irq_time) {
  Cycle start = std::max(irq_time, ctx_.ecpu_free);
  const Cycle base_cost = ctx_.costs.irq_entry + ctx_.costs.decode_lookup;
  const DecodeResult r = payload.is_xmr()
                             ? decode_xmr(payload, start, base_cost)
                             : decode_kernel(payload, start, base_cost);
  if (ctx_.spans != nullptr) {
    ctx_.spans->span(telemetry::kTrackEcpu,
                     payload.is_xmr() ? "decode.xmr" : "decode.kernel", start,
                     r.complete_at, /*tenant=*/-1, /*job=*/-1,
                     /*arg=*/payload.func5);
  }
  return r;
}

void Runtime::register_metrics(telemetry::Registry& reg) {
  auto bind = [&](const char* name, const std::uint64_t& field) {
    reg.bind(name, [&field] { return field; });
  };
  bind("crt.preamble_cycles", ctx_.phases.preamble);
  bind("crt.allocation_cycles", ctx_.phases.allocation);
  bind("crt.compute_cycles", ctx_.phases.compute);
  bind("crt.writeback_cycles", ctx_.phases.writeback);
  bind("crt.scheduling_cycles", ctx_.phases.scheduling);
  bind("crt.kernels_executed", ctx_.phases.kernels_executed);
  bind("crt.xmr_executed", ctx_.phases.xmr_executed);
  bind("crt.dma_descriptors", ctx_.phases.dma_descriptors);
  bind("crt.renames", ctx_.phases.renames);
  bind("crt.writebacks_elided", ctx_.phases.writebacks_elided);
  bind("crt.full_elisions", ctx_.phases.full_elisions);
  bind("crt.ecpu_busy_cycles", ctx_.phases.ecpu_busy);
  // Stall-bucket totals of the legacy single-kernel offload path
  // (docs/OBSERVABILITY.md "Cycle accounting").
  for (unsigned i = 0; i < sim::kNumStallBuckets; ++i) {
    const auto b = static_cast<sim::StallBucket>(i);
    reg.bind(std::string("crt.stall.") + sim::stall_bucket_name(b),
             [this, i] { return stall_totals_.cycles[i]; });
  }
}

Runtime::DecodeResult Runtime::decode_xmr(const OffloadPayload& p, Cycle start,
                                          Cycle cost) {
  const auto f = isa::xmnmc::unpack_xmr(p);
  cost += ctx_.costs.xmr_preamble;
  const Cycle done = start + cost;
  ctx_.ecpu_free = done;
  ctx_.phases.preamble += cost;
  ctx_.phases.ecpu_busy += cost;

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
  if (referenced && map_.get(f.md).valid) ++ctx_.phases.renames;

  map_.bind(f.md, f.addr, MatShape{f.rows, f.cols, f.stride}, p.et);
  ++ctx_.phases.xmr_executed;
  return {true, done, {}};
}

Runtime::DecodeResult Runtime::decode_kernel(const OffloadPayload& p,
                                             Cycle start, Cycle cost) {
  const KernelInfo* info = lib_.find(p.func5);
  if (info == nullptr) {
    const Cycle done = start + cost;
    ctx_.ecpu_free = done;
    ctx_.phases.preamble += cost;
    ctx_.phases.ecpu_busy += cost;
    return {false, done, "unknown kernel id"};
  }

  KernelOp op;
  op.uid = ctx_.next_uid++;
  op.func5 = p.func5;
  op.et = p.et;
  op.f = isa::xmnmc::unpack_xmk(p);

  auto resolve = [&](std::uint16_t idx, Operand& out) -> bool {
    if (!map_.in_range(idx) || !map_.get(idx).valid) return false;
    const MatrixBinding& b = map_.get(idx);
    out = Operand{b.addr, b.shape, true};
    return true;
  };

  cost += ctx_.costs.kernel_preamble;
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
    plan = info->planner(op, cfg_);
    if (!plan.ok()) why = plan.error;
  }
  if (!why.empty()) {
    const Cycle done = start + cost;
    ctx_.ecpu_free = done;
    ctx_.phases.preamble += cost;
    ctx_.phases.ecpu_busy += cost;
    return {false, done, why};
  }

  // CT source/destination status marking scales with the operand footprint
  // (one pass over the covered cache-line addresses, §III-A3).
  cost += preamble_marking_cost(op, plan, cfg_, ctx_.costs);

  // Wait for a slot in the statically allocated kernel queue.
  Cycle t = start;
  while (queue_.size() >= cfg_.kernel_queue_depth) {
    ARCANE_CHECK(!ctx_.events->empty(),
                 "kernel queue full with no pending completions (deadlock)");
    t = std::max(t, ctx_.events->run_one());
  }

  register_at_ranges(op, plan, ctx_.llc->at());

  const Cycle done = t + cost;
  ctx_.ecpu_free = std::max(ctx_.ecpu_free, done);
  ctx_.phases.preamble += cost;
  ctx_.phases.ecpu_busy += cost;

  queue_.emplace_back(std::move(op), std::move(plan));
  if (!exec_.busy()) {
    ctx_.events->schedule(done, [this] { try_start(ctx_.events->now()); },
                          "crt.try_start");
  }
  return {true, done, {}};
}

// --------------------------- Kernel Scheduler ---------------------------

std::vector<unsigned> Runtime::assign_vpus(const KernelOp& op,
                                           unsigned count) {
  const unsigned n = cfg_.llc.num_vpus;
  ARCANE_CHECK(count <= n, "plan has more chains than VPUs");
  std::vector<unsigned> order(n);
  std::iota(order.begin(), order.end(), 0u);

  // Prefer a VPU holding a resident (forwardable) copy of a source operand.
  auto resident_vpu = [&]() -> int {
    for (const Resident& r : residents_) {
      for (const Operand* o : {&op.ms1, &op.ms2, &op.ms3}) {
        if (o->valid && o->addr >= r.lo && o->addr < r.hi) {
          return static_cast<int>(r.vpu);
        }
      }
    }
    return -1;
  }();

  switch (cfg_.vpu_select) {
    case VpuSelectPolicy::kFewestDirty:
      // Paper policy (§IV-B2): prioritise VPUs with the fewest dirty lines.
      std::stable_sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
        return ctx_.llc->dirty_lines_in_vpu(a) < ctx_.llc->dirty_lines_in_vpu(b);
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
  // The converse of the scheduler's dispatch guard: a host-program offload
  // must not launch while scheduler-owned executors have kernels in flight
  // (neither path tracks the other's hazards or line claims).
  ARCANE_CHECK(ctx_.kernels_in_flight == 0,
               "host-program offload while the scheduler has kernels in "
               "flight — drive one offload path at a time");

  auto [op, plan] = std::move(queue_.front());
  queue_.pop_front();

  // A resident copy overlapping this kernel's destination is about to be
  // superseded: materialize any deferred write-back first (the untouched
  // part of the region must stay architecturally correct), then drop the
  // record so no later consumer forwards stale data.
  for (auto it = residents_.begin(); it != residents_.end();) {
    if (plan.dest_lo < it->hi && it->lo < plan.dest_hi) {
      if (it->deferred_at_entry >= 0) materialize(*it);
      ctx_.llc->release_kernel_lines(it->uid);
      it = residents_.erase(it);
    } else {
      ++it;
    }
  }
  sync_host_hook();

  const Cycle sched_start = std::max(t, ctx_.ecpu_free);
  ctx_.ecpu_free = sched_start + ctx_.costs.schedule;
  ctx_.phases.scheduling += ctx_.costs.schedule;
  ctx_.phases.ecpu_busy += ctx_.costs.schedule;

  const auto vpus = assign_vpus(op, static_cast<unsigned>(plan.chains.size()));
  exec_.launch(std::move(op), std::move(plan), vpus, t);
}

// ---------------------- KernelExecutor::Client ----------------------

bool Runtime::forward_load(const DmaXfer& x, std::vector<std::uint8_t>& out) {
  Resident* res = const_cast<Resident*>(find_resident(x));
  if (res == nullptr) return false;
  out.resize(static_cast<std::size_t>(x.rows) * x.row_bytes);
  const std::uint32_t row0 = (x.mem_addr - res->lo) / res->mem_stride;
  for (std::uint32_t r = 0; r < x.rows; ++r) {
    auto src = (*ctx_.vpus)[res->vpu]
                   .vreg(res->first_vreg + row0 + r)
                   .subspan(0, x.row_bytes);
    std::memcpy(out.data() + static_cast<std::size_t>(r) * x.row_bytes,
                src.data(), x.row_bytes);
  }
  // The consumer has taken the data: a deferred (elided) write-back is
  // considered consumed — release the producer's destination AT entry so
  // host traffic to the intermediate no longer blocks.
  if (res->deferred_at_entry >= 0) {
    materialize(*res);
  }
  return true;
}

void Runtime::before_claim(unsigned vpu, Cycle t) {
  drop_residents_on_vpu(vpu, t);
}

void Runtime::materialize_deferred(Addr lo, Addr hi) {
  for (Resident& r : residents_) {
    if (r.deferred_at_entry >= 0 && lo < r.hi && r.lo < hi) materialize(r);
  }
}

bool Runtime::allow_writeback_elision(Addr dest_lo, Addr dest_hi) {
  return cfg_.full_writeback_elision && next_kernel_consumes(dest_lo, dest_hi);
}

void Runtime::on_kernel_finish(KernelExecutor&, FinishedKernel fin, Cycle t) {
  const KernelOp& op = fin.op;
  stall_totals_ += fin.breakdown;

  for (unsigned e : op.src_at_entries) ctx_.llc->at().release(e);
  if (op.dest_at_entry >= 0 && !fin.elided_writeback) {
    ctx_.llc->at().release(static_cast<unsigned>(op.dest_at_entry));
  }

  // Destination forwarding: keep single-tile destinations resident in the
  // VPU register file so a dependent kernel skips its allocation DMA. With
  // an elided write-back the destination AT entry stays active until the
  // consumer takes the data (or the host forces materialization).
  bool kept_resident = false;
  if ((cfg_.enable_writeback_elision || fin.elided_writeback) &&
      fin.plan.chains.size() == 1 && fin.plan.chains[0].tile_count == 1) {
    const Tile tile = fin.plan.chains[0].make_tile(0);
    if (tile.stores.size() == 1 && tile.stores[0].vreg_step == 1 &&
        tile.stores[0].vreg_offset == 0) {
      const DmaXfer& s = tile.stores[0];
      Resident r{
          s.mem_addr,
          s.mem_addr + (s.rows - 1) * s.mem_stride + s.row_bytes,
          fin.vpus[0], s.first_vreg, s.rows, s.row_bytes,
          s.mem_stride, op.uid, -1};
      if (fin.elided_writeback) {
        r.deferred_at_entry = op.dest_at_entry;
        ++ctx_.phases.full_elisions;
      }
      residents_.push_back(r);
      sync_host_hook();
      kept_resident = true;
    }
  }
  ARCANE_ASSERT(kept_resident || !fin.elided_writeback,
                "elided write-back without a resident record");
  if (!kept_resident) ctx_.llc->release_kernel_lines(op.uid);

  last_completion_ = t;
  if (ctx_.spans != nullptr) {
    ctx_.spans->instant(telemetry::track_vpu(fin.vpus[0]), "kernel.done", t,
                        /*tenant=*/-1,
                        /*job=*/static_cast<std::int64_t>(op.uid),
                        /*arg=*/fin.elided_writeback ? 1 : 0);
  }
  try_start(t);
}

// --------------------------- residents ---------------------------

const Runtime::Resident* Runtime::find_resident(const DmaXfer& x) const {
  for (const Resident& r : residents_) {
    if (x.mem_addr < r.lo || x.mem_stride != r.mem_stride) continue;
    if ((x.mem_addr - r.lo) % r.mem_stride != 0) continue;
    const std::uint32_t row0 = (x.mem_addr - r.lo) / r.mem_stride;
    if (row0 + x.rows > r.rows) continue;
    if (x.row_bytes > r.row_bytes) continue;
    if (x.vreg_step != 1) continue;
    return &r;
  }
  return nullptr;
}

void Runtime::drop_residents_on_vpu(unsigned vpu, Cycle) {
  for (auto it = residents_.begin(); it != residents_.end();) {
    if (it->vpu == vpu) {
      if (it->deferred_at_entry >= 0) materialize(*it);
      ctx_.llc->release_kernel_lines(it->uid);
      it = residents_.erase(it);
    } else {
      ++it;
    }
  }
  sync_host_hook();
}

void Runtime::sync_host_hook() {
  ctx_.llc->set_host_hook_armed(!residents_.empty());
}

void Runtime::on_host_access(Addr addr, unsigned len, bool is_write) {
  for (auto it = residents_.begin(); it != residents_.end();) {
    if (addr < it->hi && it->lo < addr + len) {
      if (it->deferred_at_entry >= 0) materialize(*it);
      if (is_write) {
        // The host overwrites the region: the resident copy goes stale.
        ctx_.llc->release_kernel_lines(it->uid);
        it = residents_.erase(it);
        continue;
      }
    }
    ++it;
  }
  sync_host_hook();
}

void Runtime::materialize(Resident& r) {
  ARCANE_ASSERT(r.deferred_at_entry >= 0, "materialize of a written resident");
  // Functional lazy write-back: the data becomes architecturally visible;
  // the transfer itself is modeled as background traffic (no critical-path
  // charge — see DESIGN.md on write-back elision).
  for (std::uint32_t row = 0; row < r.rows; ++row) {
    auto src =
        (*ctx_.vpus)[r.vpu].vreg(r.first_vreg + row).subspan(0, r.row_bytes);
    ctx_.llc->write_range(r.lo + row * r.mem_stride, {src.data(), src.size()});
  }
  ctx_.llc->at().release(static_cast<unsigned>(r.deferred_at_entry));
  r.deferred_at_entry = -1;
}

bool Runtime::next_kernel_consumes(Addr lo, Addr hi) const {
  if (queue_.empty()) return false;
  const auto& [op, plan] = queue_.front();
  if (plan.chains.size() != 1) return false;  // forwarding is per-VPU
  for (const Operand* o : {&op.ms1, &op.ms2, &op.ms3}) {
    if (!o->valid) continue;
    const Addr o_lo = o->addr;
    const Addr o_hi = o->addr + std::max<std::uint32_t>(o->footprint(op.et), 1u);
    if (o_lo == lo && o_hi == hi) return true;
  }
  return false;
}

/// Materialize any deferred residents overlapping [addr, addr+len) — used
/// by the System's coherent backdoor accessors.
void Runtime::materialize_range(Addr addr, std::uint32_t len) {
  for (Resident& r : residents_) {
    if (r.deferred_at_entry >= 0 && addr < r.hi && r.lo < addr + len) {
      materialize(r);
    }
  }
}

}  // namespace arcane::crt
