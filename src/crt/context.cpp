#include "crt/context.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

namespace arcane::crt {

CrtContext::CrtContext(const SystemConfig& cfg, sim::EventQueue& events,
                       llc::Llc& llc, dma::DmaEngine& dma,
                       std::vector<vpu::VectorUnit>& vpus,
                       KernelLibrary library)
    : cfg(&cfg),
      costs(cfg.crt),
      events(&events),
      llc(&llc),
      dma(&dma),
      vpus(&vpus),
      library(std::move(library)) {
  llc.on_host_access = [this](Addr addr, unsigned len, bool is_write) {
    on_host_access(addr, len, is_write);
  };
}

void CrtContext::check_one_offload_path(FrontEnd launching) const {
  ARCANE_CHECK((launching == FrontEnd::kHost ? sched_kernels : host_kernels) ==
                   0,
               "host-program offload and scheduler kernels at the same time "
               "— drive one offload path at a time");
}

Cycle CrtContext::charge_ecpu(Cycle start, Cycle preamble, Cycle scheduling) {
  const Cycle done = start + preamble + scheduling;
  ecpu_free = std::max(ecpu_free, done);
  phases.preamble += preamble;
  phases.scheduling += scheduling;
  phases.ecpu_busy += preamble + scheduling;
  return done;
}

Cycle CrtContext::marking_cost(const KernelOp& op, const Plan& plan) const {
  const std::uint32_t line = cfg->llc.line_bytes();
  std::uint64_t lines_marked = 0;
  for (const Operand* o : {&op.ms1, &op.ms2, &op.ms3}) {
    if (!o->valid) continue;
    const auto [lo, hi] = o->range(op.et);
    lines_marked += ceil_div<std::uint32_t>(hi - lo, line);
  }
  lines_marked += ceil_div<std::uint32_t>(
      std::max<std::uint32_t>(plan.dest_hi - plan.dest_lo, 1u), line);
  return lines_marked * costs.preamble_per_line;
}

void CrtContext::register_at_ranges(KernelOp& op, const Plan& plan) {
  // Destination first, then sources not covered by it.
  op.dest_at_entry = static_cast<int>(
      llc->at().register_range(plan.dest_lo, plan.dest_hi, true, op.uid));
  for (const Operand* o : {&op.ms1, &op.ms2, &op.ms3}) {
    if (!o->valid) continue;
    const auto [lo, hi] = o->range(op.et);
    if (lo >= plan.dest_lo && hi <= plan.dest_hi) continue;  // covered
    op.src_at_entries.push_back(
        llc->at().register_range(lo, hi, false, op.uid));
  }
}

void CrtContext::retire(const KernelOp& op, bool keep_dest_entry,
                        bool keep_lines) {
  for (unsigned e : op.src_at_entries) llc->at().release(e);
  if (op.dest_at_entry >= 0 && !keep_dest_entry) {
    llc->at().release(static_cast<unsigned>(op.dest_at_entry));
  }
  if (!keep_lines) llc->release_kernel_lines(op.uid);
}

void CrtContext::register_metrics(telemetry::Registry& reg) {
  auto bind = [&](const std::string& name, const std::uint64_t& field) {
    reg.bind(name, [&field] { return field; });
  };
  bind("crt.preamble_cycles", phases.preamble);
  bind("crt.allocation_cycles", phases.allocation);
  bind("crt.compute_cycles", phases.compute);
  bind("crt.writeback_cycles", phases.writeback);
  bind("crt.scheduling_cycles", phases.scheduling);
  bind("crt.kernels_executed", phases.kernels_executed);
  bind("crt.xmr_executed", phases.xmr_executed);
  bind("crt.dma_descriptors", phases.dma_descriptors);
  bind("crt.renames", phases.renames);
  bind("crt.writebacks_elided", phases.writebacks_elided);
  bind("crt.full_elisions", phases.full_elisions);
  bind("crt.ecpu_busy_cycles", phases.ecpu_busy);
  for (unsigned i = 0; i < sim::kNumStallBuckets; ++i) {
    const auto b = static_cast<sim::StallBucket>(i);
    bind(std::string("crt.stall.") + sim::stall_bucket_name(b),
         stall_totals.cycles[i]);
  }
}

// ----------------------------- resident set -----------------------------

bool CrtContext::keep_resident(const FinishedKernel& fin) {
  // Destination forwarding: keep single-tile destinations resident in the
  // VPU register file so a dependent kernel skips its allocation DMA. With
  // an elided write-back the destination AT entry stays active until the
  // consumer takes the data (or the host forces materialization).
  if ((cfg->enable_writeback_elision || fin.elided_writeback) &&
      fin.plan.chains.size() == 1 && fin.plan.chains[0].tile_count == 1) {
    const Tile tile = fin.plan.chains[0].make_tile(0);
    if (tile.stores.size() == 1 && tile.stores[0].vreg_step == 1 &&
        tile.stores[0].vreg_offset == 0) {
      const DmaXfer& s = tile.stores[0];
      Resident r{s.mem_addr,
                 s.mem_addr + (s.rows - 1) * s.mem_stride + s.row_bytes,
                 fin.vpus[0],
                 s.first_vreg,
                 s.rows,
                 s.row_bytes,
                 s.mem_stride,
                 fin.op.uid,
                 -1};
      if (fin.elided_writeback) {
        r.deferred_at_entry = fin.op.dest_at_entry;
        ++phases.full_elisions;
      }
      residents_.push_back(r);
      sync_host_hook();
      return true;
    }
  }
  ARCANE_ASSERT(!fin.elided_writeback,
                "elided write-back without a resident record");
  return false;
}

int CrtContext::resident_vpu(const KernelOp& op) const {
  for (const Resident& r : residents_) {
    for (const Operand* o : {&op.ms1, &op.ms2, &op.ms3}) {
      if (o->valid && o->addr >= r.lo && o->addr < r.hi) {
        return static_cast<int>(r.vpu);
      }
    }
  }
  return -1;
}

bool CrtContext::forward_load(const DmaXfer& x,
                              std::vector<std::uint8_t>& out) {
  for (Resident& r : residents_) {
    if (x.mem_addr < r.lo || x.mem_stride != r.mem_stride) continue;
    if ((x.mem_addr - r.lo) % r.mem_stride != 0) continue;
    const std::uint32_t row0 = (x.mem_addr - r.lo) / r.mem_stride;
    if (row0 + x.rows > r.rows) continue;
    if (x.row_bytes > r.row_bytes) continue;
    if (x.vreg_step != 1) continue;
    out.resize(static_cast<std::size_t>(x.rows) * x.row_bytes);
    for (std::uint32_t row = 0; row < x.rows; ++row) {
      auto src = (*vpus)[r.vpu]
                     .vreg(r.first_vreg + row0 + row)
                     .subspan(0, x.row_bytes);
      std::memcpy(out.data() + static_cast<std::size_t>(row) * x.row_bytes,
                  src.data(), x.row_bytes);
    }
    // The consumer has taken the data: a deferred (elided) write-back is
    // considered consumed — release the producer's destination AT entry so
    // host traffic to the intermediate no longer blocks.
    if (r.deferred_at_entry >= 0) materialize(r);
    return true;
  }
  return false;
}

void CrtContext::materialize_range(Addr lo, Addr hi) {
  for (Resident& r : residents_) {
    if (r.deferred_at_entry >= 0 && lo < r.hi && r.lo < hi) materialize(r);
  }
}

template <typename Pred>
void CrtContext::drop_residents_if(Pred drop) {
  for (auto it = residents_.begin(); it != residents_.end();) {
    if (drop(*it)) {
      if (it->deferred_at_entry >= 0) materialize(*it);
      llc->release_kernel_lines(it->uid);
      it = residents_.erase(it);
    } else {
      ++it;
    }
  }
  sync_host_hook();
}

void CrtContext::drop_residents(Addr lo, Addr hi) {
  drop_residents_if([&](const Resident& r) { return lo < r.hi && r.lo < hi; });
}

void CrtContext::drop_residents_on_vpu(unsigned vpu) {
  drop_residents_if([&](const Resident& r) { return r.vpu == vpu; });
}

void CrtContext::sync_host_hook() {
  llc->set_host_hook_armed(!residents_.empty());
}

void CrtContext::on_host_access(Addr addr, unsigned len, bool is_write) {
  // A host write makes the resident copy stale; a read only needs the data
  // architecturally visible.
  if (is_write) {
    drop_residents(addr, addr + len);
  } else {
    materialize_range(addr, addr + len);
  }
}

void CrtContext::materialize(Resident& r) {
  ARCANE_ASSERT(r.deferred_at_entry >= 0, "materialize of a written resident");
  // Functional lazy write-back: the data becomes architecturally visible;
  // the transfer itself is modeled as background traffic (no critical-path
  // charge — see DESIGN.md on write-back elision).
  for (std::uint32_t row = 0; row < r.rows; ++row) {
    auto src =
        (*vpus)[r.vpu].vreg(r.first_vreg + row).subspan(0, r.row_bytes);
    llc->write_range(r.lo + row * r.mem_stride, {src.data(), src.size()});
  }
  llc->at().release(static_cast<unsigned>(r.deferred_at_entry));
  r.deferred_at_entry = -1;
}

}  // namespace arcane::crt
