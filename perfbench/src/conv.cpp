// Conv-layer workloads: fig4's dominant rows, driven through public APIs.
//
//  * scalar-conv — CV32E40X scalar conv, 3x256x256 int8, 7x7, psram;
//  * pulp-conv   — the same layer on CV32E40PX XCVPULP at int8/16/32;
//  * arcane-conv — fig4's 405 ARCANE cases (sizes 16..256, k 3/5/7,
//    int8/16/32, 2/4/8 lanes, 3 backends), a fresh System per case.
//
// Operands use baseline::run_conv_layer's seed mix, so the default seed
// reproduces fig4's inputs and cycle counts.
//
// Traced variants time layers from outside:
//  * CPU cases run a benchmark-owned cpu::HostCpu over a logging DataPort
//    that forwards to System A, and replay every 1 M-record chunk into twin
//    System B in one timed loop (`hostpath.s`). Per-call timers would cost
//    more than the ~30 ns access they time.
//  * ARCANE cases wrap the DataPort, the Coprocessor and System::drain with
//    plain timers: a few calls per case cross those boundaries.
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "baseline/pulp_kernels.hpp"
#include "baseline/scalar_kernels.hpp"
#include "bench.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

namespace perfbench {
namespace {

using arcane::Addr;
using arcane::Cycle;
using arcane::ElemType;
using arcane::MemBackendKind;
using arcane::System;
using arcane::SystemConfig;
using arcane::workloads::Matrix;

enum class Impl { kScalar, kPulp, kArcane };

struct ConvSpec {
  Impl impl;
  std::uint32_t size, k;
  ElemType et;
  unsigned lanes;
  MemBackendKind backend;
};

std::string case_id(const ConvSpec& c) {
  return "size=" + std::to_string(c.size) + ",k=" + std::to_string(c.k) +
         ",dtype=" + arcane::elem_name(c.et) +
         ",lanes=" + std::to_string(c.lanes) +
         ",backend=" + arcane::backend_name(c.backend);
}

std::vector<ConvSpec> cases_for(const std::string& name) {
  std::vector<ConvSpec> out;
  const auto psram = MemBackendKind::kBurstPsram;
  if (name == "scalar-conv") {
    out.push_back({Impl::kScalar, 256, 7, ElemType::kByte, 4, psram});
  } else if (name == "pulp-conv") {
    for (ElemType et : {ElemType::kByte, ElemType::kHalf, ElemType::kWord}) {
      out.push_back({Impl::kPulp, 256, 7, et, 4, psram});
    }
  } else if (name == "arcane-conv") {
    // fig4_speedup's loop order: backend, dtype, filter, size, lanes.
    for (MemBackendKind b : {MemBackendKind::kIdealSram, psram,
                             MemBackendKind::kDramTiming}) {
      for (ElemType et : {ElemType::kByte, ElemType::kHalf, ElemType::kWord}) {
        for (std::uint32_t k : {3u, 5u, 7u}) {
          for (std::uint32_t size : {16u, 32u, 64u, 128u, 256u}) {
            if (size <= k * 2) continue;
            for (unsigned lanes : {2u, 4u, 8u}) {
              out.push_back({Impl::kArcane, size, k, et, lanes, b});
            }
          }
        }
      }
    }
  }
  return out;
}

/// Forwards host data accesses to System A and logs them; every full chunk
/// is replayed into twin System B inside one timed loop, and each replayed
/// completion time and read value must equal the logged one.
class ReplayPort final : public arcane::cpu::DataPort {
 public:
  static constexpr std::size_t kChunk = 1u << 20;

  ReplayPort(System& live, System& twin, Counters& layers)
      : live_(&live), twin_(&twin), layers_(&layers) {
    log_.reserve(kChunk);
  }

  Cycle read(Addr addr, unsigned bytes, void* out, Cycle now) override {
    const Cycle done = live_->read(addr, bytes, out, now);
    Record r{addr, 0, now, done, static_cast<std::uint8_t>(bytes), false};
    std::memcpy(&r.data, out, bytes);
    push(r);
    return done;
  }

  Cycle write(Addr addr, unsigned bytes, const void* in, Cycle now) override {
    const Cycle done = live_->write(addr, bytes, in, now);
    Record r{addr, 0, now, done, static_cast<std::uint8_t>(bytes), true};
    std::memcpy(&r.data, in, bytes);
    push(r);
    return done;
  }

  void flush() {
    if (log_.empty()) return;
    ScopedSpan span("hostpath.replay");
    std::uint64_t mismatches = 0;
    const auto t0 = Clock::now();
    for (const Record& r : log_) {
      std::uint32_t v = r.data;
      Cycle done;
      if (r.is_write) {
        done = twin_->write(r.addr, r.bytes, &v, r.now);
      } else {
        v = 0;
        done = twin_->read(r.addr, r.bytes, &v, r.now);
      }
      mismatches += (done != r.done) | (v != r.data);
    }
    (*layers_)["hostpath.s"] += since(t0);
    (*layers_)["hostpath.accesses"] += static_cast<double>(log_.size());
    (*layers_)["hostpath.replay_mismatches"] += static_cast<double>(mismatches);
    log_.clear();
  }

 private:
  struct Record {
    Addr addr;
    std::uint32_t data;  // written value, or the value A returned
    Cycle now, done;
    std::uint8_t bytes;
    bool is_write;
  };

  void push(const Record& r) {
    log_.push_back(r);
    if (log_.size() == kChunk) flush();
  }

  System* live_;
  System* twin_;
  Counters* layers_;
  std::vector<Record> log_;
};

/// Times every host data access. An access made while kernel events are
/// pending waits on the kernel (`kernel.wait_s`); the rest is host path.
class TimedPort final : public arcane::cpu::DataPort {
 public:
  TimedPort(System& sys, Counters& layers) : sys_(&sys), layers_(&layers) {}

  Cycle read(Addr addr, unsigned bytes, void* out, Cycle now) override {
    return timed([&] { return sys_->read(addr, bytes, out, now); });
  }
  Cycle write(Addr addr, unsigned bytes, const void* in, Cycle now) override {
    return timed([&] { return sys_->write(addr, bytes, in, now); });
  }

 private:
  template <typename F>
  Cycle timed(F&& access) {
    const bool kernel_in_flight = !sys_->events().empty();
    ScopedSpan span(kernel_in_flight ? "port.kernel_wait" : "port.access");
    const auto t0 = Clock::now();
    const Cycle done = access();
    (*layers_)[kernel_in_flight ? "kernel.wait_s" : "hostpath.s"] += since(t0);
    (*layers_)["hostpath.accesses"] += 1;
    return done;
  }

  System* sys_;
  Counters* layers_;
};

/// Times Bridge::offload (the CV-X-IF coprocessor boundary).
class TimedCoprocessor final : public arcane::cpu::Coprocessor {
 public:
  TimedCoprocessor(arcane::cpu::Coprocessor& inner, Counters& layers)
      : inner_(&inner), layers_(&layers) {}

  IssueResult offload(const arcane::isa::DecodedInst& inst, std::uint32_t rs1,
                      std::uint32_t rs2, std::uint32_t rs3,
                      Cycle now) override {
    ScopedSpan span("offload");
    const auto t0 = Clock::now();
    const IssueResult r = inner_->offload(inst, rs1, rs2, rs3, now);
    (*layers_)["offload.s"] += since(t0);
    return r;
  }

 private:
  arcane::cpu::Coprocessor* inner_;
  Counters* layers_;
};

/// Golden outputs, computed once per (inputs, reference model) in a process.
using GoldenCache =
    std::map<std::tuple<std::uint32_t, std::uint32_t, ElemType, bool>,
             std::vector<std::uint8_t>>;

template <typename T>
std::span<std::uint8_t> bytes_of(Matrix<T>& m) {
  return {reinterpret_cast<std::uint8_t*>(m.flat().data()), m.region_bytes()};
}

template <typename T>
CaseResult run_conv(const ConvSpec& c, std::uint64_t seed, bool traced,
                    GoldenCache& golden) {
  namespace bl = arcane::baseline;
  const std::uint32_t h = c.size, w = c.size, k = c.k;
  const std::uint32_t ho = (h - k + 1) / 2, wo = (w - k + 1) / 2;
  const bool arcane_impl = c.impl == Impl::kArcane;

  CaseResult res;
  res.id = case_id(c);
  arcane::workloads::Rng rng(seed * 0x1234567ull + h * 31 + k);
  auto input = Matrix<T>::random(3 * h, w, rng, -8, 7);
  auto filter = Matrix<T>::random(3 * k, k, rng, -4, 3);

  SystemConfig cfg = SystemConfig::paper(c.lanes);
  cfg.mem.backend = c.backend;
  cfg.host_cpu = c.impl == Impl::kPulp ? arcane::HostCpuKind::kCv32e40px
                                       : arcane::HostCpuKind::kCv32e40x;
  // The replay twin exists only in traced CPU cases.
  const bool replay = traced && !arcane_impl;

  auto t0 = Clock::now();
  auto sys = std::make_unique<System>(cfg);
  std::unique_ptr<System> twin;
  if (replay) twin = std::make_unique<System>(cfg);
  res.system_s = since(t0);

  // Memory map of baseline::run_conv_layer.
  const std::uint32_t line = cfg.llc.line_bytes();
  const Addr in_addr = sys->data_base() + line;
  const Addr f_addr =
      arcane::align_up(in_addr + input.region_bytes() + 16, line);
  const Addr out_addr = arcane::align_up(f_addr + 4096, line);
  const Addr temp_addr = arcane::align_up(
      out_addr + static_cast<std::uint32_t>(ho * wo * sizeof(T)), line);

  t0 = Clock::now();
  for (System* s : {sys.get(), twin.get()}) {
    if (s == nullptr) continue;
    arcane::workloads::store_matrix(*s, in_addr, input);
    if (c.impl == Impl::kPulp) {
      // Filter rows zero-padded for the SIMD inner loop.
      Matrix<T> padded(3 * k, bl::pulp_padded_cols(k, input.elem_type()));
      for (std::uint32_t r = 0; r < 3 * k; ++r) {
        for (std::uint32_t col = 0; col < k; ++col) {
          padded.at(r, col) = filter.at(r, col);
        }
      }
      arcane::workloads::store_matrix(*s, f_addr, padded);
    } else {
      arcane::workloads::store_matrix(*s, f_addr, filter);
    }
  }
  res.place_s = since(t0);

  t0 = Clock::now();
  std::vector<std::uint32_t> words;
  if (arcane_impl) {
    arcane::XProgram prog;
    prog.xmr(0, in_addr, input.shape(), input.elem_type());
    prog.xmr(1, f_addr, filter.shape(), filter.elem_type());
    prog.xmr(2, out_addr, arcane::MatShape{ho, wo, wo}, input.elem_type());
    prog.conv_layer(2, 0, 1, input.elem_type());
    prog.sync_read(out_addr);
    prog.halt();
    words = prog.finish();
  } else {
    bl::ConvLayerLayout layout;
    layout.input = in_addr;
    layout.filter = f_addr;
    layout.temp = temp_addr;
    layout.output = out_addr;
    layout.H = h;
    layout.W = w;
    layout.K = k;
    layout.et = input.elem_type();
    words = c.impl == Impl::kPulp ? bl::pulp_conv_layer_program(layout)
                                  : bl::scalar_conv_layer_program(layout);
  }
  // Traced cases run their own HostCpu, so the program goes to its memory.
  std::unique_ptr<arcane::mem::InstructionMemory> imem;
  if (traced) {
    imem = std::make_unique<arcane::mem::InstructionMemory>(
        cfg.mem.imem_base, cfg.mem.imem_bytes);
    imem->load(cfg.mem.imem_base, words);
  } else {
    sys->load_program(words);
  }
  res.program_s = since(t0);

  arcane::cpu::HostCpu::RunResult run;
  Counters& L = res.layers;
  t0 = Clock::now();
  if (!traced) {
    run = sys->run_unchecked();
  } else if (replay) {
    ReplayPort port(*sys, *twin, L);
    arcane::cpu::HostCpu cpu(sys->config(), *imem, port, &sys->bridge());
    cpu.reset(cfg.mem.imem_base, sys->stack_top());
    run = cpu.run();
    port.flush();
    sys->drain();
    twin->drain();
  } else {
    TimedPort port(*sys, L);
    TimedCoprocessor copro(sys->bridge(), L);
    arcane::cpu::HostCpu cpu(sys->config(), *imem, port, &copro);
    cpu.reset(cfg.mem.imem_base, sys->stack_top());
    run = cpu.run();
    ScopedSpan span("drain");
    const auto td = Clock::now();
    sys->drain();
    L["kernel.wait_s"] += since(td);
  }
  res.sim_s = since(t0);

  const auto& cache = sys->llc().stats();
  std::uint64_t macs = 0, vinsns = 0;
  for (auto& vu : sys->vpus()) {
    macs += vu.stats().macs;
    vinsns += vu.stats().instructions;
  }
  res.stats = {{"cycles", run.cycles},
               {"instructions", run.instructions},
               {"llc_hits", cache.hits},
               {"llc_misses", cache.misses},
               {"vpu_macs", macs},
               {"events", sys->events().executed()}};
  if (replay && (twin->llc().stats().hits != cache.hits ||
                 twin->llc().stats().misses != cache.misses)) {
    L["hostpath.replay_mismatches"] += 1;  // the twin diverged in aggregate
  }
  res.sim_cycles = static_cast<double>(run.cycles);
  res.host_insns = static_cast<double>(run.instructions);
  res.jobs = 1;
  L["cpu.insns"] += static_cast<double>(run.instructions);
  L["llc.hits"] += static_cast<double>(cache.hits);
  L["llc.misses"] += static_cast<double>(cache.misses);
  L["llc.kernel_line_claims"] += static_cast<double>(cache.kernel_line_claims);
  L["llc.writebacks"] += static_cast<double>(cache.writebacks);
  L["bridge.offloads"] += static_cast<double>(sys->bridge().offloads());
  L["bridge.rejects"] += static_cast<double>(sys->bridge().rejects());
  L["vpu.instructions"] += static_cast<double>(vinsns);
  L["vpu.macs"] += static_cast<double>(macs);
  L["dma.descriptors"] += static_cast<double>(sys->dma().stats().descriptors);
  L["dma.bytes_from_external"] +=
      static_cast<double>(sys->dma().stats().bytes_from_external);
  L["mem.ext_bursts"] += static_cast<double>(sys->mem_backend().stats().bursts);
  L["sim.events"] += static_cast<double>(sys->events().executed());

  if (run.reason != arcane::cpu::HaltReason::kEcall) {
    res.failure = std::string("host program halted: ") +
                  arcane::cpu::halt_reason_name(run.reason);
    return res;
  }

  t0 = Clock::now();
  auto got = arcane::workloads::load_matrix<T>(*sys, out_addr, ho, wo);
  maybe_corrupt(bytes_of(got));
  // ARCANE wraps at the element width; the CPU baselines accumulate wide.
  auto& want = golden[{h, k, c.et, arcane_impl}];
  if (want.empty()) {
    auto g = arcane_impl
                 ? arcane::workloads::golden_conv_layer<T>(input, filter)
                 : arcane::workloads::golden_conv_layer_wide<T>(input, filter);
    const auto b = bytes_of(g);
    want.assign(b.begin(), b.end());
  }
  const auto b = bytes_of(got);
  if (!std::equal(b.begin(), b.end(), want.begin(), want.end())) {
    res.failure = "output differs from the golden conv layer";
  }
  res.verify_s = since(t0);
  return res;
}

}  // namespace

Workload make_conv_workload(const std::string& name, std::uint64_t seed) {
  auto cases = std::make_shared<std::vector<ConvSpec>>(cases_for(name));
  auto golden = std::make_shared<GoldenCache>();
  Workload wl;
  wl.num_cases = cases->size();
  wl.run = [cases, golden, seed](std::size_t idx, bool traced) {
    const ConvSpec& c = (*cases)[idx];
    switch (c.et) {
      case ElemType::kByte:
        return run_conv<std::int8_t>(c, seed, traced, *golden);
      case ElemType::kHalf:
        return run_conv<std::int16_t>(c, seed, traced, *golden);
      case ElemType::kWord:
        break;
    }
    return run_conv<std::int32_t>(c, seed, traced, *golden);
  };
  return wl;
}

}  // namespace perfbench
