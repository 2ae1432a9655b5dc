#include "baseline/runner.hpp"

#include <vector>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "baseline/pulp_kernels.hpp"
#include "baseline/scalar_kernels.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

namespace arcane::baseline {

using workloads::Matrix;
using workloads::Rng;

const char* impl_name(Impl impl) {
  switch (impl) {
    case Impl::kArcane: return "arcane";
    case Impl::kScalar: return "cv32e40x-scalar";
    case Impl::kPulp: return "cv32e40px-xcvpulp";
  }
  return "?";
}

namespace {

template <typename T>
ConvRunResult run_case(SystemConfig cfg, Impl impl, const ConvCase& c) {
  const std::uint32_t h = c.size, w = c.size, k = c.k;
  ARCANE_CHECK(h >= k && w >= k, "conv case smaller than filter");

  cfg.host_cpu =
      impl == Impl::kPulp ? HostCpuKind::kCv32e40px : HostCpuKind::kCv32e40x;
  System sys(cfg);

  Rng rng(c.seed * 0x1234567ull + h * 31 + k);
  auto input = Matrix<T>::random(3 * h, w, rng, -8, 7);
  auto filter = Matrix<T>::random(3 * k, k, rng, -4, 3);

  const std::uint32_t hc = h - k + 1, wc = w - k + 1;
  const std::uint32_t ho = hc / 2, wo = wc / 2;
  ARCANE_CHECK(ho >= 1 && wo >= 1, "conv case output empty");

  // Memory map: line-aligned regions with padding after the input (the
  // padded SIMD dot products may read a few bytes past the last row).
  const std::uint32_t line = cfg.llc.line_bytes();
  const Addr in_addr = sys.data_base() + line;
  const Addr f_addr = align_up(in_addr + input.region_bytes() + 16, line);
  const Addr out_addr = align_up(f_addr + 4096, line);
  const Addr temp_addr =
      align_up(out_addr + static_cast<std::uint32_t>(ho * wo * sizeof(T)), line);

  workloads::store_matrix(sys, in_addr, input);

  ConvRunResult res;
  cpu::HostCpu::RunResult run;

  if (impl == Impl::kArcane) {
    workloads::store_matrix(sys, f_addr, filter);
    XProgram prog;
    prog.xmr(0, in_addr, input.shape(), input.elem_type());
    prog.xmr(1, f_addr, filter.shape(), filter.elem_type());
    prog.xmr(2, out_addr, MatShape{ho, wo, wo}, input.elem_type());
    prog.conv_layer(2, 0, 1, input.elem_type());
    // Implicit synchronisation: touching the destination stalls the host
    // until the kernel write-back completes (paper §III-A2).
    prog.sync_read(out_addr);
    prog.halt();
    sys.load_program(prog.finish());
    run = sys.run();
    res.phases = sys.runtime().phases();
    res.stalls = sys.stall_totals();
    for (auto& vu : sys.vpus()) {
      res.vpu_macs += vu.stats().macs;
      res.vpu_instructions += vu.stats().instructions;
    }
  } else {
    ConvLayerLayout layout;
    layout.input = in_addr;
    layout.filter = f_addr;
    layout.temp = temp_addr;
    layout.output = out_addr;
    layout.H = h;
    layout.W = w;
    layout.K = k;
    layout.et = input.elem_type();
    if (impl == Impl::kPulp) {
      // Store the filter with zero-padded rows for the SIMD inner loop.
      const std::uint32_t kp = pulp_padded_cols(k, layout.et);
      Matrix<T> padded(3 * k, kp);
      for (std::uint32_t r = 0; r < 3 * k; ++r) {
        for (std::uint32_t col = 0; col < k; ++col) {
          padded.at(r, col) = filter.at(r, col);
        }
      }
      workloads::store_matrix(sys, f_addr, padded);
      sys.load_program(pulp_conv_layer_program(layout));
    } else {
      workloads::store_matrix(sys, f_addr, filter);
      sys.load_program(scalar_conv_layer_program(layout));
    }
    run = sys.run();
  }

  res.cycles = run.cycles;
  res.instructions = run.instructions;
  res.cache = sys.llc().stats();
  res.dma = sys.dma().stats();
  res.ext = sys.mem_backend().stats();

  if (c.verify) {
    const auto got = workloads::load_matrix<T>(sys, out_addr, ho, wo);
    const auto want = impl == Impl::kArcane
                          ? workloads::golden_conv_layer<T>(input, filter)
                          : workloads::golden_conv_layer_wide<T>(input, filter);
    res.correct = workloads::count_mismatches(got, want) == 0;
  }
  return res;
}

}  // namespace

ConvRunResult run_conv_layer(const SystemConfig& cfg, Impl impl,
                             const ConvCase& c) {
  switch (c.et) {
    case ElemType::kWord: return run_case<std::int32_t>(cfg, impl, c);
    case ElemType::kHalf: return run_case<std::int16_t>(cfg, impl, c);
    case ElemType::kByte: return run_case<std::int8_t>(cfg, impl, c);
  }
  throw Error("bad element type");
}

}  // namespace arcane::baseline
