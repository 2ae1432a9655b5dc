// Fundamental vocabulary types of the ARCANE simulator.
#ifndef ARCANE_COMMON_TYPES_HPP_
#define ARCANE_COMMON_TYPES_HPP_

#include <cstdint>
#include <string>

#include "common/assert.hpp"

namespace arcane {

/// Physical byte address in the host address space (RV32 ⇒ 32-bit).
using Addr = std::uint32_t;

/// True when [addr, addr + bytes) lies inside [base, base + size). Written
/// in offset form so no sum wraps at the top of the 32-bit address space.
constexpr bool in_region(Addr addr, std::uint32_t bytes, Addr base,
                         std::uint32_t size) {
  return addr - base < size && bytes <= size - (addr - base);
}

/// Simulation time in core clock cycles. All clocks in the system (host CPU,
/// eCPU, LLC, VPUs, DMA) share one domain, as in the paper (§V-A, 250 MHz).
using Cycle = std::uint64_t;

/// Element types of the xmnmc matrix extension: `.w` = int32, `.h` = int16,
/// `.b` = int8 (paper Table I). The enum values match the funct3 encoding we
/// chose for the custom-2 instruction format.
enum class ElemType : std::uint8_t {
  kWord = 0,  // .w — int32
  kHalf = 1,  // .h — int16
  kByte = 2,  // .b — int8
};

constexpr unsigned elem_bytes(ElemType et) {
  switch (et) {
    case ElemType::kWord: return 4;
    case ElemType::kHalf: return 2;
    case ElemType::kByte: return 1;
  }
  return 4;
}

constexpr const char* elem_suffix(ElemType et) {
  switch (et) {
    case ElemType::kWord: return "w";
    case ElemType::kHalf: return "h";
    case ElemType::kByte: return "b";
  }
  return "?";
}

constexpr const char* elem_name(ElemType et) {
  switch (et) {
    case ElemType::kWord: return "int32";
    case ElemType::kHalf: return "int16";
    case ElemType::kByte: return "int8";
  }
  return "?";
}

/// Shape of a matrix operand as registered with `xmr`: `rows` x `cols`
/// elements, row-major with a row pitch of `stride` elements (stride >= cols
/// allows sub-matrix views, stride == cols is the packed case).
struct MatShape {
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::uint32_t stride = 0;  // in elements

  constexpr std::uint32_t elems() const { return rows * cols; }
  bool operator==(const MatShape&) const = default;
};

/// Byte footprint of a matrix region in memory (last row has no trailing
/// stride padding).
constexpr std::uint32_t mat_footprint_bytes(const MatShape& s, ElemType et) {
  if (s.rows == 0 || s.cols == 0) return 0;
  return ((s.rows - 1) * s.stride + s.cols) * elem_bytes(et);
}

}  // namespace arcane

#endif  // ARCANE_COMMON_TYPES_HPP_
