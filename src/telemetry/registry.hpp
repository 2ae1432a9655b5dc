// Deterministic metrics registry: named read-only views over the existing
// `sim::*Stats` structs, owned by arcane::System and populated by every
// simulated layer (sched/qos/crt/llc/mem/dma). Views are registered as
// getter callbacks, so the long-standing stats fields stay the single
// source of truth and the registry is the queryable, named index over
// them. Callbacks (rather than raw pointers) keep bindings safe when the
// owning container reallocates (e.g. per-tenant vectors).
//
// Snapshots iterate entries in name order (std::map), so two identical runs
// produce byte-identical metric dumps — the same determinism contract the
// simulator itself is gated on.
#ifndef ARCANE_TELEMETRY_REGISTRY_HPP_
#define ARCANE_TELEMETRY_REGISTRY_HPP_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace arcane::telemetry {

/// Name → entry index. Naming scheme (docs/OBSERVABILITY.md): dotted
/// lowercase `layer.metric`, per-tenant entries as `layer.tenant<i>.metric`.
class Registry {
 public:
  using Getter = std::function<std::uint64_t()>;

  /// Register a read-only view over an externally owned stat field.
  void bind(const std::string& name, Getter getter) {
    bound_[name] = std::move(getter);
  }

  /// Current value of a bound view (0 when unknown).
  std::uint64_t value(const std::string& name) const;

  /// All bound views in name order.
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

  /// Full deterministic JSON dump: {"scalars": {name: value, ...}}.
  void write_json(std::ostream& os) const;

 private:
  std::map<std::string, Getter> bound_;
};

}  // namespace arcane::telemetry

#endif  // ARCANE_TELEMETRY_REGISTRY_HPP_
