// Deterministic metrics registry: named scalar views and raw-sample
// series, owned by arcane::System and populated by every simulated layer
// (sched/qos/crt/llc/mem/dma).
//
// Two flavours of entry coexist:
//
//   * owned    — Series objects the registry allocates once at
//     registration time; hot paths then record into them through stable
//     references (allocation-free in steady state).
//   * bound    — read-only views over the existing `sim::*Stats` structs,
//     registered as getter callbacks so the long-standing stats fields stay
//     the single source of truth and the registry is the queryable, named
//     index over them. Callbacks (rather than raw pointers) keep bindings
//     safe when the owning container reallocates (e.g. per-tenant vectors).
//
// Snapshots iterate entries in name order (std::map), so two identical runs
// produce byte-identical metric dumps — the same determinism contract the
// simulator itself is gated on.
#ifndef ARCANE_TELEMETRY_REGISTRY_HPP_
#define ARCANE_TELEMETRY_REGISTRY_HPP_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace arcane::telemetry {

/// Bounded raw-sample recorder for exact order statistics. percentile() is
/// the floor-index rule every latency-reporting bench row uses: ascending
/// sort, then sorted[size_t(q * (n - 1))], so p50/p99 stay comparable
/// across artifacts.
class Series {
 public:
  explicit Series(std::size_t capacity = 1 << 16) : capacity_(capacity) {
    samples_.reserve(std::min<std::size_t>(capacity, 1024));
  }

  void record(std::uint64_t v) {
    if (samples_.size() >= capacity_) {
      ++truncated_;
      return;
    }
    samples_.push_back(v);
  }

  std::size_t count() const { return samples_.size(); }
  std::uint64_t truncated() const { return truncated_; }
  const std::vector<std::uint64_t>& samples() const { return samples_; }

  /// Exact floor-index order statistic; 0 when empty.
  std::uint64_t percentile(double q) const;
  std::uint64_t p50() const { return percentile(0.50); }
  std::uint64_t p99() const { return percentile(0.99); }

 private:
  std::size_t capacity_;
  std::uint64_t truncated_ = 0;
  std::vector<std::uint64_t> samples_;
};

/// Name → entry index. Naming scheme (docs/OBSERVABILITY.md): dotted
/// lowercase `layer.metric`, per-tenant entries as `layer.tenant<i>.metric`.
class Registry {
 public:
  using Getter = std::function<std::uint64_t()>;

  Series& series(const std::string& name, std::size_t capacity = 1 << 16) {
    auto it = series_.find(name);
    if (it == series_.end()) {
      it = series_.emplace(name, Series(capacity)).first;
    }
    return it->second;
  }

  /// Register a read-only view over an externally owned stat field.
  void bind(const std::string& name, Getter getter) {
    bound_[name] = std::move(getter);
  }

  const Series* find_series(const std::string& name) const {
    auto it = series_.find(name);
    return it == series_.end() ? nullptr : &it->second;
  }

  /// Current value of a bound view (0 when unknown).
  std::uint64_t value(const std::string& name) const;

  /// All bound views in name order.
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

  /// Full deterministic JSON dump (scalars, series summaries).
  void write_json(std::ostream& os) const;

 private:
  std::map<std::string, Series> series_;
  std::map<std::string, Getter> bound_;
};

}  // namespace arcane::telemetry

#endif  // ARCANE_TELEMETRY_REGISTRY_HPP_
