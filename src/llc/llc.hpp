// The ARCANE smart last-level cache controller (paper §III-A).
//
// Normal mode: fully associative, write-back + write-allocate cache with
// single-cycle hits, DMA-serviced misses and a pluggable replacement
// strategy (replacement.hpp: the paper's counter-based approximate LRU,
// true LRU, random, and the adaptive CLOCK/LRU-K/ARC/CAR family).
// Compute mode: cache lines double as VPU vector registers; lines claimed
// for an in-flight kernel are "busy computing" and are excluded from
// replacement. The controller arbitrates between the host port and the
// Matrix Allocator through a lock register and the Address Table.
//
// Timing protocol: `host_access` is called with the host's local time; it
// first drains simulator events up to that time, then resolves stalls
// (lock, AT hazards, busy lines, refills) by advancing time — executing
// pending events one by one where forward progress depends on them — and
// returns the completion time. Kernel-side mutations (claim/read/write
// range) happen atomically inside allocator/writeback events; this is
// equivalent to the hardware because the allocator holds the controller
// lock for the duration of those windows (see DESIGN.md §5).
#ifndef ARCANE_LLC_LLC_HPP_
#define ARCANE_LLC_LLC_HPP_

#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "dma/dma.hpp"
#include "llc/address_table.hpp"
#include "llc/line.hpp"
#include "llc/replacement.hpp"
#include "mem/main_memory.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "vpu/line_storage.hpp"

namespace arcane::llc {

class Llc {
 public:
  Llc(const SystemConfig& cfg, sim::EventQueue& events, mem::MainMemory& ext,
      dma::DmaEngine& dma, vpu::LineStorage& storage);

  // ------------------------- host slave port -------------------------
  struct HostResult {
    Cycle complete_at = 0;
    bool hit = false;
  };
  /// Aligned access of 1/2/4 bytes. Reads fill `data`, writes consume it.
  HostResult host_access(Addr addr, unsigned bytes, bool is_write,
                         void* data, Cycle now);
  /// O(1) host-hit fast path with host_access's exact semantics. It applies
  /// only when no host hook is armed, the lock is free at `now`, no AT entry
  /// is active, no event is pending and the directory holds the line; then
  /// it completes the hit and returns true. Otherwise (including malformed
  /// accesses, which host_access rejects) it changes nothing and returns
  /// false, and the caller falls through to host_access.
  bool try_host_hit(Addr addr, unsigned bytes, bool is_write, void* data,
                    Cycle now, Cycle& complete_at) {
    if (host_hook_armed_ || locked_until_ > now || at_.any_active() ||
        !events_->empty() || bytes - 1 > 3 ||
        (addr & (line_bytes_ - 1)) + bytes > line_bytes_) {
      return false;
    }
    const Addr base = line_base(addr);
    const int idx = lookup(base);
    if (idx < 0) return false;
    const auto i = static_cast<unsigned>(idx);
    if (approx_lru_ != nullptr) {
      approx_lru_->host_tick();
      approx_lru_->touch(i, base);
    } else {
      policy_->host_tick();
      policy_->touch(i, base);
    }
    ++stats_.hits;
    std::uint8_t* p = line_data_ + (i << line_shift_) + (addr - base);
    if (is_write) {
      ++stats_.writes;
      std::memcpy(p, data, bytes);
      lines_[i].state = LineState::kDirty;
    } else {
      ++stats_.reads;
      std::memcpy(data, p, bytes);
    }
    complete_at = now + cfg_.llc.hit_latency;
    return true;
  }

  // --------------------- controller lock (allocator) -----------------
  void lock_until(Cycle t);

  // ------------------------- compute mode ----------------------------
  /// Claim the line backing (vpu, vreg) for kernel `uid`: evicts cached
  /// content (writing back dirty data functionally) and marks it busy.
  /// Returns the eviction transfer cost for the caller's timing.
  dma::TransferCost claim_line(unsigned vpu, unsigned vreg, std::uint64_t uid);
  /// Free every line owned by kernel `uid` (post write-back).
  void release_kernel_lines(std::uint64_t uid);
  bool line_is_busy(unsigned vpu, unsigned vreg) const;
  unsigned dirty_lines_in_vpu(unsigned vpu) const;
  unsigned busy_lines_in_vpu(unsigned vpu) const;

  // ------------------ allocator 2D-DMA data path ---------------------
  /// Read [addr, addr+out.size()) through the cache: hits are forwarded
  /// from lines, misses stream from external memory (no allocation).
  dma::TransferCost read_range(Addr addr, std::span<std::uint8_t> out);
  /// Write a kernel result range into the cache with fetch-on-write
  /// semantics (paper §III-A4); falls back to an external write when no
  /// victim line is available.
  dma::TransferCost write_range(Addr addr, std::span<const std::uint8_t> in);

  AddressTable& at() { return at_; }
  const AddressTable& at() const { return at_; }

  // --------------------------- maintenance ---------------------------
  /// Coherent (cache-merged) access for tests, loaders and goldens.
  void backdoor_read(Addr addr, void* out, std::uint32_t len);
  void backdoor_write(Addr addr, const void* in, std::uint32_t len);
  /// Write back all dirty lines (functional; used by tests).
  void flush_all();
  /// Drop every line (after flush) — returns the cache to reset state.
  void invalidate_all();

  const sim::CacheStats& stats() const { return stats_; }
  sim::CacheStats& stats() { return stats_; }
  unsigned num_lines() const { return static_cast<unsigned>(lines_.size()); }
  const Line& line(unsigned idx) const { return lines_[idx]; }

  void set_spans(telemetry::SpanTracer* spans) { spans_ = spans; }
  /// Bind this controller's CacheStats fields as `llc.*` registry views.
  void register_metrics(telemetry::Registry& reg);

  /// Invoked on host accesses before and after hazard resolution while
  /// armed (used by the C-RT to invalidate or lazily materialize
  /// forwarded/resident kernel results kept in VPU registers).
  std::function<void(Addr, unsigned, bool is_write)> on_host_access;
  /// Arm or disarm on_host_access. The C-RT arms it exactly while it holds
  /// residents, the only state the hook acts on; disarmed, host accesses
  /// skip it and may take the try_host_hit fast path.
  void set_host_hook_armed(bool armed) { host_hook_armed_ = armed; }
  bool host_hook_armed() const { return host_hook_armed_; }

 private:
  static constexpr std::uint16_t kNoLine = 0xFFFF;

  Addr line_base(Addr addr) const { return addr & ~(line_bytes_ - 1); }
  /// Line holding `base` (Clean/Dirty), or -1.
  int lookup(Addr base) const {
    const Addr off = base - cfg_.mem.data_base;
    if (off >= cfg_.mem.data_bytes) return -1;
    const std::uint16_t idx = dir_[off >> line_shift_];
    return idx == kNoLine ? -1 : static_cast<int>(idx);
  }
  std::uint16_t& dir_slot(Addr base) {
    const Addr off = base - cfg_.mem.data_base;
    ARCANE_ASSERT(off < cfg_.mem.data_bytes,
                  "line 0x" << std::hex << base << " outside the data region");
    return dir_[off >> line_shift_];
  }
  /// Pick a victim for the incoming line base among non-busy lines:
  /// recycles any Invalid line first, then delegates the replacement
  /// decision to the configured strategy; -1 when every line is busy.
  int find_victim(Addr incoming);
  /// Evict line idx (functional write-back when dirty); returns ext bytes.
  std::uint32_t evict(unsigned idx);
  /// Handle a miss at `base` at time `t`: returns refill completion time.
  Cycle refill(Addr base, Cycle t, Cycle& dma_wait);
  /// Advance `t` past the lock window / AT hazards / busy-line starvation,
  /// draining events as needed.
  Cycle resolve_stalls(Addr addr, unsigned bytes, bool is_write, Cycle t);

  SystemConfig cfg_;
  sim::EventQueue* events_;
  mem::MainMemory* ext_;
  dma::DmaEngine* dma_;
  vpu::LineStorage* storage_;

  std::uint32_t line_bytes_;
  unsigned line_shift_;  // log2(line_bytes_)
  std::vector<Line> lines_;
  std::uint8_t* line_data_;  // storage_'s line array (line i at i << shift)
  /// Line directory: one entry per line-sized block of the data region,
  /// holding the index of the Clean/Dirty line caching that block or
  /// kNoLine. Busy and Invalid lines never appear in it.
  std::vector<std::uint16_t> dir_;
  /// Replacement bookkeeping (victim ranking, recency/ghost state) lives in
  /// the strategy; the controller only reports touch/fill/evict events.
  std::unique_ptr<ReplacementStrategy> policy_;
  /// policy_ when it is the default approx-LRU (direct calls on the fast
  /// path), else nullptr.
  ApproxLruStrategy* approx_lru_ = nullptr;
  bool host_hook_armed_ = false;
  AddressTable at_;
  Cycle locked_until_ = 0;
  telemetry::SpanTracer* spans_ = nullptr;
  sim::CacheStats stats_;
};

}  // namespace arcane::llc

#endif  // ARCANE_LLC_LLC_HPP_
