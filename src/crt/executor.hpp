// KernelExecutor — the per-instance kernel execution engine of the C-RT
// (paper §IV-B2/B3). One executor walks one in-flight kernel through its
// chains and tiles: allocation 2D-DMA, VPU micro-program launch and
// write-back, all as events on the shared simulation queue.
//
// Executors run on the one C-RT back end (crt::CrtContext): they charge
// its eCPU, share its DMA engine and LLC, and consult its resident set for
// forwarding, before claiming lines and before reading memory. The front
// end that owns an executor — crt::Runtime keeps one and serializes its
// in-order queue on it; sched::Scheduler keeps one per VPU instance — is
// reached through the Client interface for its two own decisions: may a
// write-back be elided, and what happens when the kernel finished. Every
// launched kernel runs to completion: executors know nothing of faults (the
// scheduler holds an injected hang in its own in-flight slot and never
// launches it).
#ifndef ARCANE_CRT_EXECUTOR_HPP_
#define ARCANE_CRT_EXECUTOR_HPP_

#include <cstdint>
#include <vector>

#include "crt/context.hpp"
#include "crt/kernel_op.hpp"
#include "sim/stats.hpp"

namespace arcane::crt {

class KernelExecutor {
 public:
  /// The owning front end's decisions.
  class Client {
   public:
    /// May this kernel skip its write-back entirely (full elision)? Only
    /// asked once the executor has verified the store geometry allows it.
    virtual bool allow_writeback_elision(Addr dest_lo, Addr dest_hi) = 0;
    /// The kernel completed at `t` (epilogue charged, phases updated, the
    /// executor already free). The owner retires it (CrtContext::retire),
    /// records its bookkeeping and may launch the next kernel on `ex`
    /// right away.
    virtual void on_kernel_finish(KernelExecutor& ex, FinishedKernel fin,
                                  Cycle t) = 0;

   protected:
    ~Client() = default;
  };

  KernelExecutor(CrtContext& ctx, Client& client, unsigned id)
      : ctx_(&ctx), client_(&client), id_(id) {}

  KernelExecutor(const KernelExecutor&) = delete;
  KernelExecutor& operator=(const KernelExecutor&) = delete;

  /// Start `op` with chain i of `plan` on VPU vpus[i]. `now` is the event
  /// time (tracer timestamp); the chains begin at the eCPU horizon, which
  /// the caller has already advanced past its scheduling cost.
  void launch(KernelOp op, Plan plan, std::vector<unsigned> vpus, Cycle now);

  bool busy() const { return active_.valid; }
  unsigned id() const { return id_; }
  /// The in-flight kernel (valid while busy).
  const KernelOp& op() const { return active_.op; }

 private:
  struct ChainState {
    Chain chain;
    unsigned vpu = 0;
    unsigned next_tile = 0;
    bool claimed = false;
    Tile tile;  // tile currently in flight (between events)
    Cycle compute_end = 0;
  };
  struct ActiveKernel {
    KernelOp op;
    Plan plan;
    std::vector<ChainState> chains;
    unsigned chains_left = 0;
    Cycle finish_time = 0;
    bool valid = false;
    bool elided_writeback = false;
    sim::OpStallBreakdown breakdown{};
  };

  void chain_step(unsigned chain_idx, Cycle t);       // alloc + compute
  void chain_writeback(unsigned chain_idx, Cycle t);  // write-back + advance
  void finish_kernel(Cycle t);

  CrtContext* ctx_;
  Client* client_;
  unsigned id_;
  ActiveKernel active_{};
  // Per-tile forwarding scratch (parallel to the tile's loads): reused
  // buffers + validity flags, so chain stepping allocates nothing steady
  // state no matter how many tiles a kernel walks.
  std::vector<std::vector<std::uint8_t>> fwd_bufs_;
  std::vector<char> fwd_valid_;
};

}  // namespace arcane::crt

#endif  // ARCANE_CRT_EXECUTOR_HPP_
