// Multi-tenant kernel-offload scheduler (the "servable" front end of the
// ARCANE LLC): accepts jobs — DAGs of crt kernel ops — from independent
// tenants (request streams with arrival times) and dispatches ready ops
// across N VPU instances, each driven by its own crt::KernelExecutor.
//
// Arbitration model:
//  * line storage / LLC ways — instance i only claims lines of VPU i (a
//    plan's vector registers live in one VPU's way group), so instances
//    never contend for lines structurally;
//  * DMA engine, eCPU and the controller lock — the C-RT back end
//    (crt::CrtContext) the host-program path runs on too, so allocation
//    and write-back transfers of concurrent kernels serialize exactly like
//    the hardware's single engine;
//  * data hazards — one predicate (WAW, WAR or RAW overlap of two op
//    specs) holds an op in its ready queue while it conflicts with an
//    in-flight op or an older queued one, so conflicting ops dispatch
//    strictly in ready (seq) order even across instances and policies,
//    making buffer-reusing tenants safe without host AT stalls.
//
// Each op takes one path from ready to resolution: park (one step picks
// the instance queue), dispatch, then either completion or a failed
// attempt that is retried (re-planned and re-parked) or fails the job. An
// injected hang (src/fault/) is held in the instance's in-flight slot and
// never reaches the executor; the watchdog or a fail-stop aborts it.
//
// Everything runs as events on the System's queue, so instances advance
// concurrently in *simulated* time and results are deterministic. Kernel
// retirement, the resident set and the stall ledger are the back end's;
// the scheduler keeps jobs, ready queues, hazards, QoS and fault handling.
#ifndef ARCANE_SCHED_SCHEDULER_HPP_
#define ARCANE_SCHED_SCHEDULER_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "crt/context.hpp"
#include "crt/executor.hpp"
#include "fault/fault.hpp"
#include "sched/job.hpp"
#include "sched/ready_queue.hpp"
#include "sim/stats.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/registry.hpp"

namespace arcane::sched {

/// One resolved job, in resolution order (the bench's latency sample).
/// `dropped` jobs were shed on deadline expiry: `done` is the drop time and
/// they appear in Scheduler::shed(), not completed(). `failed` jobs hit
/// retry exhaustion under fault injection (src/fault/): `done` is the
/// failure time and they appear in Scheduler::failed().
struct JobReport {
  std::uint64_t id = 0;
  unsigned tenant = 0;
  Cycle arrival = 0;
  Cycle first_dispatch = 0;
  Cycle done = 0;
  Cycle deadline = 0;        // 0 = none
  std::uint64_t tag = 0;     // JobSpec::tag, caller-owned
  bool dropped = false;
  bool failed = false;       // retries exhausted (src/fault/)
  unsigned retries = 0;      // op re-dispatches this job needed
  unsigned failovers = 0;    // retries that moved to another instance

  Cycle latency() const { return done - arrival; }
  bool on_time() const {
    return !dropped && !failed && (deadline == 0 || done <= deadline);
  }
};

class Scheduler final : public crt::KernelExecutor::Client,
                        public fault::Listener {
 public:
  /// Instances and policy come from the back end's SystemConfig
  /// (sched_instances == 0 means one instance per VPU).
  explicit Scheduler(crt::CrtContext& ctx);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// `priority` is the tenant's QoS class (0 = highest; kQosPriority*).
  /// It orders dispatch under SchedPolicy::kPriority and breaks SJF ties.
  unsigned add_tenant(std::string name,
                      unsigned priority = kQosPriorityNormal);
  unsigned num_tenants() const {
    return static_cast<unsigned>(tenant_names_.size());
  }
  const std::string& tenant_name(unsigned t) const {
    return tenant_names_[t];
  }
  unsigned tenant_priority(unsigned t) const { return tenant_priority_[t]; }

  /// Queue `job` for `tenant` at simulated time `arrival` (clamped to the
  /// event-queue horizon). Throws arcane::Error when the DAG is malformed
  /// (cycle, bad dep, unknown kernel, operand/shape rejected by the
  /// planner). Returns the job id.
  std::uint64_t submit(unsigned tenant, JobSpec job, Cycle arrival);

  /// Run the event queue dry; every submitted job resolves exactly once
  /// (completed, shed or failed).
  void drain();

  unsigned num_instances() const {
    return static_cast<unsigned>(execs_.size());
  }
  /// Instances currently accepting work (not quarantined). Equal to
  /// num_instances() whenever no fault plan is active — the QoS capacity
  /// signal (qos::AdmissionController backlog projection) reads this.
  unsigned num_healthy_instances() const {
    unsigned n = 0;
    for (const Health& h : health_) n += h.quarantined ? 0 : 1;
    return n;
  }
  bool instance_quarantined(unsigned inst) const {
    return health_[inst].quarantined;
  }

  /// Wire the deterministic fault injector (src/fault/). The caller (the
  /// System) also registers this scheduler as the injector's Listener.
  /// Null (the default) means no watchdogs, no retries, no health
  /// tracking — the fault-free fast path is bit-identical to a build
  /// without the fault subsystem.
  void set_injector(fault::Injector* inj) { injector_ = inj; }

  // ------------------------- fault::Listener -------------------------
  /// Fail-stop: quarantine `instance` immediately; a hung kernel on it is
  /// aborted now, an executing one is doomed (its completion — already a
  /// scheduled event — reports failure when it fires).
  void on_instance_fail(unsigned instance, Cycle t) override;
  /// Recovery: the instance rejoins the healthy set, every entry queued on
  /// a still-quarantined instance is re-parked, and the dispatch scan runs.
  void on_instance_recover(unsigned instance, Cycle t) override;

  const sim::SchedStats& stats() const { return stats_; }
  const sim::TenantStats& tenant_stats(unsigned t) const {
    return tenant_stats_[t];
  }
  /// Exclusive stall-bucket cycles of tenant `t`'s retired ops. Per op the
  /// buckets tile [op ready, op finish] exactly (sum == op latency —
  /// asserted at completion); every op also lands in the back end's ledger
  /// (System::stall_totals()).
  const sim::OpStallBreakdown& tenant_stalls(unsigned t) const {
    return tenant_stall_[t];
  }
  /// Completed jobs in completion order.
  const std::vector<JobReport>& completed() const { return completed_; }
  /// Jobs shed on deadline expiry (JobSpec::shed_on_expiry), in drop order.
  const std::vector<JobReport>& shed() const { return shed_; }
  /// Jobs failed on retry exhaustion (src/fault/), in failure order.
  const std::vector<JobReport>& failed() const { return failed_; }

  /// Wire the scheduler into the System's telemetry: SchedStats and
  /// TenantStats fields become `sched.*` registry views. `reg` may be null.
  void set_telemetry(telemetry::Registry* reg);

  /// Retired timing of op `op` of job `job_id`: first ready, the finishing
  /// attempt's dispatch, finish, and the stall breakdown that tiles
  /// [ready, finish] across every attempt. Meaningful once the op retired.
  const telemetry::OpTiming& op_timing(std::uint64_t job_id,
                                       unsigned op) const {
    return jobs_[job_id - 1].ops[op].timing;
  }
  /// The critical path of every completed job, in ascending job id, walked
  /// over the op timings above. Shed and failed jobs have none.
  std::vector<telemetry::JobCriticalPath> critical_paths() const;

  /// Observer invoked once per resolved job (completed, shed or failed),
  /// after its report is recorded and before the dispatch scan — the hook
  /// closed-loop load generators use to submit the next request. The
  /// callback may submit (directly or through qos::AdmissionController);
  /// it must not call drain().
  void set_on_job_done(std::function<void(const JobReport&)> fn) {
    on_job_done_ = std::move(fn);
  }

  // --------------------- KernelExecutor::Client ----------------------
  // Jobs express reuse as DAG edges, so the scheduler never elides a
  // write-back.
  bool allow_writeback_elision(Addr, Addr) override { return false; }
  void on_kernel_finish(crt::KernelExecutor& ex, crt::FinishedKernel fin,
                        Cycle t) override;

 private:
  struct OpState {
    OpSpec spec;
    crt::Plan plan;  // validated at submit, consumed by dispatch
    Cycle ready_at = 0;
    /// First cycle a dispatch scan held this op back for a hazard (an
    /// in-flight or older-queued conflicting op). Cycles before that count
    /// as queue_wait, cycles after as hazard_defer — "since first held
    /// back", the deterministic boundary event order gives us.
    Cycle hazard_since = 0;
    bool hazard_marked = false;
    // Failure handling (src/fault/): attempt tracking for bounded retry.
    unsigned attempts = 0;       // dispatches so far (retries = attempts-1)
    unsigned prev_instance = 0;  // instance of the latest dispatch
    /// The op's one record: ready is the first attempt's ready_at; failed
    /// attempts and retry backoff accumulate into the breakdown, and the
    /// finishing attempt adds its own, so the telescoping invariant holds
    /// over [ready, finish] across every attempt.
    telemetry::OpTiming timing;
  };
  struct JobState {
    std::uint64_t id = 0;
    unsigned tenant = 0;
    Cycle arrival = 0;
    Cycle first_dispatch = 0;
    Cycle deadline = 0;  // absolute, 0 = none
    std::uint64_t tag = 0;
    unsigned ops_left = 0;
    bool dispatched_any = false;
    bool shed_on_expiry = false;
    bool dropped = false;     // shed or failed: open ops were cancelled
    unsigned retries = 0;     // op re-dispatches across this job
    unsigned failovers = 0;   // retries that landed on another instance
    std::vector<OpState> ops;
    std::unique_ptr<DagState> dag;
  };
  /// What an instance is currently executing (for hazard checks, which
  /// read the op's spec, and the op mapping at completion).
  struct InFlight {
    bool valid = false;
    std::uint32_t job = 0;
    std::uint16_t op = 0;
    Cycle dispatch_at = 0;
    /// Pre-execution stall buckets (queue_wait, hazard_defer and the
    /// dispatch/eCPU decode slice), composed with the executor's breakdown
    /// at completion to tile the op's full [ready, finish] lifetime.
    sim::OpStallBreakdown pre{};
    // Failure handling (src/fault/).
    std::uint64_t dispatch_seq = 0;  // watchdog token (stale-fire filter)
    Cycle post_dispatch = 0;         // eCPU horizon at launch (hang window)
    fault::OpVerdict verdict = fault::OpVerdict::kNone;
    bool doomed = false;  // instance fail-stopped while this op executed
    /// verdict == kHang: the kernel, never launched, held until the abort
    /// retires it (its AT ranges are registered).
    crt::KernelOp hung_op;
  };
  /// Per-instance health for consecutive-failure quarantine.
  struct Health {
    bool quarantined = false;
    unsigned consecutive_failures = 0;
  };

  void arrive(std::uint32_t job_idx, Cycle t);
  /// The one plan step: library lookup, operand-presence checks and the
  /// planner call (a pure function of spec + cfg). Throws arcane::Error on
  /// a spec the library rejects.
  crt::Plan plan_op(const OpSpec& spec) const;
  void op_ready(std::uint32_t job_idx, unsigned op_idx, Cycle t);
  /// The one park step: the op is ready (again) at `t`; queue a fresh
  /// ReadyEntry on pick_park_instance(avoid).
  void park(std::uint32_t job_idx, unsigned op_idx, int avoid, Cycle t);
  /// Re-park every entry queued on `inst`, seq preserved (so the
  /// older-conflict checks, and with them DAG/hazard order, are unaffected).
  void migrate_queue(unsigned inst);
  /// Shed every queued job whose deadline expired (shed_on_expiry only).
  void shed_expired(Cycle t);
  /// How a job leaves the scheduler.
  enum class Outcome { kCompleted, kShed, kFailed };
  /// The one resolution step: the outcome's counters and JobReport list,
  /// the shed-armed and open-job counts, the job span, then the
  /// on_job_done observer.
  void resolve(std::uint32_t job_idx, Outcome outcome, Cycle t);
  /// Mark a job shed or failed before resolve(): erase its queued entries
  /// and count every op not on an instance as cancelled. In-flight ops run
  /// to completion and wake no waiters. Returns the cancelled op count.
  unsigned cancel_open_ops(std::uint32_t job_idx);
  /// Fill every idle instance from its ready queue (policy + hazard check).
  void try_dispatch(Cycle t);
  void dispatch(unsigned inst, const ReadyEntry& e, Cycle t);
  bool conflicts(const OpSpec& spec) const;
  std::uint64_t estimate_cost(const OpSpec& spec) const;
  void register_tenant_metrics(unsigned tenant);
  // ------------------- failure handling (src/fault/) -------------------
  /// The instance to park a ready op on: the minimum of (rank, load,
  /// index), where rank is 0 for a healthy instance, 1 for `avoid` (the
  /// failover preference, when >= 0) and 2 for a quarantined one, and load
  /// counts an in-flight kernel as one queued unit.
  unsigned pick_park_instance(int avoid) const;
  /// Watchdog of a hung op: fires `watchdog_timeout` after its dispatch
  /// and aborts it; a stale token (a fail-stop aborted it first) is a
  /// no-op. Only hangs arm one: real completions cannot be aborted.
  void watchdog_fire(unsigned inst, std::uint64_t seq, Cycle t);
  /// Abort the hung op on `inst` (watchdog or fail-stop): its hung window
  /// counts as retry backoff, then fail_attempt.
  void abort_hung_inflight(unsigned inst, Cycle t);
  /// Free `inst`'s slot and retire its kernel `op` from the back end.
  InFlight release_slot(unsigned inst, const crt::KernelOp& op, Cycle t);
  /// The one failed-attempt step (`fl` was freed from `inst`): fold
  /// `attempt` into the op's timing record; a dropped job's op is cancelled,
  /// otherwise `inst`'s health is updated and the op either retries
  /// (backoff + requeue) or, on exhaustion, fails the job.
  void fail_attempt(unsigned inst, const InFlight& fl,
                    const sim::OpStallBreakdown& attempt, Cycle t);
  /// Re-admit a failed op after its backoff: re-plan and re-park it
  /// (idempotent — AT registration and operand reload re-run at dispatch).
  void requeue_op(std::uint32_t job_idx, unsigned op_idx, unsigned prev_inst,
                  Cycle t);
  /// Retry exhaustion: cancel the job's open ops and resolve it failed.
  void fail_job(std::uint32_t job_idx, Cycle t);
  /// Record an op outcome for `inst`'s health; `ok` resets the
  /// consecutive-failure count, a failure may quarantine.
  void note_op_outcome(unsigned inst, bool ok, Cycle t);
  void quarantine(unsigned inst, Cycle t);
  /// Liveness guard: with jobs open, ops queued, nothing in flight and no
  /// pending arrival/retry/recovery, the simulation can never progress —
  /// assert loudly with a per-instance queue-depth dump instead of letting
  /// run_all return a silent wedge. Skipped while a fault plan is active
  /// (a permanently failed fleet is a legitimate stall, reported by
  /// drain()).
  void check_liveness(Cycle t) const;
  /// Per-instance "queued=N inflight=0|1 [quarantined]" dump for wedge and
  /// drain diagnostics.
  std::string queue_dump() const;

  crt::CrtContext* ctx_;
  const SystemConfig* cfg_;
  SchedPolicy policy_;

  std::vector<std::unique_ptr<crt::KernelExecutor>> execs_;
  std::vector<ReadyQueue> queues_;   // one per instance
  std::vector<InFlight> inflight_;   // one per instance
  std::vector<Health> health_;       // one per instance
  fault::Injector* injector_ = nullptr;

  std::vector<std::string> tenant_names_;
  std::vector<unsigned> tenant_priority_;
  std::vector<sim::TenantStats> tenant_stats_;
  std::vector<sim::OpStallBreakdown> tenant_stall_;
  std::vector<JobState> jobs_;
  std::vector<JobReport> completed_;
  std::vector<JobReport> shed_;
  std::vector<JobReport> failed_;
  std::function<void(const JobReport&)> on_job_done_;
  sim::SchedStats stats_;

  telemetry::Registry* metrics_ = nullptr;

  /// try_dispatch's flattened (seq, spec) view of every queued entry for
  /// the older-conflict eligibility check — reused across scans so the
  /// dispatch hot path stays allocation-free.
  std::vector<std::pair<std::uint64_t, const OpSpec*>> queued_scratch_;

  unsigned rr_last_ = 0;        // tenant served last (round-robin policy)
  std::uint64_t next_job_id_ = 1;
  std::uint64_t ready_seq_ = 0;
  std::uint64_t jobs_open_ = 0;
  std::uint64_t dispatch_seq_ = 0;     // watchdog token allocator
  std::uint64_t pending_arrivals_ = 0;  // submitted, arrive() not yet fired
  std::uint64_t pending_retries_ = 0;   // failures in their backoff window
  /// Open jobs with shed_on_expiry set: shed_expired() early-outs when
  /// zero, so the no-QoS path pays nothing for deadline scanning.
  std::uint64_t shed_armed_ = 0;
};

}  // namespace arcane::sched

#endif  // ARCANE_SCHED_SCHEDULER_HPP_
