#include "sched/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace arcane::sched {

namespace {

/// The scheduler's analogue of the decoder's operand resolution: ops carry
/// operand snapshots directly, so this is a straight field copy.
crt::KernelOp make_kernel_op(const OpSpec& s) {
  crt::KernelOp op;
  op.func5 = s.func5;
  op.et = s.et;
  op.f.alpha = s.alpha;
  op.f.beta = s.beta;
  op.md = s.md;
  op.ms1 = s.ms1;
  op.ms2 = s.ms2;
  op.ms3 = s.ms3;
  return op;
}

bool ranges_overlap(std::pair<Addr, Addr> a, std::pair<Addr, Addr> b) {
  return a.first < b.second && b.first < a.second;
}

/// Does any valid source of `op` overlap `range`?
bool src_overlaps(const OpSpec& op, std::pair<Addr, Addr> range) {
  for (const crt::Operand* s : {&op.ms1, &op.ms2, &op.ms3}) {
    if (s->valid && ranges_overlap(s->range(op.et), range)) return true;
  }
  return false;
}

/// Any dest/dest, dest/src or src/dest overlap between two op specs.
bool specs_conflict(const OpSpec& a, const OpSpec& b) {
  const auto ad = a.md.range(a.et);
  const auto bd = b.md.range(b.et);
  return ranges_overlap(ad, bd) || src_overlaps(a, bd) || src_overlaps(b, ad);
}

}  // namespace

Scheduler::Scheduler(crt::CrtContext& ctx)
    : ctx_(&ctx), cfg_(ctx.cfg), policy_(cfg_->sched_policy) {
  const unsigned n =
      cfg_->sched_instances != 0 ? cfg_->sched_instances : cfg_->llc.num_vpus;
  ARCANE_CHECK(n >= 1 && n <= cfg_->llc.num_vpus,
               "scheduler instance count out of range");
  execs_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    execs_.push_back(std::make_unique<crt::KernelExecutor>(*ctx_, *this, i));
  }
  queues_.resize(n);
  inflight_.resize(n);
  health_.resize(n);
  stats_.instance_occupied.assign(n, 0);
}

unsigned Scheduler::add_tenant(std::string name, unsigned priority) {
  ARCANE_CHECK(tenant_names_.size() < 0xFFFF, "too many tenants");
  ARCANE_CHECK(priority <= 0xFF, "tenant priority class out of range");
  tenant_names_.push_back(std::move(name));
  tenant_priority_.push_back(priority);
  tenant_stats_.emplace_back();
  tenant_stall_.emplace_back();
  const auto t = static_cast<unsigned>(tenant_names_.size() - 1);
  if (metrics_ != nullptr) register_tenant_metrics(t);
  return t;
}

void Scheduler::set_telemetry(telemetry::Registry* reg) {
  metrics_ = reg;
  if (reg == nullptr) return;
  auto bind = [&](const char* name, const std::uint64_t& field) {
    reg->bind(name, [&field] { return field; });
  };
  bind("sched.jobs_submitted", stats_.jobs_submitted);
  bind("sched.jobs_completed", stats_.jobs_completed);
  bind("sched.jobs_dropped", stats_.jobs_dropped);
  bind("sched.ops_dispatched", stats_.ops_dispatched);
  bind("sched.ops_completed", stats_.ops_completed);
  bind("sched.ops_cancelled", stats_.ops_cancelled);
  bind("sched.hazard_deferrals", stats_.hazard_deferrals);
  bind("sched.deadline_misses", stats_.deadline_misses);
  bind("sched.jobs_failed", stats_.jobs_failed);
  bind("sched.retries", stats_.retries);
  bind("sched.failovers", stats_.failovers);
  bind("sched.watchdog_fires", stats_.watchdog_fires);
  bind("sched.quarantines", stats_.quarantines);
  bind("sched.total_queue_wait", stats_.total_queue_wait);
  bind("sched.makespan", stats_.makespan);
  for (unsigned t = 0; t < num_tenants(); ++t) register_tenant_metrics(t);
}

void Scheduler::register_tenant_metrics(unsigned tenant) {
  // Bindings index through `this` at read time, so tenant_stats_ growing
  // (vector reallocation) cannot dangle them.
  const std::string p = "sched.tenant" + std::to_string(tenant) + ".";
  auto bind = [&](const char* name,
                  std::uint64_t sim::TenantStats::* field) {
    metrics_->bind(p + name, [this, tenant, field] {
      return tenant_stats_[tenant].*field;
    });
  };
  bind("jobs_submitted", &sim::TenantStats::jobs_submitted);
  bind("jobs_completed", &sim::TenantStats::jobs_completed);
  bind("jobs_dropped", &sim::TenantStats::jobs_dropped);
  bind("jobs_on_time", &sim::TenantStats::jobs_on_time);
  bind("deadline_misses", &sim::TenantStats::deadline_misses);
  bind("ops_completed", &sim::TenantStats::ops_completed);
  bind("jobs_failed", &sim::TenantStats::jobs_failed);
  bind("retries", &sim::TenantStats::retries);
  bind("failovers", &sim::TenantStats::failovers);
  bind("total_job_latency", &sim::TenantStats::total_job_latency);
  bind("total_queue_wait", &sim::TenantStats::total_queue_wait);
  bind("last_completion", &sim::TenantStats::last_completion);
  for (unsigned i = 0; i < sim::kNumStallBuckets; ++i) {
    const auto b = static_cast<sim::StallBucket>(i);
    metrics_->bind(p + "stall." + sim::stall_bucket_name(b), [this, tenant, i] {
      return tenant_stall_[tenant].cycles[i];
    });
  }
}

std::uint64_t Scheduler::submit(unsigned tenant, JobSpec job, Cycle arrival) {
  ARCANE_CHECK(tenant < num_tenants(), "submit for unknown tenant " << tenant);
  const std::string why = validate(job);
  ARCANE_CHECK(why.empty(), "malformed job: " << why);
  // Plan every op now: malformed shapes are rejected at submit, and the
  // validated plan is kept for dispatch.
  std::vector<crt::Plan> plans;
  plans.reserve(job.ops.size());
  for (const OpSpec& s : job.ops) plans.push_back(plan_op(s));

  JobState js;
  js.id = next_job_id_++;
  js.tenant = tenant;
  js.arrival = arrival;
  js.deadline = job.deadline;
  js.shed_on_expiry = job.shed_on_expiry && job.deadline != 0;
  js.tag = job.tag;
  js.ops_left = static_cast<unsigned>(job.ops.size());
  js.dag = std::make_unique<DagState>(job);  // reads deps: build before moves
  js.ops.reserve(job.ops.size());
  for (std::size_t i = 0; i < job.ops.size(); ++i) {
    OpState os;
    os.spec = std::move(job.ops[i]);
    os.plan = std::move(plans[i]);
    js.ops.push_back(std::move(os));
  }
  const auto job_idx = static_cast<std::uint32_t>(jobs_.size());
  if (js.shed_on_expiry) ++shed_armed_;
  jobs_.push_back(std::move(js));
  ++jobs_open_;
  ++stats_.jobs_submitted;
  ++tenant_stats_[tenant].jobs_submitted;

  const Cycle when = std::max(arrival, ctx_->events->now());
  if (ctx_->spans != nullptr) {
    ctx_->spans->instant(telemetry::track_tenant(tenant), "job.submit", when,
                         static_cast<std::int32_t>(tenant),
                         static_cast<std::int64_t>(jobs_.back().id));
  }
  ++pending_arrivals_;
  ctx_->events->schedule(
      when, [this, job_idx] { arrive(job_idx, ctx_->events->now()); },
      "sched.arrive");
  return jobs_.back().id;
}

crt::Plan Scheduler::plan_op(const OpSpec& s) const {
  const crt::KernelInfo* info = ctx_->library.find(s.func5);
  ARCANE_CHECK(info != nullptr,
               "job uses unknown kernel id " << unsigned(s.func5));
  ARCANE_CHECK(s.md.valid, info->name << ": destination operand missing");
  ARCANE_CHECK(!info->uses_ms1 || s.ms1.valid,
               info->name << ": ms1 operand missing");
  ARCANE_CHECK(!info->uses_ms2 || s.ms2.valid,
               info->name << ": ms2 operand missing");
  ARCANE_CHECK(!info->uses_ms3 || s.ms3.valid,
               info->name << ": ms3 operand missing");
  crt::Plan plan = info->planner(make_kernel_op(s), *cfg_);
  ARCANE_CHECK(plan.ok(), info->name << ": " << plan.error);
  ARCANE_CHECK(plan.chains.size() == 1,
               info->name << ": multi-chain plans cannot be pinned to one "
                             "instance (disable multi_vpu_kernels)");
  return plan;
}

void Scheduler::drain() {
  ctx_->events->run_all();
  ARCANE_CHECK(jobs_open_ == 0, "scheduler drained with "
                                    << jobs_open_ << " unfinished job(s) —"
                                    << queue_dump());
}

std::string Scheduler::queue_dump() const {
  std::string dump;
  for (unsigned k = 0; k < queues_.size(); ++k) {
    dump += " inst" + std::to_string(k) + " queued=" +
            std::to_string(queues_[k].size()) +
            " inflight=" + std::to_string(inflight_[k].valid ? 1 : 0);
    if (health_[k].quarantined) dump += " [quarantined]";
    dump += ";";
  }
  return dump;
}

void Scheduler::arrive(std::uint32_t job_idx, Cycle t) {
  ARCANE_ASSERT(pending_arrivals_ > 0, "arrival accounting underflow");
  --pending_arrivals_;
  for (unsigned r : jobs_[job_idx].dag->roots()) op_ready(job_idx, r, t);
  try_dispatch(t);
}

void Scheduler::op_ready(std::uint32_t job_idx, unsigned op_idx, Cycle t) {
  jobs_[job_idx].ops[op_idx].timing.ready = t;
  park(job_idx, op_idx, -1, t);
}

void Scheduler::park(std::uint32_t job_idx, unsigned op_idx, int avoid,
                     Cycle t) {
  JobState& js = jobs_[job_idx];
  OpState& os = js.ops[op_idx];
  os.ready_at = t;
  os.hazard_marked = false;
  os.hazard_since = 0;
  ReadyEntry e;
  e.job = job_idx;
  e.op = static_cast<std::uint16_t>(op_idx);
  e.tenant = static_cast<std::uint16_t>(js.tenant);
  e.priority = static_cast<std::uint8_t>(tenant_priority_[js.tenant]);
  e.est_cost = estimate_cost(os.spec);
  e.seq = ready_seq_++;
  queues_[pick_park_instance(avoid)].push(e);
}

void Scheduler::migrate_queue(unsigned inst) {
  std::vector<ReadyEntry> moved(queues_[inst].entries().begin(),
                                queues_[inst].entries().end());
  queues_[inst].erase_if([](const ReadyEntry&) { return true; });
  for (const ReadyEntry& e : moved) queues_[pick_park_instance(-1)].push(e);
}

unsigned Scheduler::pick_park_instance(int avoid) const {
  // Ties go to the lowest instance for determinism. With every instance
  // healthy (the fault-free fast path) and no `avoid`, this is plain
  // least-loaded. With every instance quarantined the op parks on the
  // least-loaded one and dispatches when some instance recovers.
  unsigned best = 0;
  std::pair<unsigned, std::size_t> best_key{~0u, 0};
  for (unsigned k = 0; k < queues_.size(); ++k) {
    const unsigned rank = health_[k].quarantined         ? 2
                          : static_cast<int>(k) == avoid ? 1
                                                         : 0;
    const std::pair<unsigned, std::size_t> key{
        rank, queues_[k].size() + (inflight_[k].valid ? 1 : 0)};
    if (key < best_key) {
      best = k;
      best_key = key;
    }
  }
  return best;
}

void Scheduler::shed_expired(Cycle t) {
  if (shed_armed_ == 0) return;  // no open job can expire: free fast path
  // Collect first: cancel_open_ops mutates every queue. A job whose
  // remaining ops are all waiting on in-flight dependencies has no queued
  // entry yet; it is caught here on the completion event that readies them,
  // before any dispatch.
  std::vector<std::uint32_t> expired;
  for (const ReadyQueue& q : queues_) {
    for (const ReadyEntry& e : q.entries()) {
      const JobState& js = jobs_[e.job];
      if (js.shed_on_expiry && !js.dropped && t >= js.deadline) {
        expired.push_back(e.job);
      }
    }
  }
  std::sort(expired.begin(), expired.end());
  expired.erase(std::unique(expired.begin(), expired.end()), expired.end());
  for (std::uint32_t job_idx : expired) {
    cancel_open_ops(job_idx);
    resolve(job_idx, Outcome::kShed, t);
  }
}

unsigned Scheduler::cancel_open_ops(std::uint32_t job_idx) {
  JobState& js = jobs_[job_idx];
  ARCANE_ASSERT(!js.dropped, "job resolved twice");
  js.dropped = true;
  for (ReadyQueue& q : queues_) {
    q.erase_if([job_idx](const ReadyEntry& e) { return e.job == job_idx; });
  }
  // Ops already on an instance run to completion (a launched kernel cannot
  // be recalled); everything else is cancelled. In-flight completions see
  // the dropped flag, decrement ops_left and wake no waiters.
  unsigned inflight_ops = 0;
  for (const InFlight& fl : inflight_) {
    if (fl.valid && fl.job == job_idx) ++inflight_ops;
  }
  ARCANE_ASSERT(js.ops_left >= inflight_ops, "cancel accounting underflow");
  const unsigned cancelled = js.ops_left - inflight_ops;
  stats_.ops_cancelled += cancelled;
  js.ops_left = inflight_ops;
  return cancelled;
}

void Scheduler::resolve(std::uint32_t job_idx, Outcome outcome, Cycle t) {
  JobState& js = jobs_[job_idx];
  sim::TenantStats& ts = tenant_stats_[js.tenant];
  const JobReport rep{js.id, js.tenant, js.arrival, js.first_dispatch,
                      t, js.deadline, js.tag,
                      /*dropped=*/outcome == Outcome::kShed,
                      /*failed=*/outcome == Outcome::kFailed,
                      js.retries, js.failovers};
  const char* span = "job";
  auto span_arg = static_cast<std::int64_t>(js.deadline);
  switch (outcome) {
    case Outcome::kCompleted:
      ++stats_.jobs_completed;
      stats_.makespan = std::max(stats_.makespan, t);
      ++ts.jobs_completed;
      ts.total_job_latency += t - js.arrival;
      ts.last_completion = std::max(ts.last_completion, t);
      if (js.deadline != 0 && t > js.deadline) {
        ++ts.deadline_misses;
        ++stats_.deadline_misses;
      } else {
        ++ts.jobs_on_time;
      }
      completed_.push_back(rep);
      break;
    case Outcome::kShed:
      ++stats_.jobs_dropped;
      ++ts.jobs_dropped;
      shed_.push_back(rep);
      span = "job.shed";
      break;
    case Outcome::kFailed:
      ++stats_.jobs_failed;
      ++ts.jobs_failed;
      failed_.push_back(rep);
      span = "job.fail";
      span_arg = js.retries;
      break;
  }
  if (js.shed_on_expiry) {
    ARCANE_ASSERT(shed_armed_ > 0, "shed-armed accounting underflow");
    --shed_armed_;
  }
  ARCANE_ASSERT(jobs_open_ > 0, "job accounting underflow");
  --jobs_open_;
  if (ctx_->spans != nullptr) {
    ctx_->spans->span(telemetry::track_tenant(js.tenant), span, js.arrival, t,
                      static_cast<std::int32_t>(js.tenant),
                      static_cast<std::int64_t>(js.id), span_arg);
  }
  // Last: the observer may submit, which grows jobs_ and invalidates js.
  if (on_job_done_) on_job_done_(rep);
}

void Scheduler::try_dispatch(Cycle t) {
  shed_expired(t);
  for (unsigned inst = 0; inst < queues_.size(); ++inst) {
    if (health_[inst].quarantined) continue;
    if (inflight_[inst].valid || queues_[inst].empty()) continue;
    // Flatten all queued entries once per scan for the older-conflict
    // check (the per-candidate walk is then one linear pass; queues are
    // short relative to simulation cost, so O(queued^2) range checks per
    // scan are acceptable — revisit if admission control ever allows
    // unbounded backlogs). queued_scratch_ is a member so the per-scan
    // flatten reuses its capacity instead of allocating on every dispatch.
    queued_scratch_.clear();
    for (const ReadyQueue& q : queues_) {
      for (const ReadyEntry& other : q.entries()) {
        queued_scratch_.emplace_back(other.seq,
                                     &jobs_[other.job].ops[other.op].spec);
      }
    }
    const auto eligible = [this, t](const ReadyEntry& e) {
      OpState& os = jobs_[e.job].ops[e.op];
      bool ok = !conflicts(os.spec);
      if (ok) {
        for (const auto& [seq, other] : queued_scratch_) {
          if (seq < e.seq && specs_conflict(*other, os.spec)) {
            ok = false;
            break;
          }
        }
      }
      // Stall accounting: an op's wait splits into queue_wait before the
      // first scan that held it back for a hazard and hazard_defer after.
      // Scan order is a pure function of event order, so the split is
      // deterministic.
      if (!ok && !os.hazard_marked) {
        os.hazard_marked = true;
        os.hazard_since = t;
      }
      return ok;
    };
    const std::size_t pick =
        queues_[inst].pick(policy_, num_tenants(), rr_last_, eligible);
    if (pick == ReadyQueue::kNone) {
      // Every queued op overlaps an in-flight kernel's ranges or waits on
      // an older conflicting op; retried at the next completion event.
      ++stats_.hazard_deferrals;
      continue;
    }
    const ReadyEntry e = queues_[inst].take(pick);
    rr_last_ = e.tenant;
    dispatch(inst, e, t);
  }
  check_liveness(t);
}

void Scheduler::check_liveness(Cycle t) const {
  if (jobs_open_ == 0) return;
  std::size_t queued = 0;
  for (const ReadyQueue& q : queues_) queued += q.size();
  if (queued == 0) return;  // remaining ops wait on in-flight dependencies
  for (const InFlight& fl : inflight_) {
    if (fl.valid) return;  // a completion event will rescan
  }
  if (pending_arrivals_ != 0 || pending_retries_ != 0) return;
  // Under an active fault plan a total stall is a legitimate outcome
  // (e.g. a permanent whole-fleet fail-stop); drain() reports it with the
  // same dump instead of asserting here.
  if (injector_ != nullptr && injector_->plan_active()) return;
  ARCANE_ASSERT(false, "scheduler wedged at cycle "
                           << t << ": " << jobs_open_ << " open job(s), "
                           << queued
                           << " queued op(s), nothing in flight and no "
                              "pending arrival/retry —"
                           << queue_dump());
}

void Scheduler::dispatch(unsigned inst, const ReadyEntry& e, Cycle t) {
  // The hazard tracking above only covers scheduler-launched kernels: a
  // host-program offload queued or in flight could race this dispatch for
  // lines and operand ranges.
  ctx_->check_one_offload_path(crt::CrtContext::FrontEnd::kScheduler);
  ++ctx_->sched_kernels;
  JobState& js = jobs_[e.job];
  OpState& os = js.ops[e.op];
  const OpSpec& spec = os.spec;

  crt::KernelOp op = make_kernel_op(spec);
  op.uid = ctx_->next_uid++;
  // Ops dispatch exactly once per attempt; a retry re-planned the spec
  // into os.plan before requeueing (requeue_op).
  crt::Plan plan = std::move(os.plan);
  // A resident copy (a host-program kernel may have left one, on any VPU)
  // overlapping the destination is about to be superseded: materialize a
  // deferred write-back, then drop the record so no later kernel forwards
  // stale data — the same step as Runtime::try_start.
  ctx_->drop_residents(plan.dest_lo, plan.dest_hi);

  // Failover accounting: a retry attempt landing on a different instance
  // than the failed one is a failover.
  if (os.attempts > 0 && inst != os.prev_instance) {
    ++stats_.failovers;
    ++tenant_stats_[js.tenant].failovers;
    ++js.failovers;
    if (ctx_->spans != nullptr) {
      ctx_->spans->instant(telemetry::track_vpu(inst), "sched.failover", t,
                           static_cast<std::int32_t>(js.tenant),
                           static_cast<std::int64_t>(js.id),
                           static_cast<std::int64_t>(os.prev_instance));
    }
  }
  os.prev_instance = inst;
  ++os.attempts;

  // Dispatch runs on the shared eCPU: kernel-library lookup, preamble with
  // per-line CT status marking (same budget as the decoder's path, minus
  // the bridge IRQ entry the direct-submit path does not take), then the
  // scheduling decision itself.
  const Cycle decode_cost = ctx_->costs.decode_lookup +
                            ctx_->costs.kernel_preamble +
                            ctx_->marking_cost(op, plan);
  const Cycle start = std::max(t, ctx_->ecpu_free);
  ctx_->charge_ecpu(start, decode_cost, ctx_->costs.schedule);

  // AT registration is the decoder's rule: host traffic to in-flight
  // ranges stalls coherently.
  ctx_->register_at_ranges(op, plan);

  InFlight fl;
  fl.valid = true;
  fl.job = e.job;
  fl.op = e.op;
  fl.dispatch_at = t;
  // Pre-execution buckets: [ready, first hazard hold-back) is queue_wait,
  // [hold-back, dispatch) is hazard_defer, and the eCPU decode + schedule
  // slice [t, ecpu_free) is dispatch. The executor's breakdown tiles the
  // rest, [ecpu_free, finish) — composed and checked at completion.
  {
    const Cycle hz_from = os.hazard_marked ? os.hazard_since : t;
    fl.pre[sim::StallBucket::kQueueWait] += hz_from - os.ready_at;
    fl.pre[sim::StallBucket::kHazardDefer] += t - hz_from;
    fl.pre[sim::StallBucket::kDispatch] += ctx_->ecpu_free - t;
  }
  fl.dispatch_seq = ++dispatch_seq_;
  fl.post_dispatch = ctx_->ecpu_free;
  // Consult the fault plan: a one-shot op fault armed for this instance
  // turns this dispatch into a hang (never completes) or an error (runs,
  // then reports failure). The injector is consulted *after* all timing
  // is charged, so a consumed fault never changes costs already paid.
  if (injector_ != nullptr) {
    fl.verdict = injector_->next_op_fault(inst, t);
  }
  const bool hung = fl.verdict == fault::OpVerdict::kHang;
  inflight_[inst] = std::move(fl);

  if (!js.dispatched_any) {
    js.dispatched_any = true;
    js.first_dispatch = t;
  }
  ++stats_.ops_dispatched;
  stats_.total_queue_wait += t - os.ready_at;
  tenant_stats_[js.tenant].total_queue_wait += t - os.ready_at;

  if (ctx_->spans != nullptr) {
    ctx_->spans->span(telemetry::track_tenant(js.tenant), "queue", os.ready_at,
                      t, static_cast<std::int32_t>(js.tenant),
                      static_cast<std::int64_t>(js.id),
                      static_cast<std::int64_t>(e.op));
    ctx_->spans->span(telemetry::kTrackEcpu, "sched.dispatch", start,
                      ctx_->ecpu_free, static_cast<std::int32_t>(js.tenant),
                      static_cast<std::int64_t>(js.id),
                      static_cast<std::int64_t>(op.uid));
  }

  if (!hung) {
    execs_[inst]->launch(std::move(op), std::move(plan), {inst}, t);
    return;
  }
  // Per-op watchdog: only injected hangs are abortable (real completions
  // are already-scheduled events), so only a hang arms the timer.
  if (cfg_->fault.watchdog_timeout != 0) {
    const std::uint64_t seq = inflight_[inst].dispatch_seq;
    ctx_->events->schedule(
        t + cfg_->fault.watchdog_timeout,
        [this, inst, seq] { watchdog_fire(inst, seq, ctx_->events->now()); },
        "sched.watchdog");
  }
  // A hung kernel never reaches the executor: it looks launched (the same
  // instant the executor emits) but no chain runs, no line is claimed and
  // no DMA moves; the slot holds it until the abort retires it.
  if (ctx_->spans != nullptr) {
    ctx_->spans->instant(telemetry::track_vpu(inst), "kernel.launch", t,
                         /*tenant=*/-1,
                         /*job=*/static_cast<std::int64_t>(op.uid),
                         /*arg=*/op.func5);
  }
  inflight_[inst].hung_op = std::move(op);
}

void Scheduler::on_kernel_finish(crt::KernelExecutor& ex,
                                 crt::FinishedKernel fin, Cycle t) {
  const unsigned inst = ex.id();
  ARCANE_ASSERT(inflight_[inst].valid, "finish on an idle instance");
  const InFlight fl = release_slot(inst, fin.op, t);

  JobState& js = jobs_[fl.job];
  OpState& os = js.ops[fl.op];
  if (ctx_->spans != nullptr) {
    ctx_->spans->span(telemetry::track_tenant(js.tenant), "op", fl.dispatch_at,
                      t, static_cast<std::int32_t>(js.tenant),
                      static_cast<std::int64_t>(js.id),
                      static_cast<std::int64_t>(fin.op.uid));
  }

  // Compose the full exclusive stall breakdown of this op's lifetime. The
  // scheduler planned the pre-execution buckets at dispatch and the executor
  // segmented [eCPU handoff, finish); together they must tile
  // [ready, finish] exactly — cycles neither lost nor double-counted.
  sim::OpStallBreakdown bd = fin.breakdown;
  bd += fl.pre;

  if (fl.doomed || fl.verdict != fault::OpVerdict::kNone) {
    // Fault-injected failure (transient / DMA error, or the instance
    // fail-stopped while this op executed).
    if (ctx_->spans != nullptr) {
      ctx_->spans->instant(telemetry::track_vpu(inst), "sched.op_fail", t,
                           static_cast<std::int32_t>(js.tenant),
                           static_cast<std::int64_t>(js.id),
                           static_cast<std::int64_t>(fl.verdict));
    }
    fail_attempt(inst, fl, bd, t);
    try_dispatch(t);
    return;
  }
  if (injector_ != nullptr) note_op_outcome(inst, /*ok=*/true, t);

  ++stats_.ops_completed;
  telemetry::OpTiming& rec = os.timing;
  rec.dispatch = fl.dispatch_at;
  rec.finish = t;
  rec.breakdown += bd;  // onto failed attempts + backoff (zero fault-free)
  ARCANE_ASSERT(rec.breakdown.total() == t - rec.ready,
                "op stall buckets sum to " << rec.breakdown.total()
                << " but op latency is " << (t - rec.ready) << " (job "
                << js.id << " op " << fl.op << ")");
  ctx_->stall_totals += rec.breakdown;
  tenant_stall_[js.tenant] += rec.breakdown;

  if (js.dropped) {
    // The job was shed while this op was on an instance: the work is done
    // (and already paid for) but wakes no waiters and completes nothing.
    ARCANE_ASSERT(js.ops_left > 0, "job op accounting underflow");
    --js.ops_left;
    try_dispatch(t);
    return;
  }
  ++tenant_stats_[js.tenant].ops_completed;

  for (unsigned w : js.dag->complete(fl.op)) op_ready(fl.job, w, t);

  ARCANE_ASSERT(js.ops_left > 0, "job op accounting underflow");
  if (--js.ops_left == 0) resolve(fl.job, Outcome::kCompleted, t);
  try_dispatch(t);
}

void Scheduler::watchdog_fire(unsigned inst, std::uint64_t seq, Cycle t) {
  const InFlight& cur = inflight_[inst];
  // Stale token: a fail-stop already aborted the hang (events cannot be
  // cancelled) and the slot may since hold another op.
  if (!cur.valid || cur.dispatch_seq != seq) return;
  ++stats_.watchdog_fires;
  if (ctx_->spans != nullptr) {
    const JobState& js = jobs_[cur.job];
    ctx_->spans->instant(telemetry::track_vpu(inst), "sched.watchdog", t,
                         static_cast<std::int32_t>(js.tenant),
                         static_cast<std::int64_t>(js.id),
                         static_cast<std::int64_t>(cur.op));
  }
  abort_hung_inflight(inst, t);
  try_dispatch(t);
}

void Scheduler::abort_hung_inflight(unsigned inst, Cycle t) {
  ARCANE_ASSERT(inflight_[inst].valid &&
                    inflight_[inst].verdict == fault::OpVerdict::kHang,
                "abort of a non-hung instance");
  // The hung kernel registered AT ranges at dispatch but never claimed
  // lines or ran DMA; releasing them lets a retry re-register cleanly
  // (idempotent re-dispatch).
  const InFlight fl = release_slot(inst, inflight_[inst].hung_op, t);
  // The pre-dispatch buckets are real work; the hung window [launch,
  // abort] is failure-handling time, charged to retry_backoff so the
  // telescoping invariant spans the abort. An abort inside the eCPU
  // dispatch slice (a short watchdog or an early fail-stop) cuts that
  // slice at `t` instead: no bucket goes below zero.
  sim::OpStallBreakdown attempt = fl.pre;
  if (t >= fl.post_dispatch) {
    attempt[sim::StallBucket::kRetryBackoff] += t - fl.post_dispatch;
  } else {
    attempt[sim::StallBucket::kDispatch] -= fl.post_dispatch - t;
  }
  fail_attempt(inst, fl, attempt, t);
}

Scheduler::InFlight Scheduler::release_slot(unsigned inst,
                                            const crt::KernelOp& op, Cycle t) {
  // Retire first: `op` may live in the slot (a hung kernel).
  ctx_->retire(op, /*keep_dest_entry=*/false, /*keep_lines=*/false);
  --ctx_->sched_kernels;
  InFlight fl = std::move(inflight_[inst]);
  inflight_[inst] = InFlight{};
  stats_.instance_occupied[inst] += t - fl.dispatch_at;
  return fl;
}

void Scheduler::fail_attempt(unsigned inst, const InFlight& fl,
                             const sim::OpStallBreakdown& attempt, Cycle t) {
  ARCANE_ASSERT(injector_ != nullptr, "op failure without a fault plan");
  const std::uint32_t job_idx = fl.job;
  const unsigned op_idx = fl.op;
  JobState& js = jobs_[job_idx];
  OpState& os = js.ops[op_idx];
  // The attempt's cycles fold into the op's breakdown: the telescoping
  // check runs at the completion that finally succeeds.
  os.timing.breakdown += attempt;
  if (js.dropped) {
    // Shed or failed while on the instance: the attempt is cancelled with
    // the job.
    ARCANE_ASSERT(js.ops_left > 0, "job op accounting underflow");
    --js.ops_left;
    return;
  }
  note_op_outcome(inst, /*ok=*/false, t);
  if (os.attempts > cfg_->fault.max_retries) {
    fail_job(job_idx, t);
    return;
  }
  ++js.retries;
  ++stats_.retries;
  ++tenant_stats_[js.tenant].retries;
  const Cycle backoff = cfg_->fault.retry_backoff;
  os.timing.breakdown[sim::StallBucket::kRetryBackoff] += backoff;
  if (ctx_->spans != nullptr) {
    ctx_->spans->instant(telemetry::track_tenant(js.tenant), "sched.retry", t,
                         static_cast<std::int32_t>(js.tenant),
                         static_cast<std::int64_t>(js.id),
                         static_cast<std::int64_t>(op_idx));
  }
  ++pending_retries_;
  ctx_->events->schedule(
      t + backoff,
      [this, job_idx, op_idx, inst] {
        requeue_op(job_idx, op_idx, inst, ctx_->events->now());
      },
      "sched.retry");
}

void Scheduler::requeue_op(std::uint32_t job_idx, unsigned op_idx,
                           unsigned prev_inst, Cycle t) {
  ARCANE_ASSERT(pending_retries_ > 0, "retry accounting underflow");
  --pending_retries_;
  JobState& js = jobs_[job_idx];
  if (js.dropped) {
    // Shed (or failed via a sibling op) during the backoff window: the op
    // was already cancelled by cancel_open_ops.
    try_dispatch(t);
    return;
  }
  // Idempotent re-dispatch: re-plan from the immutable spec; AT
  // registration and operand reload re-run inside dispatch exactly like a
  // first attempt.
  OpState& os = js.ops[op_idx];
  os.plan = plan_op(os.spec);
  park(job_idx, op_idx, static_cast<int>(prev_inst), t);
  try_dispatch(t);
}

void Scheduler::fail_job(std::uint32_t job_idx, Cycle t) {
  // The exhausted op itself counts as cancelled (dispatched attempts, no
  // completion), hence strictly more ops left than in flight. In-flight
  // siblings complete without waking waiters, as for a shed job.
  const unsigned cancelled = cancel_open_ops(job_idx);
  ARCANE_ASSERT(cancelled > 0, "fail accounting underflow");
  resolve(job_idx, Outcome::kFailed, t);
}

void Scheduler::note_op_outcome(unsigned inst, bool ok, Cycle t) {
  Health& h = health_[inst];
  if (ok) {
    h.consecutive_failures = 0;
    return;
  }
  ++h.consecutive_failures;
  const unsigned threshold = cfg_->fault.quarantine_threshold;
  if (threshold != 0 && !h.quarantined &&
      h.consecutive_failures >= threshold) {
    quarantine(inst, t);
  }
}

void Scheduler::quarantine(unsigned inst, Cycle t) {
  Health& h = health_[inst];
  if (h.quarantined) return;
  h.quarantined = true;
  ++stats_.quarantines;
  if (ctx_->spans != nullptr) {
    ctx_->spans->instant(telemetry::track_vpu(inst), "sched.quarantine", t,
                         -1, -1, static_cast<std::int64_t>(inst));
  }
  migrate_queue(inst);
}

void Scheduler::on_instance_fail(unsigned inst, Cycle t) {
  ARCANE_ASSERT(inst < num_instances(), "fail-stop on unknown instance");
  quarantine(inst, t);
  if (inflight_[inst].valid) {
    if (inflight_[inst].verdict == fault::OpVerdict::kHang) {
      // Nothing will ever complete it: abort and route the failure now.
      abort_hung_inflight(inst, t);
    } else {
      // The completion event is already scheduled (simulated events cannot
      // be cancelled); it observes the doom flag and reports failure
      // when it fires.
      inflight_[inst].doomed = true;
    }
  }
  try_dispatch(t);
}

void Scheduler::on_instance_recover(unsigned inst, Cycle t) {
  ARCANE_ASSERT(inst < num_instances(), "recovery on unknown instance");
  Health& h = health_[inst];
  if (!h.quarantined) return;
  h.quarantined = false;
  h.consecutive_failures = 0;
  if (ctx_->spans != nullptr) {
    ctx_->spans->instant(telemetry::track_vpu(inst), "sched.readmit", t, -1,
                         -1, static_cast<std::int64_t>(inst));
  }
  // Work parked while every instance was quarantined would otherwise stay
  // stranded on an instance that may never return.
  for (unsigned k = 0; k < queues_.size(); ++k) {
    if (health_[k].quarantined) migrate_queue(k);
  }
  try_dispatch(t);
}

std::vector<telemetry::JobCriticalPath> Scheduler::critical_paths() const {
  std::vector<telemetry::JobCriticalPath> paths;
  std::vector<telemetry::OpNode> nodes;
  for (const JobState& js : jobs_) {  // ascending id
    if (js.dropped || js.ops_left != 0) continue;  // shed, failed or open
    nodes.clear();
    for (const OpState& os : js.ops) nodes.push_back({os.timing, os.spec.deps});
    paths.push_back(telemetry::critical_path(
        js.id, static_cast<std::int32_t>(js.tenant), nodes));
  }
  return paths;
}

bool Scheduler::conflicts(const OpSpec& spec) const {
  for (const InFlight& fl : inflight_) {
    if (fl.valid && specs_conflict(jobs_[fl.job].ops[fl.op].spec, spec)) {
      return true;
    }
  }
  return false;
}

std::uint64_t Scheduler::estimate_cost(const OpSpec& spec) const {
  // Footprint proxy: bytes the allocation + write-back DMA would move.
  return static_cast<std::uint64_t>(spec.md.footprint(spec.et)) +
         spec.ms1.footprint(spec.et) + spec.ms2.footprint(spec.et) +
         spec.ms3.footprint(spec.et);
}

}  // namespace arcane::sched
