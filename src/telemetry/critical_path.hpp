// DAG critical-path extraction over one job's retired op timings.
//
// sched::Scheduler keeps one OpTiming per op in its job table — the one
// record of a retired op — and Scheduler::critical_paths() runs
// critical_path() over every completed job. The walk starts at the job's
// last-finishing op and follows *binding* dependency edges backwards — a
// dep whose finish time equals the op's ready time is the edge that
// actually gated it — and reports the path's composition (which ops,
// which stall buckets) plus the slack of every dependency edge into a path
// op. Because consecutive path steps satisfy ready[k] == finish[k-1], the
// path's bucket totals telescope to exactly (job done - first path op
// ready): the job's latency is fully attributed.
//
// See docs/OBSERVABILITY.md "Critical-path extraction".
#ifndef ARCANE_TELEMETRY_CRITICAL_PATH_HPP_
#define ARCANE_TELEMETRY_CRITICAL_PATH_HPP_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/types.hpp"
#include "sim/stats.hpp"

namespace arcane::telemetry {

/// A retired op's lifetime timestamps and its exclusive stall-bucket
/// decomposition, which tiles [ready, finish] across every attempt.
struct OpTiming {
  Cycle ready = 0;     // first became dispatchable (deps done / job arrival)
  Cycle dispatch = 0;  // picked by an instance (the attempt that finished)
  Cycle finish = 0;    // kernel retired
  sim::OpStallBreakdown breakdown{};
};

/// One op of a job's DAG as the walk reads it: its timing and the op
/// indices (within the same job) it depends on.
struct OpNode {
  const OpTiming& timing;
  const std::vector<unsigned>& deps;
};

/// One op on a job's critical path, in execution order.
struct CriticalPathStep : OpTiming {
  std::uint16_t op = 0;
};

/// A dependency edge into a critical-path op: `slack` is how much later
/// `from` could have finished without delaying `to` (0 for the binding
/// edge the path follows).
struct CriticalPathEdge {
  std::uint16_t from = 0;
  std::uint16_t to = 0;
  Cycle slack = 0;
};

/// A completed job's critical path through its DAG.
struct JobCriticalPath {
  std::uint64_t job_id = 0;
  std::int32_t tenant = -1;
  Cycle start = 0;  // first path op's ready time
  Cycle done = 0;   // last path op's finish time
  std::vector<CriticalPathStep> steps;  // execution order
  std::vector<CriticalPathEdge> edges;  // dep edges into path ops
  sim::OpStallBreakdown totals{};       // sum over steps

  /// Path length; equals totals.total() (the telescoping invariant).
  Cycle length() const { return done - start; }
};

/// The critical path of a completed job whose op i is `ops[i]` (at least
/// one op, every one retired). Ties go to the lowest op index, both for
/// the sink (the last-finishing op) and among binding deps.
JobCriticalPath critical_path(std::uint64_t job_id, std::int32_t tenant,
                              const std::vector<OpNode>& ops);

/// Deterministic JSON array of per-job reports (the "critical_paths" entry
/// of a bench metrics document; consumed by trace_summary.py
/// --critical-path).
void write_critical_paths_json(std::ostream& os,
                               const std::vector<JobCriticalPath>& paths);

}  // namespace arcane::telemetry

#endif  // ARCANE_TELEMETRY_CRITICAL_PATH_HPP_
