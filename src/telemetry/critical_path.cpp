#include "telemetry/critical_path.hpp"

#include <algorithm>
#include <ostream>

namespace arcane::telemetry {

namespace {

void write_breakdown(std::ostream& os, const sim::OpStallBreakdown& bd) {
  os << '{';
  for (unsigned i = 0; i < sim::kNumStallBuckets; ++i) {
    if (i != 0) os << ',';
    os << '"' << sim::stall_bucket_name(static_cast<sim::StallBucket>(i))
       << "\":" << bd.cycles[i];
  }
  os << '}';
}

}  // namespace

JobCriticalPath critical_path(std::uint64_t job_id, std::int32_t tenant,
                              const std::vector<OpNode>& ops) {
  // Sink: the last-finishing op (ties -> lowest op index).
  unsigned cur = 0;
  for (unsigned i = 1; i < ops.size(); ++i) {
    if (ops[i].timing.finish > ops[cur].timing.finish) cur = i;
  }

  JobCriticalPath path;
  path.job_id = job_id;
  path.tenant = tenant;
  path.done = ops[cur].timing.finish;

  // Walk binding edges backwards: the dep whose finish equals this op's
  // ready time is the one that actually gated it. An op ready at job
  // arrival ends the walk. Steps and edges collect in reverse; edges record
  // the slack of every dep (0 on the binding edge by definition).
  for (;;) {
    const OpTiming& t = ops[cur].timing;
    path.steps.push_back({t, static_cast<std::uint16_t>(cur)});
    int binding = -1;
    for (unsigned d : ops[cur].deps) {
      const Cycle dep_finish = ops[d].timing.finish;
      path.edges.push_back(
          {static_cast<std::uint16_t>(d), static_cast<std::uint16_t>(cur),
           t.ready >= dep_finish ? t.ready - dep_finish : Cycle{0}});
      if (dep_finish == t.ready &&
          (binding < 0 || d < static_cast<unsigned>(binding))) {
        binding = static_cast<int>(d);
      }
    }
    if (binding < 0) break;
    cur = static_cast<unsigned>(binding);
  }
  std::reverse(path.steps.begin(), path.steps.end());
  path.start = path.steps.front().ready;
  for (const CriticalPathStep& s : path.steps) path.totals += s.breakdown;
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

void write_critical_paths_json(std::ostream& os,
                               const std::vector<JobCriticalPath>& paths) {
  os << '[';
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const JobCriticalPath& jp = paths[p];
    if (p != 0) os << ',';
    os << "\n  {\"job\":" << jp.job_id << ",\"tenant\":" << jp.tenant
       << ",\"start\":" << jp.start << ",\"done\":" << jp.done
       << ",\"length\":" << jp.length() << ",\"steps\":[";
    for (std::size_t i = 0; i < jp.steps.size(); ++i) {
      const CriticalPathStep& s = jp.steps[i];
      if (i != 0) os << ',';
      os << "\n    {\"op\":" << s.op << ",\"ready\":" << s.ready
         << ",\"dispatch\":" << s.dispatch << ",\"finish\":" << s.finish
         << ",\"stall\":";
      write_breakdown(os, s.breakdown);
      os << '}';
    }
    os << "],\"edges\":[";
    for (std::size_t i = 0; i < jp.edges.size(); ++i) {
      const CriticalPathEdge& e = jp.edges[i];
      if (i != 0) os << ',';
      os << "{\"from\":" << e.from << ",\"to\":" << e.to
         << ",\"slack\":" << e.slack << '}';
    }
    os << "],\"totals\":";
    write_breakdown(os, jp.totals);
    os << '}';
  }
  os << "\n]";
}

}  // namespace arcane::telemetry
