// Shared types of the host-speed benchmark: one case's result, named
// per-layer accumulators, in-memory host-time spans and the workload table.
//
// A workload is a fixed list of cases; one repetition runs every case once.
// Each case builds its own arcane::System and is timed in four phases from
// outside the simulator: construction, operand placement, program assembly
// and load (together `setup_s`), the simulate phase (`wall_s`) and golden
// verification (never timed into `wall_s`).
#ifndef PERFBENCH_BENCH_HPP_
#define PERFBENCH_BENCH_HPP_

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The seed the pinned statistics were taken with (pins/<workload>.txt).
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Host-time spans of a traced run, kept in memory (name, start, end,
/// parent, case id) and written out once the run ends. Disabled spans cost
/// one branch; they are never opened per host data access.
class Spans {
 public:
  void enable();
  bool enabled() const { return enabled_; }
  void set_case(std::uint32_t id) { case_id_ = id; }
  int open(const char* name);
  void close(int idx);
  void write_json(std::ostream& os) const;

 private:
  struct Span {
    const char* name;
    double start, end;
    int parent;
    std::uint32_t case_id;
  };
  bool enabled_ = false;
  Clock::time_point t0_{};
  std::vector<Span> spans_;
  int top_ = -1;
  std::uint32_t case_id_ = 0;
};

Spans& spans();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : idx_(spans().enabled() ? spans().open(name) : -1) {}
  ~ScopedSpan() {
    if (idx_ >= 0) spans().close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int idx_;
};

/// Named per-layer accumulators: counts read from the layers' public stats
/// accessors and host seconds measured around their public entry points.
using Counters = std::map<std::string, double>;

struct CaseResult {
  std::string id;  // stable case name, the key of its pins
  /// Simulated statistics: pinned for the default seed, and required to be
  /// identical across repetitions and between traced and untraced runs.
  std::vector<std::pair<std::string, std::uint64_t>> stats;
  std::string failure;  // why the case failed; empty when it passed
  double system_s = 0, place_s = 0, program_s = 0, sim_s = 0, verify_s = 0;
  double sim_cycles = 0;  // simulated cycles (sim)
  double host_insns = 0;  // host-ISS instructions retired (sim)
  double jobs = 0;        // simulated jobs resolved; a conv case is one job
  Counters layers;
};

struct Workload {
  std::size_t num_cases = 0;
  /// Run case `idx`; `traced` selects the variant that times layers from
  /// outside (lockstep replay or call wrappers) instead of System::run.
  std::function<CaseResult(std::size_t idx, bool traced)> run;
};

/// Empty `num_cases` for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

Workload make_conv_workload(const std::string& name, std::uint64_t seed);
Workload make_serving_workload(std::uint64_t seed);

/// Self-test hook: when armed, the next verified output has one byte
/// flipped before it is compared with the golden model.
void arm_output_corruption();
void maybe_corrupt(std::span<std::uint8_t> bytes);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP_
