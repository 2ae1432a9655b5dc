// perfbench — host-speed benchmark of the ARCANE simulator (README.md).
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--pins FILE] [--write-pins FILE] [--spans-out FILE]
//             [--git-sha SHA] [--git-dirty 0|1]
//             [--inject corrupt-output|wrong-pin]
//
// Untraced (--trace 0): repeats the workload until --seconds have passed and
// prints the end-to-end metrics. Traced (--trace 1): spends half the budget
// untraced and half on the traced variant, and prints the per-layer
// metrics. Every case is checked against its golden model and against the
// pinned simulated statistics (default seed) or, for any other seed,
// against its first untraced repetition. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}; the exit code is 0 only
// when no case failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

// ------------------------------ spans -------------------------------------

Spans& spans() {
  static Spans s;
  return s;
}

void Spans::enable() {
  enabled_ = true;
  t0_ = Clock::now();
}

int Spans::open(const char* name) {
  spans_.push_back({name, since(t0_), 0.0, top_, case_id_});
  top_ = static_cast<int>(spans_.size()) - 1;
  return top_;
}

void Spans::close(int idx) {
  spans_[idx].end = since(t0_);
  top_ = spans_[idx].parent;
}

void Spans::write_json(std::ostream& os) const {
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_s\":"
       << s.start << ",\"end_s\":" << s.end << ",\"parent\":" << s.parent
       << ",\"case\":" << s.case_id << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

// ---------------------------- self-test hook ------------------------------

namespace {
bool corrupt_armed = false;
}  // namespace

void arm_output_corruption() { corrupt_armed = true; }

void maybe_corrupt(std::span<std::uint8_t> bytes) {
  if (!corrupt_armed || bytes.empty()) return;
  bytes[bytes.size() / 2] ^= 0x01;
  corrupt_armed = false;
}

// ------------------------------ workloads ---------------------------------

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "serving") return make_serving_workload(seed);
  return make_conv_workload(name, seed);
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string pins, write_pins, spans_out, inject;
  std::string git_sha = "unknown", git_dirty = "unknown";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "perfbench: " << msg << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--pins") a.pins = v;
      else if (flag == "--write-pins") a.write_pins = v;
      else if (flag == "--spans-out") a.spans_out = v;
      else if (flag == "--git-sha") a.git_sha = v;
      else if (flag == "--git-dirty") a.git_dirty = v;
      else if (flag == "--inject") a.inject = v;
      else usage_error("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag + ": " + v);
    }
  }
  if (!a.inject.empty() && a.inject != "corrupt-output" &&
      a.inject != "wrong-pin") {
    usage_error("--inject takes corrupt-output or wrong-pin");
  }
  if (!(a.seconds > 0)) usage_error("--seconds must be positive");
  return a;
}

// -------------------------------- pins ------------------------------------

using Stats = std::vector<std::pair<std::string, std::uint64_t>>;
using Pins = std::map<std::string, Stats>;  // case id -> pinned statistics

// One line per case: "<case-id> <stat>=<value> ...".
Pins load_pins(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage_error("cannot read pins file " + path);
  Pins pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string id, kv;
    ls >> id;
    Stats& s = pins[id];
    while (ls >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) usage_error("malformed pin " + kv);
      s.emplace_back(kv.substr(0, eq), std::stoull(kv.substr(eq + 1)));
    }
  }
  return pins;
}

void write_pins(const std::string& path, const std::string& workload,
                std::uint64_t seed, const std::vector<std::string>& ids,
                const std::vector<Stats>& stats) {
  std::ofstream out(path);
  out << "# perfbench pins: workload " << workload << ", seed " << seed
      << "; regenerate with: python3 perfbench/run.py --write-pins\n";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out << ids[i];
    for (const auto& [k, v] : stats[i]) out << ' ' << k << '=' << v;
    out << '\n';
  }
  if (!out) usage_error("cannot write pins file " + path);
}

/// Empty when equal; otherwise names every differing statistic.
std::string diff_stats(const Stats& want, const Stats& got) {
  std::string d;
  if (want.size() != got.size()) return "statistic list differs in length";
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i] != got[i]) {
      d += (d.empty() ? "" : ", ") + got[i].first + " " +
           std::to_string(got[i].second) + " != expected " + want[i].first +
           " " + std::to_string(want[i].second);
    }
  }
  return d;
}

// ------------------------------ running -----------------------------------

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}


// Only sums are kept per repetition: storing every CaseResult would grow
// the process with the repetition count and blur peak_rss_mb.
struct Rep {
  std::vector<double> case_sim_s;
  double system_s = 0, place_s = 0, program_s = 0, wall_s = 0, verify_s = 0;
  double cycles = 0, insns = 0, jobs = 0;
  Counters layers;
};

struct Run {
  Run(const Args& a, Workload w) : args(a), wl(std::move(w)) {}

  const Args& args;
  Workload wl;
  const Pins* pins = nullptr;            // default seed: pinned statistics
  std::vector<std::string> ids;          // per case, from the first repetition
  std::vector<Stats> reference;          // per case: first untraced result
  std::size_t attempted = 0, failed = 0;
  bool trace_violation = false;

  void check(std::size_t idx, CaseResult& c, bool traced) {
    std::string why = c.failure;
    auto note = [&why](const std::string& s) {
      why += (why.empty() ? "" : "; ") + s;
    };
    if (pins != nullptr) {
      const auto it = pins->find(c.id);
      if (it == pins->end()) {
        note("no pin for case");
      } else if (const auto d = diff_stats(it->second, c.stats); !d.empty()) {
        note("pin mismatch: " + d);
      }
    }
    if (idx < reference.size()) {
      if (const auto d = diff_stats(reference[idx], c.stats); !d.empty()) {
        note("differs from the first untraced run: " + d);
      }
    } else if (!traced) {
      ids.push_back(c.id);
      reference.push_back(c.stats);
    }
    const auto m = c.layers.find("hostpath.replay_mismatches");
    if (m != c.layers.end() && m->second != 0) {
      note(num(m->second) + " host-path replay mismatches");
    }
    ++attempted;
    if (!why.empty()) {
      ++failed;
      trace_violation |= traced;
      std::cerr << "FAIL " << args.workload << " case " << c.id
                << (traced ? " (traced)" : "") << ": " << why << "\n";
    }
    c.failure = why;
  }

  Rep run_rep(bool traced) {
    Rep rep;
    for (std::size_t i = 0; i < wl.num_cases; ++i) {
      spans().set_case(static_cast<std::uint32_t>(i));
      CaseResult c;
      {
        ScopedSpan span("case");
        try {
          c = wl.run(i, traced);
        } catch (const std::exception& e) {
          c.failure = std::string("threw: ") + e.what();
        }
      }
      check(i, c, traced);
      rep.system_s += c.system_s;
      rep.place_s += c.place_s;
      rep.program_s += c.program_s;
      rep.wall_s += c.sim_s;
      rep.verify_s += c.verify_s;
      rep.cycles += c.sim_cycles;
      rep.insns += c.host_insns;
      rep.jobs += c.jobs;
      for (const auto& [k, v] : c.layers) rep.layers[k] += v;
      rep.case_sim_s.push_back(c.sim_s);
    }
    return rep;
  }

  /// Repeat the workload while another repetition, as long as the last
  /// one, still fits in `budget` seconds (at least once).
  std::vector<Rep> phase(bool traced, double budget) {
    std::vector<Rep> reps;
    const auto t0 = Clock::now();
    double last = 0;
    do {
      const auto r0 = Clock::now();
      reps.push_back(run_rep(traced));
      last = since(r0);
    } while (since(t0) + last <= budget);
    return reps;
  }
};

/// Median over repetitions of `f(rep)`; `f` may be a pointer to a member.
template <typename F>
double median_of(const std::vector<Rep>& reps, F&& f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(std::invoke(f, r));
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name, unit;
  double value;
};

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

void print_result(const Run& run, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += run.failed ? "false" : "true";
  json += ", \"attempted\": " + std::to_string(run.attempted) +
          ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

void print_provenance(const Args& a) {
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  std::cout << "provenance: {\"git_sha\": \"" << a.git_sha
            << "\", \"git_dirty\": \"" << a.git_dirty << "\", \"compiler\": \""
            << PERFBENCH_COMPILER << "\", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"nproc\": "
            << std::thread::hardware_concurrency() << ", \"host\": \"" << host
            << "\", \"workload\": \"" << a.workload
            << "\", \"seed\": " << a.seed << "}\n";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Nearest-rank percentile of the per-case simulate times, at the highest
/// level that keeps at least ten samples beyond it.
void print_tail(const std::vector<Rep>& reps) {
  std::vector<double> v;
  for (const Rep& r : reps) {
    v.insert(v.end(), r.case_sim_s.begin(), r.case_sim_s.end());
  }
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  auto at = [&](double p) {
    const double rank = std::max(1.0, std::ceil(p * n));
    return v[std::min(static_cast<std::size_t>(rank) - 1, v.size() - 1)];
  };
  std::printf("case_sim_s p50 = %.6f s (n=%zu)\n", at(0.5), v.size());
  for (double p : {0.999, 0.99, 0.95, 0.9}) {
    if (n * (1 - p) >= 10) {
      std::printf("case_sim_s p%g = %.6f s (n=%zu, %.0f beyond)\n", p * 100,
                  at(p), v.size(), std::floor(n * (1 - p)));
      break;
    }
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  Run run(args, make_workload(args.workload, args.seed));
  if (run.wl.num_cases == 0) {
    usage_error("unknown workload '" + args.workload + "'");
  }

  Pins pins;
  const bool pinned = args.seed == kDefaultSeed && args.write_pins.empty();
  if (pinned) {
    if (args.pins.empty()) usage_error("the default seed needs --pins");
    pins = load_pins(args.pins);
    if (args.inject == "wrong-pin" && !pins.empty() &&
        !pins.begin()->second.empty()) {
      pins.begin()->second.front().second += 1;
    }
    run.pins = &pins;
  }
  if (args.inject == "corrupt-output") arm_output_corruption();

  print_provenance(args);
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Rep> plain = run.phase(false, budget);
  if (!args.write_pins.empty()) {
    write_pins(args.write_pins, args.workload, args.seed, run.ids,
               run.reference);
  }

  const double wall = median_of(plain, &Rep::wall_s);
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"wall_s", "s", wall},
        {"sim_mcycles_per_s", "Mcyc/s", median_of(plain, [](const Rep& r) {
           return r.cycles / r.wall_s / 1e6;
         })},
        {"jobs_per_s", "jobs/s",
         median_of(plain, [](const Rep& r) { return r.jobs / r.wall_s; })},
        {"setup_s", "s", median_of(plain, [](const Rep& r) {
           return r.system_s + r.place_s + r.program_s;
         })},
        {"peak_rss_mb", "MiB", peak_rss_mb()},
    };
    std::printf("reps = %zu, cases/rep = %zu, rep wall_s:", plain.size(),
                run.wl.num_cases);
    for (const Rep& r : plain) std::printf(" %.4f", r.wall_s);
    std::printf("\n");
    if (args.workload == "scalar-conv" || args.workload == "pulp-conv") {
      const double minsns = median_of(
          plain, [](const Rep& r) { return r.insns / r.wall_s / 1e6; });
      std::printf("sim_minsns_per_s = %s Minsn/s\n", num(minsns).c_str());
    } else if (args.workload == "serving") {
      print_tail(plain);
    }
  } else {
    spans().enable();
    const std::vector<Rep> traced = run.phase(true, args.seconds / 2);
    if (run.trace_violation) {
      std::cerr << "TRACE VIOLATION: a traced case failed: its simulated "
                   "statistics, host-path replay or job resolution differ from "
                   "the untraced run (FAIL lines above)\n";
    }
    // Timers: medians over traced repetitions. Counts: per repetition.
    auto timer = [&](const char* key) {
      return median_of(traced, [key](const Rep& r) {
        const auto it = r.layers.find(key);
        return it == r.layers.end() ? 0.0 : it->second;
      });
    };
    auto count = [&](const char* key) {
      const auto it = traced.front().layers.find(key);
      return it == traced.front().layers.end() ? 0.0 : it->second;
    };
    const double hostpath = timer("hostpath.s"), offload = timer("offload.s");
    const double kwait = timer("kernel.wait_s"), drain = timer("sched.drain_s");
    const double event_s = kwait + drain;  // time spent driving events
    const double insns = count("cpu.insns");
    const double cpu_self = insns > 0 ? wall - hostpath - offload - kwait : 0;
    const double hits = count("llc.hits"), misses = count("llc.misses");
    metrics = {
        {"cpu.self_s", "s", cpu_self},
        {"cpu.insns", "count", insns},
        {"cpu.ns_per_insn", "ns", ratio(cpu_self * 1e9, insns)},
        {"hostpath.s", "s", hostpath},
        {"hostpath.accesses", "count", count("hostpath.accesses")},
        {"hostpath.ns_per_access", "ns",
         ratio(hostpath * 1e9, count("hostpath.accesses"))},
        {"hostpath.replay_mismatches", "count",
         count("hostpath.replay_mismatches")},
        {"llc.hits", "count", hits},
        {"llc.misses", "count", misses},
        {"llc.hit_rate", "ratio", ratio(hits, hits + misses)},
        {"llc.kernel_line_claims", "count", count("llc.kernel_line_claims")},
        {"llc.writebacks", "count", count("llc.writebacks")},
        {"bridge.offloads", "count", count("bridge.offloads")},
        {"bridge.rejects", "count", count("bridge.rejects")},
        {"offload.s", "s", offload},
        {"kernel.wait_s", "s", kwait},
        {"vpu.instructions", "count", count("vpu.instructions")},
        {"vpu.macs", "count", count("vpu.macs")},
        {"vpu.ns_per_mac", "ns", ratio(event_s * 1e9, count("vpu.macs"))},
        {"dma.descriptors", "count", count("dma.descriptors")},
        {"dma.bytes_from_external", "B", count("dma.bytes_from_external")},
        {"mem.ext_bursts", "count", count("mem.ext_bursts")},
        {"sim.events", "count", count("sim.events")},
        {"sim.ns_per_event", "ns", ratio(event_s * 1e9, count("sim.events"))},
        {"sched.submit_s", "s", timer("sched.submit_s")},
        {"sched.drain_s", "s", drain},
        {"sched.ops_dispatched", "count", count("sched.ops_dispatched")},
        {"sched.hazard_deferrals", "count", count("sched.hazard_deferrals")},
        {"sched.hazard_defer_ratio", "ratio",
         ratio(count("sched.hazard_deferrals"), count("sched.ops_dispatched"))},
        {"sched.queue_wait_cycles", "cycles",
         count("sched.queue_wait_cycles")},
        {"sched.jobs_completed", "count", count("sched.jobs_completed")},
        {"sched.jobs_dropped", "count", count("sched.jobs_dropped")},
        {"qos.offered", "count", count("qos.offered")},
        {"qos.accepted", "count", count("qos.accepted")},
        {"qos.rejected", "count", count("qos.rejected")},
        {"qos.accept_ratio", "ratio",
         ratio(count("qos.accepted"), count("qos.offered"))},
        {"setup.system_s", "s", median_of(plain, &Rep::system_s)},
        {"setup.place_s", "s", median_of(plain, &Rep::place_s)},
        {"setup.program_s", "s", median_of(plain, &Rep::program_s)},
        {"verify_s", "s", median_of(plain, &Rep::verify_s)},
        {"trace_overhead_s", "s", median_of(traced, &Rep::wall_s) - wall},
    };
    std::printf("reps = %zu untraced + %zu traced, cases/rep = %zu\n",
                plain.size(), traced.size(), run.wl.num_cases);
    if (!args.spans_out.empty()) {
      std::ofstream out(args.spans_out);
      spans().write_json(out);
    }
  }

  std::printf("fail_frac = %s ratio\n",
              num(ratio(static_cast<double>(run.failed),
                        static_cast<double>(run.attempted))).c_str());
  for (const Metric& m : metrics) {
    std::printf("%s = %s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  std::fflush(stdout);
  print_result(run, metrics);
  return run.failed ? 1 : 0;
}
