// Telemetry layer: exact Series percentiles, registry determinism,
// flight-recorder ring bounds, and the Perfetto exporter's structural
// validity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using telemetry::FlightRecorder;
using telemetry::JobRecord;
using telemetry::Registry;
using telemetry::Series;
using telemetry::SpanTracer;
using telemetry::TraceFile;

TEST(TelemetryTest, SeriesPercentileMatchesBenchRule) {
  // Series::percentile is the floor-index rule every latency row uses:
  // ascending sort, then sorted[size_t(q * (n - 1))].
  std::vector<std::uint64_t> values = {17, 3, 99, 3, 42, 7, 58, 1, 23, 88, 5};
  Series s;
  for (auto v : values) s.record(v);
  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const auto idx =
        static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
    EXPECT_EQ(s.percentile(q), sorted[idx]) << "q=" << q;
  }
  EXPECT_EQ(Series().percentile(0.5), 0u);  // empty -> 0, like the benches
}

TEST(TelemetryTest, SeriesTruncatesAtCapacity) {
  Series s(4);
  for (std::uint64_t v = 0; v < 10; ++v) s.record(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.truncated(), 6u);
  EXPECT_EQ(s.samples().back(), 3u);  // keeps the earliest samples
}

TEST(TelemetryTest, RegistryValueAndSnapshotOrder) {
  Registry reg;
  reg.bind("c.level", [] { return std::uint64_t{3}; });
  reg.bind("b.count", [] { return std::uint64_t{7}; });
  std::uint64_t external = 41;
  reg.bind("a.bound", [&external] { return external; });
  ++external;

  EXPECT_EQ(reg.value("a.bound"), 42u);  // read-through, not a copy
  EXPECT_EQ(reg.value("b.count"), 7u);
  EXPECT_EQ(reg.value("no.such.metric"), 0u);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "a.bound");  // name-sorted, deterministic
  EXPECT_EQ(snap[1].first, "b.count");
  EXPECT_EQ(snap[2].first, "c.level");
  EXPECT_EQ(snap[2].second, 3u);
}

XProgram small_kernel_program(System& sys) {
  workloads::Rng rng(3);
  auto X = workloads::Matrix<std::int32_t>::random(8, 8, rng, -5, 5);
  workloads::store_matrix(sys, sys.data_base() + 0x1000, X);
  XProgram prog;
  prog.xmr(0, sys.data_base() + 0x1000, X.shape(), ElemType::kWord);
  prog.xmr(1, sys.data_base() + 0x8000, X.shape(), ElemType::kWord);
  prog.leaky_relu(1, 0, 0, ElemType::kWord);
  prog.sync_read(sys.data_base() + 0x8000);
  prog.halt();
  return prog;
}

TEST(TelemetryTest, RegistryViewsMatchComponentStats) {
  System sys(SystemConfig::paper(4));
  auto prog = small_kernel_program(sys);
  sys.load_program(prog.finish());
  sys.run();

  EXPECT_EQ(sys.metrics().value("llc.misses"), sys.llc().stats().misses);
  EXPECT_EQ(sys.metrics().value("llc.refills"), sys.llc().stats().refills);
  EXPECT_EQ(sys.metrics().value("dma.descriptors"),
            sys.dma().stats().descriptors);
  EXPECT_EQ(sys.metrics().value("crt.kernels_executed"),
            sys.runtime().phases().kernels_executed);
  EXPECT_EQ(sys.metrics().value("mem.bursts"),
            sys.mem_backend().stats().bursts);
  EXPECT_GT(sys.metrics().value("llc.refills"), 0u);
  EXPECT_GT(sys.metrics().value("crt.kernels_executed"), 0u);
}

TEST(TelemetryTest, RegistryDumpIsDeterministic) {
  auto dump = [] {
    System sys(SystemConfig::paper(4));
    auto prog = small_kernel_program(sys);
    sys.load_program(prog.finish());
    sys.run();
    std::ostringstream os;
    sys.metrics().write_json(os);
    return os.str();
  };
  const std::string a = dump();
  const std::string b = dump();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // identical runs -> byte-identical metric dumps
}

TEST(TelemetryTest, FlightRecorderRingKeepsMostRecent) {
  FlightRecorder fr(/*per_tenant_capacity=*/2);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    JobRecord r;
    r.job_id = id;
    r.tenant = 0;
    r.arrival = id * 10;
    r.done = id * 10 + 5;
    r.dropped = (id == 4);
    fr.record(r);
  }
  EXPECT_EQ(fr.tenants(), 1u);
  EXPECT_EQ(fr.total(0), 5u);
  const auto recent = fr.recent(0);
  ASSERT_EQ(recent.size(), 2u);  // bounded by capacity
  EXPECT_EQ(recent[0].job_id, 4u);  // oldest retained first
  EXPECT_EQ(recent[1].job_id, 5u);
  EXPECT_TRUE(recent[0].dropped);
  EXPECT_EQ(recent[1].latency(), 5u);
  EXPECT_TRUE(fr.recent(7).empty());  // unknown tenant -> empty, no throw
}

// Minimal structural JSON check: quotes respected, braces/brackets balance,
// and the document is a single object. Not a full parser, but enough to
// catch unescaped strings, trailing commas at the container level, and
// truncated output.
void expect_balanced_json(std::string text) {
  while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
    text.pop_back();
  }
  ASSERT_FALSE(text.empty());
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']': --depth; break;
      default: break;
    }
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
}

TEST(TelemetryTest, PerfettoExportRoundTrip) {
  SpanTracer spans;
  spans.enable();
  spans.instant(telemetry::kTrackEcpu, "offload.xmr", 10);
  spans.span(telemetry::track_vpu(0), "compute", 20, 90, -1, 7, 64);
  spans.span(telemetry::track_tenant(2), "job \"quoted\"", 5, 200, 2, 9);
  spans.instant(telemetry::kTrackLlc, "llc.refill", 33, -1, -1, 0x1000);

  TraceFile trace;
  const int pid = trace.add_process("unit-test run", spans);
  EXPECT_GE(pid, 1);
  std::ostringstream os;
  trace.write(os);
  const std::string text = os.str();

  expect_balanced_json(text);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);  // complete spans
  EXPECT_NE(text.find("\"ph\": \"i\""), std::string::npos);  // instants
  EXPECT_NE(text.find("compute"), std::string::npos);
  EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);  // escaping
  EXPECT_NE(text.find("VPU 0"), std::string::npos);   // track naming
  EXPECT_NE(text.find("tenant 2"), std::string::npos);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TelemetryTest, RegistryJsonIsStructurallyValid) {
  System sys(SystemConfig::paper(4));
  auto prog = small_kernel_program(sys);
  sys.load_program(prog.finish());
  sys.run();
  std::ostringstream os;
  sys.metrics().write_json(os);
  expect_balanced_json(os.str());
  EXPECT_NE(os.str().find("\"llc.hits\""), std::string::npos);
}

// Metric names flow into the JSON dump verbatim; hostile characters
// (quotes, backslashes, control chars from a future user-supplied tenant
// label) must come out escaped, not as truncated/invalid JSON.
TEST(TelemetryTest, RegistryJsonEscapesHostileNames) {
  Registry reg;
  reg.bind("evil\"name", [] { return std::uint64_t{1}; });
  reg.bind("back\\slash", [] { return std::uint64_t{2}; });
  reg.bind("multi\nline\ttab", [] { return std::uint64_t{3}; });
  std::ostringstream os;
  reg.write_json(os);
  const std::string text = os.str();
  expect_balanced_json(text);
  EXPECT_NE(text.find("\"evil\\\"name\""), std::string::npos);
  EXPECT_NE(text.find("\"back\\\\slash\""), std::string::npos);
  EXPECT_NE(text.find("\"multi\\nline\\ttab\""), std::string::npos);
  // The raw control characters themselves must not survive inside names
  // (the dump's own pretty-printing newlines are outside strings).
  EXPECT_EQ(text.find("multi\nline"), std::string::npos);
  EXPECT_EQ(text.find('\t'), std::string::npos);
}

// Ring wraparound under interleaved completions and drops, across several
// laps: retention stays bounded, order stays oldest-first, the dropped
// flags of the survivors are exact, and the JSON view matches.
TEST(TelemetryTest, FlightRecorderWraparoundPreservesOrderAndDrops) {
  FlightRecorder fr(/*per_tenant_capacity=*/4);
  for (std::uint64_t id = 1; id <= 11; ++id) {
    JobRecord r;
    r.job_id = id;
    r.tenant = static_cast<std::int32_t>(id % 2);
    r.arrival = id * 100;
    r.done = id * 100 + 7;
    r.dropped = (id % 3 == 0);  // 3, 6, 9 shed
    fr.record(r);
  }
  // Tenant 0 saw 2,4,6,8,10; tenant 1 saw 1,3,5,7,9,11.
  EXPECT_EQ(fr.total(0), 5u);
  EXPECT_EQ(fr.total(1), 6u);
  const auto t0 = fr.recent(0);
  const auto t1 = fr.recent(1);
  ASSERT_EQ(t0.size(), 4u);
  ASSERT_EQ(t1.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t0[i].job_id, 4u + 2 * i);       // 4, 6, 8, 10
    EXPECT_EQ(t1[i].job_id, 5u + 2 * i);       // 5, 7, 9, 11
    EXPECT_EQ(t0[i].dropped, t0[i].job_id % 3 == 0);
    EXPECT_EQ(t1[i].dropped, t1[i].job_id % 3 == 0);
    EXPECT_EQ(t0[i].latency(), 7u);
  }
  std::ostringstream os;
  fr.write_json(os);
  expect_balanced_json(os.str());
  // Job 2 wrapped out of tenant 0's ring; job 10 survived.
  EXPECT_EQ(os.str().find("{\"job\": 2,"), std::string::npos);
  EXPECT_NE(os.str().find("{\"job\": 10,"), std::string::npos);
}

}  // namespace
}  // namespace arcane
