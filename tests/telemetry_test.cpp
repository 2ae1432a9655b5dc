// Telemetry layer: registry views and determinism, the shared JSON string
// escaper, and the Perfetto exporter's structural validity.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using telemetry::Registry;
using telemetry::SpanTracer;
using telemetry::TraceFile;

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

// Control characters other than newline and tab come out as \u00XX in
// both the registry dump and the trace's process name, never raw.
TEST(TelemetryTest, ControlCharactersEscapeAsUnicode) {
  Registry reg;
  reg.bind("ctl\x01name", [] { return std::uint64_t{1}; });
  std::ostringstream metrics;
  reg.write_json(metrics);
  EXPECT_NE(metrics.str().find("\"ctl\\u0001name\""), std::string::npos);
  EXPECT_EQ(metrics.str().find('\x01'), std::string::npos);

  SpanTracer spans;
  spans.enable();
  spans.instant(telemetry::kTrackEcpu, "offload.xmr", 10);
  TraceFile trace;
  trace.add_process("run\x01one", spans);
  std::ostringstream os;
  trace.write(os);
  expect_balanced_json(os.str());
  EXPECT_NE(os.str().find("\"run\\u0001one\""), std::string::npos);
  EXPECT_EQ(os.str().find('\x01'), std::string::npos);
}

}  // namespace
}  // namespace arcane
