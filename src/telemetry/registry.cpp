#include "telemetry/registry.hpp"

#include <ostream>

namespace arcane::telemetry {
namespace {

// Minimal JSON string escaping; metric names are plain dotted identifiers,
// but callers may register arbitrary labels.
void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
  os << '"';
}

}  // namespace

std::uint64_t Series::percentile(double q) const {
  if (samples_.empty()) return 0;
  std::vector<std::uint64_t> sorted(samples_);
  std::sort(sorted.begin(), sorted.end());
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

std::uint64_t Registry::value(const std::string& name) const {
  auto it = bound_.find(name);
  return it == bound_.end() ? 0 : it->second();
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::snapshot() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(bound_.size());
  for (const auto& [name, get] : bound_) out.emplace_back(name, get());
  return out;
}

void Registry::write_json(std::ostream& os) const {
  os << "{\n  \"scalars\": {";
  bool first = true;
  for (const auto& [name, v] : snapshot()) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_escaped(os, name);
    os << ": " << v;
  }
  os << (first ? "}" : "\n  }");

  os << ",\n  \"series\": {";
  first = true;
  for (const auto& [name, s] : series_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_escaped(os, name);
    os << ": {\"count\": " << s.count() << ", \"truncated\": " << s.truncated()
       << ", \"p50\": " << s.p50() << ", \"p99\": " << s.p99() << "}";
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
}

}  // namespace arcane::telemetry
