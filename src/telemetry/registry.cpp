#include "telemetry/registry.hpp"

#include <ostream>

#include "telemetry/json.hpp"

namespace arcane::telemetry {

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
    os << '"' << json_escape(name) << "\": " << v;
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
}

}  // namespace arcane::telemetry
