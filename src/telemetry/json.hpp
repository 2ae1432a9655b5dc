// The one JSON string escaper. Every JSON document the simulator and its
// benches write (metrics registry dumps, Perfetto traces, bench rows, knob
// and cell listings) escapes names through it, so a label carrying a
// quote, a backslash or any control character still yields valid JSON.
#ifndef ARCANE_TELEMETRY_JSON_HPP_
#define ARCANE_TELEMETRY_JSON_HPP_

#include <cstdio>
#include <string>

namespace arcane::telemetry {

/// `s` escaped for use between JSON double quotes: `"` and `\` are
/// backslash-escaped, newline and tab become `\n` / `\t`, every other
/// control character becomes `\u00XX`.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace arcane::telemetry

#endif  // ARCANE_TELEMETRY_JSON_HPP_
