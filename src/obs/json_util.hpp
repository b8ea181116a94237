// Minimal JSON writing shared by the flight-recorder dump and the
// exporters: escape a string for use inside double quotes, and render
// one recorded event's fields. (No parser — CI validates the emitted
// files with an external JSON parser.)
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace biosens::obs {

struct RecorderEvent;

/// The fields of one event object in the dump schema
/// (docs/operations.md), without the enclosing braces:
/// `"ts_ns":...,"phase":...,...,"detail":"..."`. The dump's `events`
/// and the JSONL log both render events through it.
void append_event_fields(std::string& out, const RecorderEvent& event);

[[nodiscard]] inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(
                            static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace biosens::obs
