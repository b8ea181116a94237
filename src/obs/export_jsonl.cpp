#include "obs/export_jsonl.hpp"

#include "common/table.hpp"
#include "obs/json_util.hpp"
#include "obs/recorder.hpp"

namespace biosens::obs {

std::string jsonl_events(const RecorderDump& dump) {
  std::string out;
  for (const RecorderEvent& event : dump.events) {
    out += "{\"tid\":";
    out += std::to_string(event.tid);
    if (event.event.phase == EventPhase::kAsyncEnd) {
      out += ",\"id\":";
      out += std::to_string(event.event.id);
    }
    out += ",";
    append_event_fields(out, event);
    out += "}\n";
  }
  return out;
}

void write_jsonl_events(const RecorderDump& dump, const std::string& path) {
  Table::write_file(path, jsonl_events(dump));
}

}  // namespace biosens::obs
