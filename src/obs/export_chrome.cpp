#include "obs/export_chrome.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <tuple>
#include <vector>

#include "common/table.hpp"
#include "obs/json_util.hpp"
#include "obs/recorder.hpp"

namespace biosens::obs {
namespace {

// Where a derived event sorts among the events of its track that share
// its timestamp: span ends, then points (instants, async halves,
// zero-length spans), then span begins. With equal-time begins ordered
// outer first and equal-time ends inner first, every B/E pair nests
// inside the pairs that enclose it, whatever the ring overwrote.
enum Slot : int { kEnds = 0, kPoints = 1, kBegins = 2 };

/// One Chrome event derived from a dump event.
struct Item {
  std::uint64_t tid = 0;
  std::uint64_t ts_ns = 0;
  int slot = kPoints;
  std::int64_t order = 0;  ///< record order; negated for span begins
  EventPhase phase = EventPhase::kInstant;  ///< the half this item renders
  const RecorderEvent* source = nullptr;
};

std::vector<Item> derive_items(const RecorderDump& dump) {
  std::vector<Item> items;
  items.reserve(dump.events.size() * 2);
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    const RecorderEvent& ev = dump.events[i];
    const auto order = static_cast<std::int64_t>(i);
    const std::uint64_t end = ev.event.ts_ns;
    const std::uint64_t begin = end - std::min(end, ev.dur_ns);
    switch (ev.event.phase) {
      case EventPhase::kEnd:
        if (begin == end) {
          items.push_back({ev.tid, end, kPoints, order, EventPhase::kBegin,
                           &ev});
          items.push_back({ev.tid, end, kPoints, order, EventPhase::kEnd,
                           &ev});
        } else {
          items.push_back({ev.tid, begin, kBegins, -order,
                           EventPhase::kBegin, &ev});
          items.push_back({ev.tid, end, kEnds, order, EventPhase::kEnd,
                           &ev});
        }
        break;
      case EventPhase::kAsyncEnd:
        items.push_back({ev.tid, begin, kPoints, order,
                         EventPhase::kAsyncBegin, &ev});
        items.push_back({ev.tid, end, kPoints, order, EventPhase::kAsyncEnd,
                         &ev});
        break;
      default:  // instants: the ring records no other phase
        items.push_back({ev.tid, end, kPoints, order, EventPhase::kInstant,
                         &ev});
        break;
    }
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return std::tie(a.tid, a.ts_ns, a.slot, a.order, a.phase) <
           std::tie(b.tid, b.ts_ns, b.slot, b.order, b.phase);
  });
  return items;
}

// ts in the trace-event format is microseconds (fractional allowed).
std::string format_ts(std::uint64_t ts_ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ts_ns) / 1000.0);
  return buf;
}

void append_common_fields(std::string& out, const Item& item) {
  out += "\"name\":\"";
  out += json_escape(item.source->event.name);
  out += "\",\"cat\":\"";
  out += to_string(item.source->event.layer);
  out += "\",\"pid\":1,\"tid\":";
  out += std::to_string(item.tid);
  out += ",\"ts\":";
  out += format_ts(item.ts_ns);
}

}  // namespace

std::string chrome_trace_json(const RecorderDump& dump) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&out, &first](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };

  std::uint64_t track = std::numeric_limits<std::uint64_t>::max();
  for (const Item& item : derive_items(dump)) {
    if (item.tid != track) {
      track = item.tid;
      std::string meta =
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
      meta += std::to_string(track);
      meta += ",\"args\":{\"name\":\"worker-";
      meta += std::to_string(track);
      meta += "\"}}";
      emit(meta);
    }
    const SpanEvent& event = item.source->event;
    std::string line = "{";
    switch (item.phase) {
      case EventPhase::kBegin:
        line += "\"ph\":\"B\",";
        append_common_fields(line, item);
        break;
      case EventPhase::kEnd:
        line += "\"ph\":\"E\",";
        append_common_fields(line, item);
        if (event.failed) {
          line += ",\"args\":{\"error\":\"";
          line += json_escape(event.detail);
          line += "\"}";
        } else if (!event.detail.empty()) {
          line += ",\"args\":{\"note\":\"";
          line += json_escape(event.detail);
          line += "\"}";
        }
        break;
      case EventPhase::kInstant:
        line += "\"ph\":\"i\",\"s\":\"t\",";
        append_common_fields(line, item);
        if (!event.detail.empty()) {
          line += ",\"args\":{\"note\":\"";
          line += json_escape(event.detail);
          line += "\"}";
        }
        break;
      case EventPhase::kAsyncBegin:
      case EventPhase::kAsyncEnd: {
        line += item.phase == EventPhase::kAsyncBegin ? "\"ph\":\"b\","
                                                      : "\"ph\":\"e\",";
        append_common_fields(line, item);
        char id[24];
        std::snprintf(id, sizeof(id), "0x%" PRIx64, event.id);
        line += ",\"id\":\"";
        line += id;
        line += "\"";
        break;
      }
    }
    line += "}";
    emit(line);
  }

  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void write_chrome_trace(const RecorderDump& dump, const std::string& path) {
  Table::write_file(path, chrome_trace_json(dump));
}

}  // namespace biosens::obs
