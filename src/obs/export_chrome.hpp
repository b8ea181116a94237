// Chrome trace-event exporter: renders a flight-recorder dump as the
// JSON object format (`{"traceEvents": [...]}`) that chrome://tracing
// and Perfetto's legacy importer load directly.
//
// Mapping (docs/observability.md has the full table):
//  - each span's one end event -> a "B"/"E" duration pair on the
//    recording thread's tid; failed ends carry args.error with the
//    ErrorInfo description;
//  - instants -> "i" with thread scope;
//  - queue waits (one async-end event) -> a "b"/"e" pair with a shared
//    hex id;
//  - one "M" thread_name metadata event per track.
// Both halves of a pair come from one event, so a ring that wrapped
// mid-nesting still exports balanced pairs. Timestamps are
// microseconds since the recorder's install().
#pragma once

#include <string>

namespace biosens::obs {

struct RecorderDump;

/// The full trace JSON document (pretty enough to diff: one event per
/// line).
[[nodiscard]] std::string chrome_trace_json(const RecorderDump& dump);

/// Renders and writes to `path` (throws common::Error on I/O failure,
/// like the other artifact writers).
void write_chrome_trace(const RecorderDump& dump, const std::string& path);

}  // namespace biosens::obs
