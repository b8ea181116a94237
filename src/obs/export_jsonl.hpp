// JSONL event-log exporter: one JSON object per line per event of a
// flight-recorder dump, in timestamp order — the dump's event schema
// (docs/operations.md) prefixed with the recording thread's tid (and,
// for queue waits, the async correlation id). The
// post-mortem format: greppable (`grep '"failed":true'`), streamable,
// and trivially parseable line-by-line without loading the whole trace.
#pragma once

#include <string>

namespace biosens::obs {

struct RecorderDump;

[[nodiscard]] std::string jsonl_events(const RecorderDump& dump);

void write_jsonl_events(const RecorderDump& dump, const std::string& path);

}  // namespace biosens::obs
