#include "obs/span.hpp"

#include <utility>

#include "obs/recorder.hpp"

namespace biosens::obs {
namespace {

std::uint64_t nanos_between(std::chrono::steady_clock::time_point from,
                            std::chrono::steady_clock::time_point to) {
  const auto delta =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count();
  return delta > 0 ? static_cast<std::uint64_t>(delta) : 0;
}

}  // namespace

std::string_view to_string(EventPhase phase) {
  switch (phase) {
    case EventPhase::kBegin: return "begin";
    case EventPhase::kEnd: return "end";
    case EventPhase::kInstant: return "instant";
    case EventPhase::kAsyncBegin: return "async-begin";
    case EventPhase::kAsyncEnd: return "async-end";
  }
  return "unknown";
}

void instant(Layer layer, std::string_view name, std::string_view detail) {
  FlightRecorder* recorder = FlightRecorder::current();
  if (recorder == nullptr) return;
  RecorderEvent event;
  event.event.phase = EventPhase::kInstant;
  event.event.layer = layer;
  event.event.name = std::string(name);
  event.event.ts_ns = recorder->now_ns();
  event.event.detail = std::string(detail);
  recorder->record_event(std::move(event));
}

void async_end(Layer layer, std::string_view name, std::uint64_t id,
               std::chrono::steady_clock::time_point began) {
  FlightRecorder* recorder = FlightRecorder::current();
  if (recorder == nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  RecorderEvent event;
  event.event.phase = EventPhase::kAsyncEnd;
  event.event.layer = layer;
  event.event.name = std::string(name);
  event.event.ts_ns = recorder->ns_since_install(now);
  event.event.id = id;
  event.dur_ns = nanos_between(began, now);
  recorder->record_event(std::move(event));
}

ObsSpan::ObsSpan(Layer layer, std::string_view name,
                 std::string_view detail)
    : recorder_(FlightRecorder::current()) {
  if (recorder_ == nullptr) return;
  layer_ = layer;
  name_ = std::string(name);
  if (!detail.empty()) {
    name_ += " ";
    name_ += detail;
  }
  begin_ = std::chrono::steady_clock::now();
}

ObsSpan::~ObsSpan() {
  if (recorder_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  RecorderEvent event;
  event.event.phase = EventPhase::kEnd;
  event.event.layer = layer_;
  event.event.name = std::move(name_);
  event.event.ts_ns = recorder_->ns_since_install(end);
  event.event.failed = failed_;
  event.event.detail = std::move(detail_);
  event.dur_ns = nanos_between(begin_, end);
  recorder_->record_event(std::move(event));
}

void ObsSpan::fail(const ErrorInfo& error) {
  if (!enabled()) return;
  failed_ = true;
  detail_ = error.describe();
}

void ObsSpan::annotate(std::string_view note) {
  if (!enabled()) return;
  if (!detail_.empty()) detail_ += "; ";
  detail_ += note;
}

}  // namespace biosens::obs
