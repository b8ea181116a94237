// Cross-layer tracing: RAII spans through the measurement stack.
//
// Every ObsSpan constructed anywhere in the library (chem validation,
// transport stepping, electrochem sweeps, the readout chain, analysis,
// the engine's job lifecycle) and every instant/async_end below writes
// into the one event store, the flight recorder (obs/recorder.hpp),
// while one is installed. While none is installed, constructing an
// ObsSpan costs one acquire load and allocates nothing — the overhead
// contract that lets the spans live permanently in the hot measurement
// pipeline (docs/observability.md).
//
// A trace is a window on that store: install a recorder around the work,
// then render its dump with the exporters (export_chrome/export_jsonl/
// export_prometheus) as Chrome trace-event JSON, a JSONL event log, or
// Prometheus per-layer histograms.
//
// Failed spans are annotated from the Expected ErrorInfo that caused
// the failure — the stage/context vocabulary of docs/errors.md — so a
// trace shows *where time went* and *where errors came from* in the
// same terms.
//
// Raw event emission is confined to this subsystem: outside src/obs/
// events enter only through ObsSpan and the free functions below
// (enforced by friendship in recorder.hpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/expected.hpp"

namespace biosens::obs {

/// What one event marks. The recorder stores a completed span as one
/// kEnd event carrying its duration, and a queue wait as one kAsyncEnd
/// event carrying its duration; the Chrome exporter derives the
/// kBegin/kAsyncBegin halves from them, so a wrapped ring can never
/// hold half a pair. Instants are points.
enum class EventPhase : std::uint8_t {
  kBegin,
  kEnd,
  kInstant,
  kAsyncBegin,
  kAsyncEnd,
};

[[nodiscard]] std::string_view to_string(EventPhase phase);

/// One recorded trace event.
struct SpanEvent {
  EventPhase phase = EventPhase::kInstant;
  Layer layer = Layer::kCommon;
  std::string name;
  std::uint64_t ts_ns = 0;  ///< steady-clock ns since the recorder's install()
  std::uint64_t id = 0;     ///< async correlation id (job index)
  bool failed = false;      ///< kEnd only: the span's operation failed
  std::string detail;       ///< ErrorInfo::describe() or an annotation
};

class FlightRecorder;

/// Point event on the calling thread (sim-cache hits/misses, retry
/// backoffs, admission rejections). No-op while no recorder is
/// installed.
void instant(Layer layer, std::string_view name,
             std::string_view detail = {});

/// Async interval that ends now and began at `began`, possibly on
/// another thread (queue wait: submitted on the producer, picked up on
/// a worker): one kAsyncEnd event with its duration, correlated by
/// `id`. No-op while no recorder is installed.
void async_end(Layer layer, std::string_view name, std::uint64_t id,
               std::chrono::steady_clock::time_point began);

/// RAII span: reads the clock at construction, and at destruction
/// records one kEnd event with the span's duration into the installed
/// recorder. The ONLY way to open a span outside src/obs/.
///
/// A span is always a named local, so it covers its scope: the
/// [[nodiscard]] constructor makes a discarded temporary
/// (`ObsSpan(...);`, which would record a zero-length span) a compile
/// error under -Werror=unused-result, and the deleted operator new
/// rules out a heap span that outlives the work it times
/// (tests/test_compiler_guards.py).
///
/// Disabled path (no recorder installed): one acquire load, no
/// allocation, no clock read, and every member call is an immediate
/// return.
class ObsSpan {
 public:
  /// `detail` is appended to the span name ("measure" + sensor name);
  /// the concatenation only happens when a recorder is installed, so
  /// call sites may pass names they would not want to build per-call.
  [[nodiscard]] explicit ObsSpan(Layer layer, std::string_view name,
                                 std::string_view detail = {});
  ~ObsSpan();

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;
  static void* operator new(std::size_t) = delete;

  /// Marks the span failed and annotates it with the structured error's
  /// one-line description (layer/stage/code/context chain).
  void fail(const ErrorInfo& error);

  /// Appends a free-form note to the span ("qc-reject", cache state).
  void annotate(std::string_view note);

  /// Pass-through observer for Expected-returning stages: marks the
  /// span failed when `e` holds an error, then hands `e` back, so call
  /// sites stay one-liners: `auto run = span.watch(sim.try_run());`.
  template <class E>
  [[nodiscard]] E watch(E e) {
    if (enabled() && !e.has_value()) fail(e.error());
    return e;
  }

  /// Whether a recorder sees this span — call sites use it to skip
  /// building expensive annotations.
  [[nodiscard]] bool enabled() const { return recorder_ != nullptr; }

 private:
  FlightRecorder* recorder_;
  Layer layer_ = Layer::kCommon;
  std::chrono::steady_clock::time_point begin_{};
  std::string name_;
  std::string detail_;
  bool failed_ = false;
};

}  // namespace biosens::obs
