// Flight recorder: the one event store, a bounded ring of recent events.
//
// Every completed ObsSpan, every instant and every queue wait
// (obs/span.hpp) lands here, into per-thread rings that grow on demand
// up to a fixed capacity and then overwrite their oldest entries:
// memory is bounded forever, and the recorder always holds the most
// recent events. Installed for the whole life of a resident process it
// answers "what just happened"; installed around a batch with a
// trace-sized capacity it is the trace, and the exporters render its
// dump (docs/observability.md).
//
// Each recorded event carries the tenant/session attribution that was
// active on the recording thread (FlightRecorder::ScopedContext — the
// service sets it around each measurement body), so a post-hoc dump can
// isolate "the last N events of the tenant that just failed".
//
// Triggers make the dump automatic: the first kOverloaded admission
// rejection or job failure (trigger_overload / trigger_job_failure)
// latches the recorder, snapshots every ring, and — when
// auto_dump_path is set — writes the JSON dump to disk. Later triggers
// only count; the first one wins, so the dump shows the state at the
// *first* sign of trouble, not the aftermath.
//
// The recorder observes and never perturbs: it reads the steady clock
// and its own rings only, never an Rng stream, so results stay
// byte-identical with the recorder installed or not
// (docs/operations.md).
//
// Raw event emission is confined to src/obs/: record_event is private,
// so outside it code records through ObsSpan, instant and async_end
// (its only friends), attributes via ScopedContext and signals via the
// trigger_* helpers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.hpp"

namespace biosens::obs {

struct FlightRecorderOptions {
  /// Ring capacity per recording thread. A ring grows on demand up to
  /// it, then overwrites its oldest event (counted in
  /// overwritten_events()), so a trace-sized capacity costs only the
  /// memory of what is recorded.
  std::size_t ring_capacity_per_thread = 4096;
  /// Tail length of the per-tenant event list a dump isolates.
  std::size_t dump_last_n = 128;
  /// When non-empty, the first trigger writes the JSON dump here.
  std::string auto_dump_path;
  /// Which trigger kinds may latch the auto dump.
  bool trigger_on_overload = true;
  bool trigger_on_job_failure = true;
};

/// One flight-recorder entry: a trace event plus the duration (kEnd
/// and kAsyncEnd events record the whole interval as one entry) and the
/// tenant/session attribution active on the recording thread.
struct RecorderEvent {
  SpanEvent event;            ///< ts_ns is relative to install() time
  std::uint64_t dur_ns = 0;   ///< interval duration; 0 for instants
  std::string tenant;         ///< ScopedContext attribution ("" = none)
  std::uint64_t session_id = 0;
  std::uint64_t tid = 0;      ///< recording thread (1-based); set by dump()
};

/// A frozen snapshot of the recorder, renderable as JSON.
struct RecorderDump {
  std::string reason;  ///< "manual", "overloaded", "job-failure"
  std::string tenant;  ///< failing tenant ("" for manual dumps)
  std::string detail;  ///< trigger annotation (error description)
  std::uint64_t dump_ts_ns = 0;
  std::uint64_t recorded = 0;     ///< events ever recorded
  std::uint64_t overwritten = 0;  ///< events lost to ring wraparound
  std::uint64_t triggers = 0;     ///< triggers seen so far
  /// Every surviving event across all rings, in timestamp order.
  std::vector<RecorderEvent> events;
  /// The last-N surviving events attributed to `tenant` (empty for
  /// manual dumps with no tenant filter).
  std::vector<RecorderEvent> tenant_tail;
  /// Latched trigger dumps only: whether this dump reached the
  /// recorder's auto_dump_path (false when none is set or the write
  /// failed).
  bool auto_dump_written = false;

  [[nodiscard]] std::string to_json() const;
};

/// The process-wide flight recorder. install() publishes it (at most
/// one active); every ObsSpan end, instant and async_end then records
/// into the calling thread's ring until uninstall(). While none is
/// installed the cost at each span is one acquire load.
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void install();
  void uninstall();
  [[nodiscard]] bool installed() const {
    return installed_.load(std::memory_order_relaxed);
  }

  /// The installed recorder, or nullptr. One acquire load: the whole
  /// disabled-path cost at each span.
  [[nodiscard]] static FlightRecorder* current() {
    return current_.load(std::memory_order_acquire);
  }

  /// Steady-clock nanoseconds since install().
  [[nodiscard]] std::uint64_t now_ns() const;
  [[nodiscard]] std::uint64_t ns_since_install(
      std::chrono::steady_clock::time_point tp) const;

  /// RAII tenant/session attribution for the calling thread. Every
  /// event recorded while the guard lives carries the tenant tag;
  /// guards nest (inner wins, outer restored on destruction). No-op
  /// (no allocation) while no recorder is installed.
  class ScopedContext {
   public:
    ScopedContext(std::string_view tenant, std::uint64_t session_id);
    ~ScopedContext();
    ScopedContext(const ScopedContext&) = delete;
    ScopedContext& operator=(const ScopedContext&) = delete;

   private:
    friend class FlightRecorder;  // record_event reads the frame

    std::string tenant_;
    std::uint64_t session_id_ = 0;
    void* previous_ = nullptr;
    bool active_ = false;
  };

  /// Trigger entry points: record an instant marking the incident and,
  /// on the FIRST qualifying trigger, latch + auto-dump. No-ops while
  /// no recorder is installed or the trigger kind is disabled.
  static void trigger_overload(std::string_view tenant,
                               std::string_view detail);
  static void trigger_job_failure(std::string_view tenant,
                                  std::string_view detail);

  /// Snapshot of all rings (plus the per-tenant tail when `tenant` is
  /// non-empty). Safe to call any time; locks each ring briefly.
  [[nodiscard]] RecorderDump dump(std::string_view reason = "manual",
                                  std::string_view tenant = {},
                                  std::string_view detail = {}) const;

  /// The dump latched by the first trigger (reason != "manual"), or the
  /// empty dump when no trigger fired yet.
  [[nodiscard]] RecorderDump first_trigger_dump() const;

  [[nodiscard]] bool triggered() const {
    return triggered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t trigger_count() const {
    return triggers_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t recorded_events() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t overwritten_events() const {
    return overwritten_.load(std::memory_order_relaxed);
  }
  /// Whether the latched trigger dump reached auto_dump_path.
  [[nodiscard]] bool auto_dump_written() const;

  [[nodiscard]] const FlightRecorderOptions& options() const {
    return options_;
  }

 private:
  friend class ObsSpan;
  friend void instant(Layer, std::string_view, std::string_view);
  friend void async_end(Layer, std::string_view, std::uint64_t,
                        std::chrono::steady_clock::time_point);

  struct ThreadRing {
    std::mutex mutex;
    std::uint64_t tid = 0;
    std::vector<RecorderEvent> slots;  ///< grows up to the ring capacity
    std::uint64_t next = 0;            ///< events ever recorded here
  };

  static inline std::atomic<FlightRecorder*> current_{nullptr};

  /// The raw emission primitive. Private on purpose: outside src/obs/
  /// events enter only through ObsSpan, instant and async_end (friends)
  /// and the trigger_* helpers.
  void record_event(RecorderEvent&& event);
  ThreadRing* ring_for_this_thread();
  void trigger(std::string_view reason, std::string_view tenant,
               std::string_view detail, bool enabled);

  FlightRecorderOptions options_;
  std::atomic<bool> installed_{false};
  std::uint64_t generation_ = 0;
  std::chrono::steady_clock::time_point epoch_{};
  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadRing>> rings_;
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> overwritten_{0};
  std::atomic<std::uint64_t> triggers_{0};
  std::atomic<bool> triggered_{false};
  mutable std::mutex trigger_mutex_;
  RecorderDump first_dump_;
};

}  // namespace biosens::obs
