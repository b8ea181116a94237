// Health model, watchdog, and the introspection report.
//
// healthz/readyz for the resident service: evaluate_health() folds a
// small set of observed inputs (queue utilization, rejections since the
// last quiesce, failure burn, drain state, watchdog trips) through fixed
// thresholds (health.cpp) into kHealthy/kDegraded/kUnhealthy plus
// machine-readable reasons — an operator (or an orchestrator probing
// readiness) sees *why*, not just a color. The inputs are plain
// numbers, gathered by SimulationService::introspection_report().
//
// The Watchdog flags work exceeding a soft deadline: workers register
// each job/measurement (begin/end or the Scoped RAII guard), and
// overdue() lists everything currently past the deadline while trips()
// counts completions that came in late. It observes wall time only —
// it never cancels work — so byte-identity is untouched.
//
// Health reasons are minted only by evaluate_health(): its add_reason
// helper has internal linkage in health.cpp. Other layers describe
// their state through HealthInputs and let the policy speak.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/instruments.hpp"
#include "obs/sampler.hpp"

namespace biosens::obs {

enum class HealthState : std::uint8_t {
  kHealthy,
  kDegraded,
  kUnhealthy,
};

[[nodiscard]] std::string_view to_string(HealthState state);

/// One machine-readable reason the component is not (fully) healthy.
struct HealthReason {
  HealthState severity = HealthState::kDegraded;
  /// Stable code: "queue-saturation", "slo-burn", "drain", "watchdog",
  /// "failure-burn".
  std::string code;
  std::string detail;  ///< human annotation with the numbers
};

/// What the component observed; all plain values so callers own the
/// semantics (the service resets its baselines on drain()/resume()).
struct HealthInputs {
  double queue_utilization = 0.0;  ///< pending / effective capacity
  std::uint64_t rejected_since_baseline = 0;
  std::uint64_t submitted_since_baseline = 0;
  std::uint64_t failed = 0;     ///< jobs failed (window totals)
  std::uint64_t finished = 0;   ///< jobs finished (succeeded + failed)
  bool draining = false;
  std::size_t watchdog_overdue = 0;
  std::uint64_t watchdog_trips = 0;
};

struct HealthReport {
  HealthState state = HealthState::kHealthy;
  std::vector<HealthReason> reasons;

  [[nodiscard]] bool has_reason(std::string_view code) const;
  [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] HealthReport evaluate_health(const HealthInputs& inputs);

/// Flags registered work that exceeds a soft wall-clock deadline.
/// Observation only: nothing is cancelled. soft_deadline_s <= 0
/// disables the watchdog entirely (begin() returns 0 without locking).
struct WatchdogOptions {
  double soft_deadline_s = 30.0;
  std::size_t max_tracked = 4096;  ///< entries beyond this are ignored
};

class Watchdog {
 public:
  using Options = WatchdogOptions;

  explicit Watchdog(Options options = {});

  [[nodiscard]] bool enabled() const {
    return options_.soft_deadline_s > 0.0;
  }
  [[nodiscard]] double soft_deadline_s() const {
    return options_.soft_deadline_s;
  }

  /// Registers one unit of work; returns a token for end() (0 when the
  /// watchdog is disabled or the table is full — end(0) is a no-op).
  [[nodiscard]] std::uint64_t begin(std::string_view label);
  /// Completes the work; counts a trip when it finished past deadline.
  void end(std::uint64_t token);

  struct Overdue {
    std::string label;
    double elapsed_s = 0.0;
  };
  /// Everything currently registered and past the soft deadline.
  [[nodiscard]] std::vector<Overdue> overdue() const;

  [[nodiscard]] std::size_t in_flight() const;
  /// Completions that came in past the deadline.
  [[nodiscard]] std::uint64_t trips() const { return trips_.value(); }

  /// RAII begin/end pair.
  class Scoped {
   public:
    Scoped(Watchdog& watchdog, std::string_view label)
        : watchdog_(watchdog), token_(watchdog.begin(label)) {}
    ~Scoped() { watchdog_.end(token_); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    Watchdog& watchdog_;
    std::uint64_t token_;
  };

 private:
  struct Entry {
    std::uint64_t token = 0;
    std::string label;
    std::chrono::steady_clock::time_point start{};
  };

  Options options_;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::uint64_t next_token_ = 1;
  Counter trips_;
};

/// Everything introspection_report() surfaces, renderable as JSON (the
/// --introspect-out schema, docs/operations.md).
struct IntrospectionReport {
  std::string component;  ///< "service"
  HealthReport health;
  WindowRates rates;
  // Live gauges.
  std::uint64_t pending = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t open_sessions = 0;
  double queue_utilization = 0.0;
  // Watchdog.
  double watchdog_soft_deadline_s = 0.0;
  std::uint64_t watchdog_overdue = 0;
  std::uint64_t watchdog_trips = 0;
  // Flight recorder (the process-wide one, when installed).
  bool recorder_installed = false;
  bool recorder_triggered = false;
  bool recorder_dump_written = false;  ///< the latched dump reached its file
  std::uint64_t recorder_events = 0;
  std::uint64_t recorder_overwritten = 0;
  std::uint64_t recorder_triggers = 0;

  [[nodiscard]] std::string to_json() const;
};

/// Fills the recorder_* fields from the installed FlightRecorder (or
/// leaves them zero when none is installed).
void fill_recorder_stats(IntrospectionReport& report);

}  // namespace biosens::obs
