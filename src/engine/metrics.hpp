// Lock-cheap execution metrics: counters, timers, latency histograms.
//
// Every batch the engine runs is measured: how many jobs were
// submitted, succeeded, retried; how long attempts took (p50/p95/p99)
// and how long jobs waited in the queue before a worker picked them up;
// how much wall time the batch consumed versus how much worker time it
// kept busy. All hot-path instruments are single atomic operations —
// no locks are taken while jobs execute — and a MetricsSnapshot freezes
// a consistent view of them, which Engine::snapshot() returns.
//
// The instruments themselves (Counter/Stopwatch/LatencyHistogram) live
// in obs/instruments.hpp, shared with the service; they are re-exported
// here under their historical names.
#pragma once

#include <array>
#include <cstdint>

#include "common/expected.hpp"
#include "obs/instruments.hpp"

namespace biosens::engine {

using obs::Counter;
using obs::LatencyHistogram;
using obs::Stopwatch;

/// A frozen view of the engine's metrics window.
struct MetricsSnapshot {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_succeeded = 0;
  std::uint64_t jobs_failed = 0;    ///< QC still rejecting after retries
  std::uint64_t attempts = 0;       ///< total measurement attempts
  std::uint64_t retries = 0;        ///< attempts beyond the first
  /// Failed jobs broken down by the final attempt's ErrorCode (pure QC
  /// exhaustion without a structured fault counts under kQcReject).
  std::array<std::uint64_t, kErrorCodeCount> failures_by_code{};
  // Simulation-cache traffic (engine/sim_cache.hpp) over the window.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  // Always 0. Kept because the end-to-end benchmark (e2ebench/) still
  // reports them.
  std::uint64_t batch_lanes = 0;
  std::uint64_t batch_factorizations = 0;
  double wall_seconds = 0.0;        ///< batch wall-clock time
  double busy_seconds = 0.0;        ///< summed attempt execution time
  double backoff_sim_seconds = 0.0; ///< simulated re-measurement backoff
  double attempt_p50_s = 0.0;
  double attempt_p95_s = 0.0;
  double attempt_p99_s = 0.0;
  double attempt_max_s = 0.0;
  // Queue wait: submit -> worker-start delta per job.
  double queue_p50_s = 0.0;
  double queue_p95_s = 0.0;
  double queue_p99_s = 0.0;
  double queue_max_s = 0.0;

  /// Mean workers kept busy (busy / wall); ~worker count when saturated.
  /// Guarded against zero/denormal wall clocks: a snapshot taken
  /// before any wall time elapsed reports 0, never inf/NaN (the value
  /// is serialized into bench JSON artifacts).
  [[nodiscard]] double utilization() const;
  /// Fraction of simulation-cache lookups served from memory.
  [[nodiscard]] double cache_hit_rate() const {
    const std::uint64_t lookups = cache_hits + cache_misses;
    return lookups > 0
               ? static_cast<double>(cache_hits) /
                     static_cast<double>(lookups)
               : 0.0;
  }
};

/// The engine's live instrument set. Thread-safe; shared by all workers.
class MetricsRegistry {
 public:
  Counter jobs_submitted;
  Counter jobs_succeeded;
  Counter jobs_failed;
  Counter attempts;
  Counter retries;
  /// Failed jobs by final ErrorCode (indexed by the enum's value).
  std::array<Counter, kErrorCodeCount> failures_by_code;
  // Simulation-cache traffic (fed by an attached engine/sim_cache).
  Counter cache_hits;
  Counter cache_misses;
  Counter cache_evictions;
  LatencyHistogram attempt_latency;
  /// Per-job submit -> worker-start delta (batch_runner records it
  /// unconditionally; an installed recorder also gets one queue-wait
  /// event per job).
  LatencyHistogram queue_wait;

  void record_failure(ErrorCode code) {
    failures_by_code[static_cast<std::size_t>(code)].increment();
  }

  void add_busy_seconds(double s);
  void add_backoff_seconds(double s);

  /// Freezes the current values. `wall_seconds` is supplied by the
  /// caller (the batch's own stopwatch).
  [[nodiscard]] MetricsSnapshot snapshot(double wall_seconds) const;

  void reset();

 private:
  std::atomic<std::uint64_t> busy_nanos_{0};
  std::atomic<std::uint64_t> backoff_nanos_{0};
};

}  // namespace biosens::engine
