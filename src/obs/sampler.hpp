// Metrics time-series sampler: a fixed-size sliding window of counter
// snapshots, turned into rates and trends.
//
// The service's SLO instruments are monotone counters: they answer "how
// much since reset", never "how fast right now". The sampler closes
// that gap without unbounded memory — it periodically copies a small,
// caller-defined MetricsSample (a std::function source, so obs/ stays
// below service/ in the dependency order) into a fixed ring of
// kSamplerWindow samples and differentiates across the window:
// completions per second, rejection burn rate, queue-wait p99 trend.
//
// Sampling is pull-based and cheap: sample_now() takes one short lock;
// maybe_sample() adds an atomic rate-limit gate so it can sit on a hot
// path (the service calls it once per completed measurement) and turn
// into a single relaxed load between periods. The sampler reads
// counters only — never an Rng stream — so it shares the recorder's
// observe-never-perturb contract (docs/operations.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "obs/instruments.hpp"

namespace biosens::obs {

/// One point-in-time snapshot of whatever counters the source exposes.
/// Counter fields are cumulative totals; queued / queue_p99_s are
/// gauges read at sample time.
struct MetricsSample {
  double t_s = 0.0;  ///< seconds since the sampler's construction
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t queued = 0;   ///< pending depth at sample time
  double queue_p99_s = 0.0;   ///< queue-wait p99 at sample time
};

/// Rates and deltas computed over the current window (oldest sample to
/// newest). All zero until two samples exist.
struct WindowRates {
  double window_s = 0.0;
  std::size_t samples = 0;
  double submitted_per_s = 0.0;
  double completed_per_s = 0.0;
  double failed_per_s = 0.0;
  double rejected_per_s = 0.0;  ///< the rejection burn rate
  /// Rejected / (submitted + rejected) deltas over the window.
  double rejection_ratio = 0.0;
  double queue_p99_now_s = 0.0;
  double queue_p99_trend_s = 0.0;  ///< newest minus oldest p99
};

/// Ring capacity: samples kept in the window.
inline constexpr std::size_t kSamplerWindow = 64;

class MetricsSampler {
 public:
  /// Fills the counter fields of a sample; the sampler stamps t_s.
  using Source = std::function<MetricsSample()>;

  explicit MetricsSampler(Source source);

  /// Takes a sample unconditionally.
  void sample_now();

  /// Takes a sample only if 0.25 s elapsed since the last one; returns
  /// whether it sampled. Cheap enough for per-job call sites:
  /// between periods it is one relaxed atomic load and a compare.
  bool maybe_sample();

  [[nodiscard]] WindowRates rates() const;

  /// Samples ever taken (including ones the ring has since evicted).
  [[nodiscard]] std::uint64_t sample_count() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// Copy of the current window, oldest first.
  [[nodiscard]] std::vector<MetricsSample> window() const;

 private:
  void sample_locked(double now_s);

  Source source_;
  Stopwatch epoch_;
  std::atomic<std::uint64_t> last_sample_micros_{0};
  mutable std::mutex mutex_;
  std::vector<MetricsSample> ring_;
  std::uint64_t next_ = 0;  ///< samples ever stored
  std::atomic<std::uint64_t> total_{0};
};

}  // namespace biosens::obs
