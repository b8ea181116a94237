// Lock-free measurement instruments shared by metrics and tracing.
//
// Counter, Stopwatch, and LatencyHistogram started life inside the
// engine's metrics registry; the observability subsystem needs the same
// primitives one layer lower (per-layer latency attribution and
// histogram exposition in the Prometheus exporter), so
// they live here and engine/metrics.hpp re-exports them under its old
// names. All hot-path operations are single relaxed atomics — no locks
// are ever taken while instrumented code runs.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>

namespace biosens::obs {

/// Monotonic event counter (relaxed atomics; exactness is restored by
/// the snapshot happening-after the batch barrier).
class Counter {
 public:
  void increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Wall-clock stopwatch (std::chrono::steady_clock).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Log-bucketed latency histogram, 1 us .. ~1000 s, atomic buckets.
///
/// record() is one atomic increment; quantiles are read from the bucket
/// counts at snapshot time and reported as the upper edge of the bucket
/// containing the requested rank (<= 10% relative error by design: 48
/// buckets over 9 decades).
///
/// Edge behavior (exporters must never crash a service):
///  - quantile(q) clamps q into [0, 1]: q <= 0 returns 0.0 (no latency
///    lies strictly below any recording), q >= 1 returns the edge of the
///    highest occupied bucket.
///  - An empty histogram reports 0.0 for every quantile and for
///    max_seconds(); a single recording puts every quantile with q > 0
///    at that sample's bucket edge.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record(double seconds);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double total_seconds() const;
  /// Latency below which a fraction `q` of recordings fall; q is
  /// clamped into [0, 1] (see the class comment for the edge contract).
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double max_seconds() const;
  void reset();

  /// Upper edge of bucket b in seconds. Strictly increasing in b; the
  /// Prometheus exporter uses these as its `le` boundaries.
  [[nodiscard]] static double bucket_edge(std::size_t b);

  /// Recordings that landed in bucket b (b < kBuckets).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_nanos_{0};
  std::atomic<std::uint64_t> max_nanos_{0};
};

}  // namespace biosens::obs
