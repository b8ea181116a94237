#include "engine/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace biosens::engine {
namespace {

constexpr double kNanosPerSecond = 1e9;
// Below this, a wall clock is noise, not a rate denominator.
constexpr double kMinWallSeconds = 1e-9;

std::uint64_t to_nanos(double seconds) {
  return static_cast<std::uint64_t>(std::max(seconds, 0.0) *
                                    kNanosPerSecond);
}

/// p50/p95/p99 clamped to the exact recorded max (bucket upper edges
/// can overshoot the true extreme).
void fill_quantiles(const LatencyHistogram& h, double& p50, double& p95,
                    double& p99, double& max) {
  if (h.count() == 0) return;
  const double max_s = h.max_seconds();
  p50 = std::min(h.quantile(0.50), max_s);
  p95 = std::min(h.quantile(0.95), max_s);
  p99 = std::min(h.quantile(0.99), max_s);
  max = max_s;
}

}  // namespace

double MetricsSnapshot::utilization() const {
  if (!(wall_seconds > kMinWallSeconds)) return 0.0;
  const double rate = busy_seconds / wall_seconds;
  return std::isfinite(rate) ? rate : 0.0;
}

void MetricsRegistry::add_busy_seconds(double s) {
  busy_nanos_.fetch_add(to_nanos(s), std::memory_order_relaxed);
}

void MetricsRegistry::add_backoff_seconds(double s) {
  backoff_nanos_.fetch_add(to_nanos(s), std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::snapshot(double wall_seconds) const {
  MetricsSnapshot s;
  s.jobs_submitted = jobs_submitted.value();
  s.jobs_succeeded = jobs_succeeded.value();
  s.jobs_failed = jobs_failed.value();
  s.attempts = attempts.value();
  s.retries = retries.value();
  for (std::size_t c = 0; c < kErrorCodeCount; ++c) {
    s.failures_by_code[c] = failures_by_code[c].value();
  }
  s.cache_hits = cache_hits.value();
  s.cache_misses = cache_misses.value();
  s.cache_evictions = cache_evictions.value();
  s.batch_groups = batch_groups.value();
  s.batch_lanes = batch_lanes.value();
  s.batch_factorizations = batch_factorizations.value();
  s.wall_seconds = wall_seconds;
  s.busy_seconds =
      static_cast<double>(busy_nanos_.load(std::memory_order_relaxed)) /
      kNanosPerSecond;
  s.backoff_sim_seconds =
      static_cast<double>(backoff_nanos_.load(std::memory_order_relaxed)) /
      kNanosPerSecond;
  fill_quantiles(attempt_latency, s.attempt_p50_s, s.attempt_p95_s,
                 s.attempt_p99_s, s.attempt_max_s);
  fill_quantiles(queue_wait, s.queue_p50_s, s.queue_p95_s, s.queue_p99_s,
                 s.queue_max_s);
  return s;
}

void MetricsRegistry::reset() {
  jobs_submitted.reset();
  jobs_succeeded.reset();
  jobs_failed.reset();
  attempts.reset();
  retries.reset();
  for (Counter& c : failures_by_code) c.reset();
  cache_hits.reset();
  cache_misses.reset();
  cache_evictions.reset();
  batch_groups.reset();
  batch_lanes.reset();
  batch_factorizations.reset();
  attempt_latency.reset();
  queue_wait.reset();
  busy_nanos_.store(0, std::memory_order_relaxed);
  backoff_nanos_.store(0, std::memory_order_relaxed);
}

}  // namespace biosens::engine
