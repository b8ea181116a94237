#include "engine/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/export_prometheus.hpp"

namespace biosens::engine {
namespace {

constexpr double kNanosPerSecond = 1e9;
// Below this, a wall clock is noise, not a rate denominator.
constexpr double kMinWallSeconds = 1e-9;

std::uint64_t to_nanos(double seconds) {
  return static_cast<std::uint64_t>(std::max(seconds, 0.0) *
                                    kNanosPerSecond);
}

std::string format_seconds(double s) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", s);
  return buffer;
}

double safe_rate(double numerator, double wall_seconds) {
  if (!(wall_seconds > kMinWallSeconds)) return 0.0;
  const double rate = numerator / wall_seconds;
  return std::isfinite(rate) ? rate : 0.0;
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

double MetricsSnapshot::jobs_per_second() const {
  return safe_rate(static_cast<double>(jobs_succeeded + jobs_failed),
                   wall_seconds);
}

double MetricsSnapshot::utilization() const {
  return safe_rate(busy_seconds, wall_seconds);
}

Table MetricsSnapshot::to_table() const {
  Table table({"metric", "value"});
  table.add_row({"jobs_submitted", std::to_string(jobs_submitted)});
  table.add_row({"jobs_succeeded", std::to_string(jobs_succeeded)});
  table.add_row({"jobs_failed", std::to_string(jobs_failed)});
  table.add_row({"attempts", std::to_string(attempts)});
  table.add_row({"retries", std::to_string(retries)});
  for (std::size_t c = 0; c < kErrorCodeCount; ++c) {
    table.add_row(
        {"failed_" + std::string(to_string(static_cast<ErrorCode>(c))),
         std::to_string(failures_by_code[c])});
  }
  table.add_row({"cache_hits", std::to_string(cache_hits)});
  table.add_row({"cache_misses", std::to_string(cache_misses)});
  table.add_row({"cache_evictions", std::to_string(cache_evictions)});
  table.add_row({"cache_hit_rate", format_seconds(cache_hit_rate())});
  table.add_row({"batch_groups", std::to_string(batch_groups)});
  table.add_row({"batch_lanes", std::to_string(batch_lanes)});
  table.add_row(
      {"batch_factorizations", std::to_string(batch_factorizations)});
  table.add_row({"wall_seconds", format_seconds(wall_seconds)});
  table.add_row({"busy_seconds", format_seconds(busy_seconds)});
  table.add_row(
      {"backoff_sim_seconds", format_seconds(backoff_sim_seconds)});
  table.add_row({"attempt_p50_s", format_seconds(attempt_p50_s)});
  table.add_row({"attempt_p95_s", format_seconds(attempt_p95_s)});
  table.add_row({"attempt_p99_s", format_seconds(attempt_p99_s)});
  table.add_row({"attempt_max_s", format_seconds(attempt_max_s)});
  table.add_row({"queue_p50_s", format_seconds(queue_p50_s)});
  table.add_row({"queue_p95_s", format_seconds(queue_p95_s)});
  table.add_row({"queue_p99_s", format_seconds(queue_p99_s)});
  table.add_row({"queue_max_s", format_seconds(queue_max_s)});
  table.add_row({"jobs_per_second", format_seconds(jobs_per_second())});
  table.add_row({"utilization", format_seconds(utilization())});
  return table;
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

std::string prometheus_exposition(const MetricsRegistry& metrics,
                                  double wall_seconds,
                                  const obs::RecorderDump* trace) {
  const MetricsSnapshot s = metrics.snapshot(wall_seconds);
  obs::PrometheusWriter w;
  obs::append_build_info(w);
  w.counter("biosens_jobs_submitted_total", "Jobs submitted to the engine",
            s.jobs_submitted);
  w.counter("biosens_jobs_succeeded_total", "Jobs that produced a result",
            s.jobs_succeeded);
  w.counter("biosens_jobs_failed_total",
            "Jobs that exhausted their retry budget", s.jobs_failed);
  w.counter("biosens_attempts_total", "Total measurement attempts",
            s.attempts);
  w.counter("biosens_retries_total", "Attempts beyond the first",
            s.retries);
  for (std::size_t c = 0; c < kErrorCodeCount; ++c) {
    std::string labels = "code=\"";
    labels += to_string(static_cast<ErrorCode>(c));
    labels += "\"";
    w.counter("biosens_job_failures_total",
              "Failed jobs by final attempt error code",
              s.failures_by_code[c], labels);
  }
  // Sim-cache traffic shares the exposition so bench and service report
  // through one format.
  w.counter("biosens_sim_cache_hits_total",
            "Simulation-cache lookups served from memory", s.cache_hits);
  w.counter("biosens_sim_cache_misses_total",
            "Simulation-cache lookups that ran the solver",
            s.cache_misses);
  w.counter("biosens_sim_cache_evictions_total",
            "Simulation-cache LRU evictions", s.cache_evictions);
  w.gauge("biosens_sim_cache_hit_rate",
          "Fraction of cache lookups served from memory",
          s.cache_hit_rate());
  // Cohort-batching prefill traffic mirrors the sim-cache counters so
  // the lockstep fast path is observable in the same scrape.
  w.counter("biosens_cohort_batch_groups_total",
            "Lockstep cohort groups run by the batched stepper",
            s.batch_groups);
  w.counter("biosens_cohort_batch_lanes_total",
            "Distinct simulations advanced in lockstep groups",
            s.batch_lanes);
  w.counter("biosens_cohort_batch_factorizations_total",
            "Shared-matrix factorizations paid by batched groups",
            s.batch_factorizations);
  w.gauge("biosens_batch_wall_seconds", "Batch wall-clock time",
          s.wall_seconds);
  w.gauge("biosens_batch_busy_seconds", "Summed attempt execution time",
          s.busy_seconds);
  w.gauge("biosens_batch_backoff_sim_seconds",
          "Simulated re-measurement backoff time", s.backoff_sim_seconds);
  w.gauge("biosens_jobs_per_second", "Completed jobs per wall second",
          s.jobs_per_second());
  w.gauge("biosens_utilization", "Mean workers kept busy (busy / wall)",
          s.utilization());
  w.histogram("biosens_attempt_seconds", "Measurement attempt latency",
              metrics.attempt_latency);
  w.histogram("biosens_queue_wait_seconds",
              "Job submit to worker-start delta", metrics.queue_wait);
  if (trace != nullptr) obs::append_layer_metrics(w, *trace);
  return w.text();
}

}  // namespace biosens::engine
