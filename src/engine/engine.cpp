#include "engine/engine.hpp"

namespace biosens::engine {

Engine::Engine(EngineOptions options)
    : options_(options),
      sampler_(
          [this] {
            obs::MetricsSample sample;
            sample.submitted = metrics_.jobs_submitted.value();
            sample.completed = metrics_.jobs_succeeded.value();
            sample.failed = metrics_.jobs_failed.value();
            sample.rejected =
                metrics_
                    .failures_by_code[static_cast<std::size_t>(
                        ErrorCode::kOverloaded)]
                    .value();
            sample.queue_p99_s = metrics_.queue_wait.quantile(0.99);
            return sample;
          }) {
  if (options_.workers > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.workers,
                                         options_.queue_capacity);
  }
  if (options_.sim_cache_capacity > 0) {
    SimCacheOptions cache_options;
    cache_options.capacity = options_.sim_cache_capacity;
    sim_cache_ = std::make_unique<SimCache>(cache_options, &metrics_);
  }
}

std::vector<JobReport> Engine::run(const std::vector<JobSpec>& jobs,
                                   const BatchOptions& options) {
  std::vector<JobReport> reports = BatchRunner(*this).run(jobs, options);
  // One time-series point per batch: enough for cross-batch rates
  // without any background thread.
  sampler_.sample_now();
  return reports;
}

obs::IntrospectionReport Engine::introspection_report() {
  sampler_.sample_now();
  obs::IntrospectionReport report;
  report.component = "engine";
  const MetricsSnapshot s = snapshot();
  obs::HealthInputs inputs;
  inputs.failed = s.jobs_failed;
  inputs.finished = s.jobs_succeeded + s.jobs_failed;
  report.health = obs::evaluate_health(inputs);
  report.rates = sampler_.rates();
  obs::fill_recorder_stats(report);
  return report;
}

MetricsSnapshot Engine::snapshot() const {
  return metrics_.snapshot(window_.elapsed_seconds());
}

std::string Engine::prometheus_text(const obs::RecorderDump* trace) const {
  return prometheus_exposition(metrics_, window_.elapsed_seconds(), trace);
}

void Engine::reset_metrics() {
  metrics_.reset();
  window_ = Stopwatch();
}

}  // namespace biosens::engine
