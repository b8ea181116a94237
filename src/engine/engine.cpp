#include "engine/engine.hpp"

namespace biosens::engine {

Engine::Engine(EngineOptions options) : options_(options) {
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
  return BatchRunner(*this).run(jobs, options);
}

MetricsSnapshot Engine::snapshot() const {
  return metrics_.snapshot(window_.elapsed_seconds());
}

void Engine::reset_metrics() {
  metrics_.reset();
  window_ = Stopwatch();
}

}  // namespace biosens::engine
