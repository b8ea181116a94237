// Engine: the facade of the batch-execution subsystem.
//
// Owns the worker pool (or runs inline when workers == 0 — the serial
// reference mode every parallel run must reproduce bit-for-bit) and the
// shared metrics registry. Higher layers hand it batches of JobSpecs
// directly or through the typed entry points in core/ (
// Platform::run_panel_batch, Platform::try_calibrate_all_batch, the
// engine-backed cohort helpers in core/workloads). A batch's output is
// its JobReports and snapshot(); live health, rates and Prometheus text
// belong to the resident service (service/service.hpp).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "engine/batch_runner.hpp"
#include "engine/job.hpp"
#include "engine/metrics.hpp"
#include "engine/sim_cache.hpp"
#include "engine/thread_pool.hpp"

namespace biosens::engine {

struct EngineOptions {
  /// Worker threads. 0 = run batches inline on the calling thread (the
  /// serial reference execution).
  std::size_t workers = 0;
  /// Bounded task-queue capacity (backpressure threshold).
  std::size_t queue_capacity = 128;
  /// Capacity of the engine's simulation memoization cache
  /// (engine/sim_cache.hpp); 0 disables it. Results are byte-identical
  /// with the cache on or off — it only skips recomputing deterministic
  /// simulation stages whose inputs hash identically.
  std::size_t sim_cache_capacity = 0;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  /// Runs a batch to completion (delegates to BatchRunner).
  std::vector<JobReport> run(const std::vector<JobSpec>& jobs,
                             const BatchOptions& options = {});

  [[nodiscard]] std::size_t worker_count() const {
    return pool_ ? pool_->worker_count() : 0;
  }

  /// Null when the engine is serial (workers == 0).
  [[nodiscard]] ThreadPool* pool() { return pool_.get(); }

  /// The simulation memoization cache; null when disabled
  /// (sim_cache_capacity == 0). Shared by all workers; its traffic is
  /// mirrored into metrics().cache_{hits,misses,evictions}.
  [[nodiscard]] SimCache* sim_cache() { return sim_cache_.get(); }
  [[nodiscard]] const SimCache* sim_cache() const {
    return sim_cache_.get();
  }

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  /// Metrics frozen over the wall-clock window since construction or
  /// the last reset_metrics().
  [[nodiscard]] MetricsSnapshot snapshot() const;

  void reset_metrics();

 private:
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  MetricsRegistry metrics_;
  std::unique_ptr<SimCache> sim_cache_;
  Stopwatch window_;
};

}  // namespace biosens::engine
