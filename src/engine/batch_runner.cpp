#include "engine/batch_runner.hpp"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "common/expected.hpp"
#include "engine/engine.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"

namespace biosens::engine {
namespace {

/// Read-only map of affinity key -> instrument lock, built before any
/// worker starts (so lookups during the run are unsynchronized reads).
using AffinityLocks = std::map<std::size_t, std::unique_ptr<std::mutex>>;

AffinityLocks build_affinity_locks(const std::vector<JobSpec>& jobs) {
  AffinityLocks locks;
  for (const JobSpec& job : jobs) {
    if (job.affinity == kNoAffinity) continue;
    auto& slot = locks[job.affinity];
    if (!slot) slot = std::make_unique<std::mutex>();
  }
  return locks;
}

/// Runs every attempt of one job. Returns via `out`; never throws. A QC
/// rejection (`Expected` holding false) re-measures under the retry
/// policy; a structured error is recorded on the report and retried only
/// when the policy classifies it as transient; a stray exception from a
/// legacy body is converted to an ErrorInfo at this boundary instead of
/// unwinding into the pool.
void run_one_job(Engine& engine, const JobSpec& job, std::size_t index,
                 const Rng& root, const BatchOptions& options,
                 std::mutex* instrument, JobReport& out) {
  MetricsRegistry& metrics = engine.metrics();
  out.index = index;
  out.name = job.name;

  // Flight-recorder attribution: engine jobs have no tenant, so the
  // job name fills that slot.
  const obs::FlightRecorder::ScopedContext recorder_context(job.name,
                                                            index);
  const obs::ObsSpan job_span(Layer::kEngine, "job", job.name);
  const Stopwatch job_watch;
  const Rng job_rng = root.child(index);
  bool accepted = false;
  std::size_t attempts = 0;

  for (std::size_t attempt = 0; attempt < options.retry.max_attempts;
       ++attempt) {
    if (attempt > 0) {
      metrics.retries.increment();
      const Time backoff = options.retry.backoff_before_attempt(attempt);
      out.simulated_backoff += backoff;
      metrics.add_backoff_seconds(backoff.seconds());
      obs::instant(Layer::kEngine, "retry-backoff", job.name);
    }

    JobContext context{index, attempt, job_rng.child(attempt)};
    obs::ObsSpan attempt_span(Layer::kEngine, "attempt", job.name);
    const Stopwatch attempt_watch;
    Expected<bool> result(false);
    {
      // Hold the physical instrument for the duration of the attempt:
      // one chip measures one panel at a time (shared counter/reference).
      std::unique_lock<std::mutex> hold;
      if (instrument != nullptr) {
        hold = std::unique_lock<std::mutex>(*instrument);
      }
      // The one sanctioned exception boundary: third-party job bodies
      // may still throw into the engine; everything is classified back
      // into the Expected taxonomy here (docs/errors.md).
      try {  // biosens-lint: allow(throw-discipline)
        result = job.body(context);
      } catch (const std::exception& e) {  // biosens-lint: allow(throw-discipline)
        result = ErrorInfo::from_exception(e, Layer::kEngine, job.name);
      } catch (...) {  // biosens-lint: allow(throw-discipline)
        result = make_error(ErrorCode::kInternal, Layer::kEngine, job.name,
                            "job body raised a non-standard exception");
      }
    }
    const double took = attempt_watch.elapsed_seconds();
    ++attempts;
    metrics.attempts.increment();
    metrics.attempt_latency.record(took);
    metrics.add_busy_seconds(took);

    if (result.has_value()) {
      accepted = result.value();
      out.error.reset();
      if (accepted) break;
      attempt_span.annotate("qc-reject");
      continue;  // QC rejection: worth re-measuring under the budget
    }
    accepted = false;
    attempt_span.fail(result.error());
    out.error = std::move(result.error());
    // A deterministic fault would reproduce on every attempt — stop
    // instead of burning the remaining retry budget.
    if (!options.retry.should_retry(*out.error)) break;
  }

  out.attempts = attempts;
  out.accepted = accepted;
  out.wall_seconds = job_watch.elapsed_seconds();
  if (accepted) {
    metrics.jobs_succeeded.increment();
  } else {
    metrics.jobs_failed.increment();
    metrics.record_failure(out.error.has_value() ? out.error->code
                                                 : ErrorCode::kQcReject);
    obs::FlightRecorder::trigger_job_failure(
        job.name, out.error.has_value()
                      ? out.error->describe()
                      : "qc rejection exhausted the retry budget");
  }
}

}  // namespace

std::vector<JobReport> BatchRunner::run(const std::vector<JobSpec>& jobs,
                                        const BatchOptions& options) {
  options.retry.validate();
  for (const JobSpec& job : jobs) {
    require<SpecError>(static_cast<bool>(job.body),
                       "batch job '" + job.name + "' has no body");
  }

  const std::size_t count = jobs.size();
  std::vector<JobReport> reports(count);
  if (count == 0) return reports;

  const AffinityLocks affinity_locks = build_affinity_locks(jobs);
  const Rng root(options.seed);
  MetricsRegistry& metrics = engine_.metrics();

  // Submit timestamps for the queue-wait histogram (submit -> the moment
  // a worker picks the job up). Written by the producer before submit(),
  // read by the worker inside the submitted closure: the pool's queue
  // hand-off orders the two.
  std::vector<std::chrono::steady_clock::time_point> submitted(count);

  auto execute = [&](std::size_t i) {
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      submitted[i])
            .count();
    metrics.queue_wait.record(waited);
    obs::async_end(Layer::kEngine, "queue-wait", i, submitted[i]);
    std::mutex* instrument = nullptr;
    if (jobs[i].affinity != kNoAffinity) {
      instrument = affinity_locks.at(jobs[i].affinity).get();
    }
    run_one_job(engine_, jobs[i], i, root, options, instrument,
                reports[i]);
  };

  auto mark_submitted = [&](std::size_t i) {
    metrics.jobs_submitted.increment();
    submitted[i] = std::chrono::steady_clock::now();
  };

  ThreadPool* pool = engine_.pool();
  if (pool == nullptr) {
    // Serial reference mode: same derivation, same order, same results.
    for (std::size_t i = 0; i < count; ++i) {
      mark_submitted(i);
      execute(i);
    }
  } else {
    std::mutex done_mutex;
    std::condition_variable all_done;
    std::size_t completed = 0;
    for (std::size_t i = 0; i < count; ++i) {
      mark_submitted(i);
      // submit() blocks when the bounded queue is full — batch producers
      // inherit the pool's backpressure instead of buffering everything.
      pool->submit([&, i] {
        execute(i);
        // Notify under the lock: once `completed == count` the waiter may
        // destroy the condvar, so the signal must happen-before that.
        std::lock_guard<std::mutex> lock(done_mutex);
        ++completed;
        all_done.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(done_mutex);
    all_done.wait(lock, [&] { return completed == count; });
  }

  // Failures never abort the batch: each lives on its own JobReport as
  // a structured error, deterministically, whatever the worker count.
  return reports;
}

}  // namespace biosens::engine
