// The batch engine: pool lifecycle, backpressure, structured job
// errors, retry, affinity serialization, metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "engine/engine.hpp"

namespace biosens::engine {
namespace {

using namespace std::chrono_literals;

/// Polls `predicate` for up to two seconds.
template <class Predicate>
bool eventually(Predicate predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  ThreadPool pool(4, 16);
  for (int i = 0; i < 200; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.shutdown();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, DestructorDrainsTheQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2, 64);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] {
        std::this_thread::sleep_for(1ms);
        count.fetch_add(1);
      });
    }
  }  // ~ThreadPool: graceful shutdown finishes queued work
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(1, 4);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), SpecError);
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2, 4);
  pool.shutdown();
  pool.shutdown();
}

TEST(ThreadPool, RejectsInvalidConfiguration) {
  EXPECT_THROW(ThreadPool(0, 4), SpecError);
  EXPECT_THROW(ThreadPool(1, 0), SpecError);
  ThreadPool pool(1, 1);
  EXPECT_THROW(pool.submit(std::function<void()>{}), SpecError);
}

TEST(ThreadPool, BlockingSubmitWaitsForSpaceInsteadOfFailing) {
  ThreadPool pool(1, 1);
  std::atomic<bool> release{false};
  std::atomic<bool> blocker_running{false};
  std::atomic<int> done{0};
  pool.submit([&] {
    blocker_running = true;
    while (!release) std::this_thread::sleep_for(1ms);
  });
  ASSERT_TRUE(eventually([&] { return blocker_running.load(); }));
  pool.submit([&done] { done.fetch_add(1); });  // fills the queue

  std::thread producer([&] {
    pool.submit([&done] { done.fetch_add(1); });  // blocks until space
  });
  std::this_thread::sleep_for(20ms);
  release = true;  // unblock the worker; producer's submit proceeds
  producer.join();
  pool.shutdown();
  EXPECT_EQ(done.load(), 2);
}

TEST(Engine, SerialModeRunsInlineWithoutAPool) {
  Engine engine;  // workers == 0
  EXPECT_EQ(engine.worker_count(), 0u);
  EXPECT_EQ(engine.pool(), nullptr);

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<JobSpec> jobs(3);
  std::atomic<int> on_caller{0};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].name = "inline-" + std::to_string(i);
    jobs[i].body = [&, caller](JobContext&) {
      if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
      return true;
    };
  }
  const auto reports = engine.run(jobs);
  EXPECT_EQ(on_caller.load(), 3);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_TRUE(reports[1].accepted);
  EXPECT_EQ(reports[1].index, 1u);
}

TEST(BatchRunner, JobFailuresNeverAbortTheBatch) {
  Engine engine(EngineOptions{.workers = 4, .queue_capacity = 16});
  std::vector<JobSpec> jobs(10);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].name = "job-" + std::to_string(i);
    jobs[i].body = [i](JobContext&) -> Expected<bool> {
      if (i == 3) {
        return make_error(ErrorCode::kAnalysis, Layer::kAnalysis, "peaks",
                          "bad job 3");
      }
      if (i == 7) throw NumericsError("bad job 7");  // legacy body
      return true;
    };
  }
  // Every other job runs to completion; each failure sits on its own
  // report as a structured error instead of unwinding through the pool.
  const auto reports = engine.run(jobs, BatchOptions{.retry = no_retry()});
  ASSERT_EQ(reports.size(), 10u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i == 3 || i == 7) continue;
    EXPECT_TRUE(reports[i].accepted) << i;
    EXPECT_FALSE(reports[i].error.has_value()) << i;
  }
  ASSERT_TRUE(reports[3].error.has_value());
  EXPECT_EQ(reports[3].error->code, ErrorCode::kAnalysis);
  EXPECT_EQ(reports[3].error->layer, Layer::kAnalysis);
  // The thrown legacy exception was classified at the engine boundary.
  ASSERT_TRUE(reports[7].error.has_value());
  EXPECT_EQ(reports[7].error->code, ErrorCode::kNumerics);
  EXPECT_EQ(reports[7].error->layer, Layer::kEngine);
  EXPECT_EQ(reports[7].error->stage, "job-7");
}

TEST(BatchRunner, FatalErrorsStopBurningRetryBudget) {
  Engine engine;
  std::atomic<int> spec_calls{0};
  std::atomic<int> numerics_calls{0};
  std::vector<JobSpec> jobs(2);
  jobs[0].name = "bad-spec";
  jobs[0].body = [&](JobContext&) -> Expected<bool> {
    spec_calls.fetch_add(1);
    return make_error(ErrorCode::kSpec, Layer::kChem, "kinetics",
                      "k_cat must be positive");
  };
  jobs[1].name = "noisy-fit";
  jobs[1].body = [&](JobContext&) -> Expected<bool> {
    numerics_calls.fetch_add(1);
    return make_error(ErrorCode::kNumerics, Layer::kAnalysis, "fit",
                      "did not converge");
  };

  BatchOptions options;
  options.retry.max_attempts = 4;
  const auto reports = engine.run(jobs, options);

  // The deterministic spec fault fails once; re-measuring it would
  // reproduce the same error, so the engine stops immediately. The
  // transient numerics fault is worth the full budget.
  EXPECT_EQ(spec_calls.load(), 1);
  EXPECT_EQ(numerics_calls.load(), 4);
  EXPECT_EQ(reports[0].attempts, 1u);
  EXPECT_EQ(reports[1].attempts, 4u);
  EXPECT_FALSE(reports[0].accepted);
  EXPECT_FALSE(reports[1].accepted);

  // Failures are counted per error code.
  const MetricsSnapshot snapshot = engine.snapshot();
  EXPECT_EQ(
      snapshot.failures_by_code[static_cast<std::size_t>(ErrorCode::kSpec)],
      1u);
  EXPECT_EQ(snapshot.failures_by_code[static_cast<std::size_t>(
                ErrorCode::kNumerics)],
            1u);
  EXPECT_EQ(snapshot.jobs_failed, 2u);
}

TEST(BatchRunner, RetryableErrorClearedBySuccessLeavesACleanReport) {
  Engine engine;
  std::vector<JobSpec> jobs(1);
  jobs[0].name = "recovers";
  jobs[0].body = [](JobContext& ctx) -> Expected<bool> {
    if (ctx.attempt == 0) {
      return make_error(ErrorCode::kNumerics, Layer::kElectrochem,
                        "solver", "transient divergence");
    }
    return true;
  };
  BatchOptions options;
  options.retry.max_attempts = 3;
  const auto reports = engine.run(jobs, options);
  EXPECT_TRUE(reports[0].accepted);
  EXPECT_EQ(reports[0].attempts, 2u);
  EXPECT_FALSE(reports[0].error.has_value());
  EXPECT_EQ(engine.snapshot().jobs_failed, 0u);
}

TEST(BatchRunner, JobWithoutBodyIsRejectedUpFront) {
  Engine engine;
  std::vector<JobSpec> jobs(1);
  jobs[0].name = "empty";
  EXPECT_THROW(engine.run(jobs), SpecError);
}

TEST(BatchRunner, RetriesUntilQcPasses) {
  Engine engine;
  std::vector<JobSpec> jobs(1);
  jobs[0].name = "flaky-electrode";
  jobs[0].body = [](JobContext& ctx) { return ctx.attempt >= 2; };

  BatchOptions options;
  options.retry.max_attempts = 5;
  options.retry.initial_backoff = Time::seconds(30.0);
  options.retry.backoff_multiplier = 2.0;
  options.retry.max_backoff = Time::minutes(10.0);

  const auto reports = engine.run(jobs, options);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].accepted);
  EXPECT_EQ(reports[0].attempts, 3u);
  // Two re-measurements: 30 s + 60 s of simulated equilibration.
  EXPECT_DOUBLE_EQ(reports[0].simulated_backoff.seconds(), 90.0);
}

TEST(BatchRunner, RetryExhaustionReportsFailureWithoutThrowing) {
  Engine engine;
  std::vector<JobSpec> jobs(1);
  jobs[0].name = "dead-sensor";
  jobs[0].body = [](JobContext&) { return false; };

  BatchOptions options;
  options.retry.max_attempts = 4;
  const auto reports = engine.run(jobs, options);
  EXPECT_FALSE(reports[0].accepted);
  EXPECT_EQ(reports[0].attempts, 4u);
  EXPECT_EQ(engine.metrics().jobs_failed.value(), 1u);
  // Pure QC exhaustion carries no structured fault but still lands in
  // the per-code failure counters under kQcReject.
  EXPECT_FALSE(reports[0].error.has_value());
  EXPECT_EQ(engine.snapshot().failures_by_code[static_cast<std::size_t>(
                ErrorCode::kQcReject)],
            1u);
}

TEST(BatchRunner, EachAttemptGetsItsOwnDeterministicStream) {
  Engine engine;
  std::vector<double> draws;
  std::vector<JobSpec> jobs(1);
  jobs[0].name = "drawer";
  jobs[0].body = [&draws](JobContext& ctx) {
    draws.push_back(ctx.rng.uniform());
    return ctx.attempt == 2;
  };
  BatchOptions options;
  options.seed = 77;
  options.retry.max_attempts = 3;
  engine.run(jobs, options);

  ASSERT_EQ(draws.size(), 3u);
  EXPECT_NE(draws[0], draws[1]);
  EXPECT_NE(draws[1], draws[2]);
  // The attempt streams are a pure function of (seed, index, attempt).
  const Rng root(77);
  Rng replay = root.child(0).child(1);
  EXPECT_DOUBLE_EQ(draws[1], replay.uniform());
}

TEST(BatchRunner, AffinitySerializesOneInstrument) {
  Engine engine(EngineOptions{.workers = 4, .queue_capacity = 32});
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};

  std::vector<JobSpec> jobs(12);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].name = "chip-panel-" + std::to_string(i);
    jobs[i].affinity = 0;  // all twelve panels on one chip
    jobs[i].body = [&](JobContext&) {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = max_in_flight.load();
      while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(1ms);
      in_flight.fetch_sub(1);
      return true;
    };
  }
  engine.run(jobs);
  EXPECT_EQ(max_in_flight.load(), 1);
}

TEST(BatchRunner, DistinctAffinityGroupsOverlap) {
  // Four instruments, sixteen 10 ms holds (the body sleeps while the
  // engine holds its instrument's affinity lock): a serial schedule
  // needs ~160 ms; four instruments in parallel need ~40 ms. Allow slack.
  Engine engine(EngineOptions{.workers = 4, .queue_capacity = 32});
  std::vector<JobSpec> jobs(16);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].name = "panel-" + std::to_string(i);
    jobs[i].affinity = i % 4;
    jobs[i].body = [](JobContext&) {
      std::this_thread::sleep_for(10ms);
      return true;
    };
  }
  const Stopwatch watch;
  engine.run(jobs);
  EXPECT_LT(watch.elapsed_seconds(), 0.135);
}

TEST(Engine, MetricsCountSubmissionsAttemptsAndRetries) {
  Engine engine(EngineOptions{.workers = 2, .queue_capacity = 16});
  std::vector<JobSpec> jobs(8);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].name = "job-" + std::to_string(i);
    // Job 5 needs one re-measurement; everything else passes first try.
    jobs[i].body = [i](JobContext& ctx) { return i != 5 || ctx.attempt >= 1; };
  }
  engine.run(jobs);

  const MetricsSnapshot snapshot = engine.snapshot();
  EXPECT_EQ(snapshot.jobs_submitted, 8u);
  EXPECT_EQ(snapshot.jobs_succeeded, 8u);
  EXPECT_EQ(snapshot.jobs_failed, 0u);
  EXPECT_EQ(snapshot.attempts, 9u);
  EXPECT_EQ(snapshot.retries, 1u);
  EXPECT_GT(snapshot.wall_seconds, 0.0);
  EXPECT_GE(snapshot.attempt_p99_s, snapshot.attempt_p50_s);

  engine.reset_metrics();
  EXPECT_EQ(engine.snapshot().jobs_submitted, 0u);
}

TEST(Metrics, HistogramQuantilesAreOrderedAndApproximate) {
  LatencyHistogram histogram;
  for (int i = 1; i <= 1000; ++i) {
    histogram.record(static_cast<double>(i) * 1e-4);  // 0.1 ms .. 100 ms
  }
  EXPECT_EQ(histogram.count(), 1000u);
  const double p50 = histogram.quantile(0.50);
  const double p95 = histogram.quantile(0.95);
  const double p99 = histogram.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Bucket edges are within ~1.54x (10^(9/48)) of the true quantile.
  EXPECT_NEAR(p50, 0.050, 0.030);
  EXPECT_NEAR(p99, 0.099, 0.055);
  EXPECT_NEAR(histogram.max_seconds(), 0.100, 1e-6);
  EXPECT_NEAR(histogram.total_seconds(), 50.05, 0.01);
}

TEST(Metrics, QuantileClampsOutOfRangeArguments) {
  // Degenerate quantile arguments clamp instead of throwing: exporters
  // scrape histograms live and must never crash a service
  // (obs/instruments.hpp documents the edge contract).
  LatencyHistogram histogram;
  histogram.record(0.001);
  EXPECT_EQ(histogram.quantile(0.0), 0.0);
  EXPECT_EQ(histogram.quantile(-1.0), 0.0);
  EXPECT_EQ(histogram.quantile(1.5), histogram.quantile(1.0));
}

TEST(RetryPolicy, ExponentialBackoffWithCeiling) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff = Time::seconds(30.0);
  policy.backoff_multiplier = 3.0;
  policy.max_backoff = Time::seconds(200.0);
  policy.validate();

  EXPECT_DOUBLE_EQ(policy.backoff_before_attempt(0).seconds(), 0.0);
  EXPECT_DOUBLE_EQ(policy.backoff_before_attempt(1).seconds(), 30.0);
  EXPECT_DOUBLE_EQ(policy.backoff_before_attempt(2).seconds(), 90.0);
  EXPECT_DOUBLE_EQ(policy.backoff_before_attempt(3).seconds(), 200.0);
  EXPECT_DOUBLE_EQ(policy.total_backoff(4).seconds(), 320.0);
}

TEST(RetryPolicy, ValidateRejectsMalformedPolicies) {
  RetryPolicy zero_attempts;
  zero_attempts.max_attempts = 0;
  EXPECT_THROW(zero_attempts.validate(), SpecError);

  RetryPolicy shrinking;
  shrinking.backoff_multiplier = 0.5;
  EXPECT_THROW(shrinking.validate(), SpecError);

  RetryPolicy inverted;
  inverted.max_backoff = Time::seconds(1.0);
  inverted.initial_backoff = Time::seconds(10.0);
  EXPECT_THROW(inverted.validate(), SpecError);

  EXPECT_EQ(no_retry().max_attempts, 1u);
  no_retry().validate();
}

}  // namespace
}  // namespace biosens::engine
