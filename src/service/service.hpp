// SimulationService: the long-lived, multi-tenant front of the
// simulation engine.
//
// Where engine::Engine runs one batch to completion, the service is a
// *resident* process component: it runs its own worker threads for its
// whole lifetime and hosts stateful patient sessions that stream
// measurement requests in over hours or days (open_session ->
// submit_measurement* -> advance_time* -> close_session). It adds
// three service-grade properties (docs/service.md):
//
//  1. Fairness + priority. Sessions live in per-tenant queues; a
//     round-robin ring over tenants per priority class picks the next
//     measurement, so one chatty tenant cannot starve the others, and
//     interactive (point-of-care) work overtakes bulk re-simulation.
//     That ring is the only scheduler: each worker takes the next
//     measurement from it under one mutex when it becomes free.
//
//  2. Admission control + backpressure. Every queue is bounded
//     (src/service/bounded.hpp); when a session, tenant, or the whole
//     service is saturated, submit returns a structured
//     ErrorCode::kOverloaded Expected carrying the tenant and a
//     retry_after_s hint derived from observed execution latency. The
//     service never aborts and never buffers without bound.
//
//  3. Graceful drain/restart. drain() stops admission and quiesces
//     every session; quiesced sessions snapshot to bit-exact text
//     (session.hpp) and restore byte-identically, so a restart is
//     invisible in the measurement streams.
//
// SLO instruments (queue wait, execution latency, time-to-first-result,
// per-class and per-tenant counters) feed the same obs/ exposition the
// rest of the platform uses.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"
#include "obs/health.hpp"
#include "obs/instruments.hpp"
#include "service/bounded.hpp"
#include "service/session.hpp"

namespace biosens::obs {
struct RecorderDump;
}

namespace biosens::service {

struct ServiceOptions {
  std::size_t workers = 4;
  std::size_t max_sessions = 1u << 20;
  /// Bounds, each with its own kOverloaded rejection message:
  std::size_t max_pending_per_session = 256;
  std::size_t max_pending_per_tenant = 1024;
  std::size_t max_pending_total = 1u << 14;
};

/// SLO instruments for one priority class. Lock-free; read at any time.
struct ClassSlo {
  obs::Counter submitted;
  obs::Counter completed;  ///< measurements that returned a value
  obs::Counter failed;     ///< measurements that returned an error
  obs::Counter rejected;   ///< admission rejections (kOverloaded)
  obs::LatencyHistogram queue_wait;  ///< submit -> execution start
  obs::LatencyHistogram exec;        ///< body execution time
  obs::LatencyHistogram time_to_first_result;  ///< open -> first record
};

/// Point-in-time service gauges.
struct ServiceStats {
  std::uint64_t open_sessions = 0;
  std::uint64_t pending = 0;    ///< queued + executing measurements
  std::uint64_t in_flight = 0;  ///< executing on a worker
};

class SimulationService {
 public:
  explicit SimulationService(ServiceOptions options = {});

  /// Stops admission, finishes everything queued, joins the workers.
  ~SimulationService();

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  /// Opens a stateful session for `options.tenant`. Rejects with
  /// kOverloaded when the session table is full, kSpec on a malformed
  /// tenant name or missing body.
  [[nodiscard]] Expected<SessionId> try_open_session(SessionOptions options);

  /// Enqueues the session's next measurement; returns its index.
  /// kOverloaded (with tenant + retry_after_s) when the session queue,
  /// the tenant budget, or the service budget is saturated, or while
  /// draining. Never blocks.
  [[nodiscard]] Expected<std::uint64_t> try_submit_measurement(SessionId id);

  /// Advances the session's simulated clock (visible to subsequent
  /// measurements as SessionContext::sim_time_s). kSpec on dt < 0.
  [[nodiscard]] Expected<void> try_advance_time(SessionId id, double dt_s);

  /// Blocks until the session has no queued or executing measurements.
  [[nodiscard]] Expected<void> try_wait_idle(SessionId id);

  /// Copy of the session's completed records so far, ordered by index.
  [[nodiscard]] Expected<std::vector<MeasurementRecord>> try_stream(
      SessionId id);

  /// Waits for the session to quiesce, returns its full summary, and
  /// frees it. The id is invalid afterwards.
  [[nodiscard]] Expected<SessionSummary> try_close_session(SessionId id);

  /// Graceful drain: stop admitting measurements, wait until every
  /// session is idle. The service stays up — sessions can be
  /// snapshotted, then resume() re-opens admission.
  void drain();
  void resume();
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Serializes a quiesced session (drain first; kSpec when the session
  /// still has queued or executing work).
  [[nodiscard]] Expected<SessionSnapshot> try_snapshot(SessionId id);

  /// Recreates a session from a snapshot, resuming its streams exactly
  /// where they stopped. The body is supplied fresh (snapshots carry
  /// state, not code).
  [[nodiscard]] Expected<SessionId> try_restore(
      SessionBody body, const SessionSnapshot& snapshot);

  /// Blocks until no session anywhere has queued or executing work.
  void wait_all_idle();

  [[nodiscard]] const ClassSlo& slo(PriorityClass cls) const {
    return slo_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] ServiceStats stats() const;

  /// Prometheus 0.0.4 exposition: per-class SLO counters + histograms,
  /// per-tenant request counters, service gauges; appends the per-layer
  /// latency attribution computed from `trace` (a flight-recorder dump)
  /// when given.
  [[nodiscard]] std::string prometheus_text(
      const obs::RecorderDump* trace = nullptr) const;

  /// healthz/readyz-style report: kHealthy/kDegraded/kUnhealthy with
  /// machine-readable reasons (queue saturation since the last quiesce,
  /// SLO burn, drain in progress, watchdog trips), windowed rates from
  /// the sampler, and flight-recorder state. drain()/resume() reset the
  /// rejection baseline, so a resolved incident returns to kHealthy.
  /// Takes a fresh metrics sample so rates end "now"
  /// (docs/operations.md has the JSON schema).
  [[nodiscard]] obs::IntrospectionReport introspection_report();

 private:
  struct Request;
  struct Session;

  /// Per-tenant scheduling + accounting state.
  struct TenantState {
    explicit TenantState(std::size_t session_capacity)
        : runnable{BoundedDeque<SessionId>(session_capacity),
                   BoundedDeque<SessionId>(session_capacity)} {}

    /// Sessions with queued work, per priority class, round-robin order.
    std::array<BoundedDeque<SessionId>, kPriorityClassCount> runnable;
    std::array<bool, kPriorityClassCount> in_ring{};
    std::uint64_t pending = 0;  ///< queued + executing (admission budget)

    struct Outcomes {
      std::uint64_t submitted = 0;
      std::uint64_t completed = 0;
      std::uint64_t failed = 0;
      std::uint64_t rejected = 0;
    };
    std::array<Outcomes, kPriorityClassCount> outcomes{};
  };

  [[nodiscard]] Expected<SessionId> insert_session(
      std::unique_ptr<Session> session, const char* stage);

  /// All three require mutex_ held; execute() releases it while the
  /// session body runs and holds it again on return.
  void enqueue_runnable(Session& session);
  [[nodiscard]] Session* pick_next();
  void execute(std::unique_lock<std::mutex>& lock, Session& session);

  /// Every worker thread runs this: take the next runnable measurement,
  /// run and record it; sleep on work_cv_ only when nothing is runnable.
  void worker_loop();
  [[nodiscard]] double retry_after_hint(PriorityClass cls,
                                        std::uint64_t backlog) const;

  [[nodiscard]] std::uint64_t total_rejected() const;
  [[nodiscard]] std::uint64_t total_submitted() const;
  /// Pending capacity the utilization gauge divides by: the service
  /// budget, or the summed per-session budgets when those bind first.
  [[nodiscard]] double effective_pending_capacity() const;
  /// Re-anchors the "since last quiesce" health counters to now.
  void reset_health_baseline();

  ServiceOptions options_;
  std::array<ClassSlo, kPriorityClassCount> slo_{};

  /// Guards the session table, the tenant states and the rings below.
  /// in_flight_, pending_ and open_sessions_ change only under it and
  /// are read lock-free by stats() and the sampler.
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< a session became runnable
  std::condition_variable idle_cv_;  ///< a session or the service idled
  std::unordered_map<SessionId, std::unique_ptr<Session>> sessions_;
  std::unordered_map<std::string, TenantState> tenants_;
  /// Round-robin ring of tenants with runnable work, per class.
  std::array<BoundedDeque<std::string>, kPriorityClassCount> ring_;
  bool stopping_ = false;  ///< workers exit once nothing is runnable

  std::atomic<std::uint64_t> next_session_id_{1};
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> pending_{0};  ///< queued + executing
  std::atomic<std::uint64_t> open_sessions_{0};
  std::atomic<bool> draining_{false};
  obs::Watchdog watchdog_;
  obs::MetricsSampler sampler_;
  /// Rejection/submission totals at the last drain()/resume(): health
  /// reports rejections *since* the last quiesce, so a handled incident
  /// does not keep the service degraded forever.
  std::atomic<std::uint64_t> rejected_baseline_{0};
  std::atomic<std::uint64_t> submitted_baseline_{0};
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace biosens::service
