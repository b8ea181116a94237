#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <utility>

#include "obs/export_prometheus.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"

namespace biosens::service {
namespace {

constexpr Layer kLayer = Layer::kService;

/// Hard ceiling on a session's lifetime measurement count (the record
/// stream is kept for close/snapshot, so it must be bounded too).
constexpr std::size_t kMaxRecordsPerSession = 1u << 20;

/// Child index of the session-sequential stream. Measurement children
/// use indices [0, kMaxRecordsPerSession); this one can never collide.
constexpr std::uint64_t kSessionStreamChild = ~0ULL;

/// retry_after_s floor, and the hint when no latency data exists yet.
constexpr double kDefaultRetryAfterS = 0.005;

/// Soft deadline per executing measurement for the watchdog
/// (introspection only: nothing is cancelled).
constexpr double kWatchdogSoftDeadlineS = 30.0;

[[nodiscard]] std::size_t idx(PriorityClass cls) {
  return static_cast<std::size_t>(cls);
}

[[nodiscard]] bool valid_tenant_name(std::string_view name) {
  if (name.empty() || name.size() > 128) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.' || c == ':';
    if (!ok) return false;
  }
  return true;
}

/// Builds the structured admission rejection: kOverloaded, retryable,
/// with the tenant on the context chain and the retry-after hint set.
template <class T>
[[nodiscard]] Expected<T> overloaded(std::string_view stage,
                                     std::string message,
                                     const std::string& tenant,
                                     double retry_after_s) {
  ErrorInfo info =
      make_error(ErrorCode::kOverloaded, kLayer, stage, std::move(message));
  info.retry_after_s = retry_after_s;
  return ctx("tenant=" + tenant, Expected<T>(std::move(info)));
}

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

/// One queued measurement of one session.
struct SimulationService::Request {
  std::uint64_t index = 0;
  double sim_time_s = 0.0;
  std::uint64_t request_id = 0;  ///< async trace correlation id
  std::chrono::steady_clock::time_point submitted{};
};

struct SimulationService::Session {
  Session(SessionId id_, SessionOptions opts, std::size_t queue_capacity)
      : id(id_),
        tenant(std::move(opts.tenant)),
        priority(opts.priority),
        seed(opts.seed),
        body(std::move(opts.body)),
        root(opts.seed),
        session_rng(root.child(kSessionStreamChild)),
        state(std::move(opts.initial_state)),
        queue(queue_capacity),
        opened(std::chrono::steady_clock::now()) {}

  const SessionId id;
  const std::string tenant;
  const PriorityClass priority;
  const std::uint64_t seed;
  SessionBody body;
  const Rng root;   ///< fixed; measurement i draws from root.child(i)
  Rng session_rng;  ///< advances in submission order; snapshot-serialized
  std::vector<double> state;
  std::vector<MeasurementRecord> records;
  std::uint64_t next_index = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double sim_time_s = 0.0;
  BoundedDeque<Request> queue;
  bool in_flight = false;  ///< one measurement executing (serialization)
  bool listed = false;     ///< present in the tenant's runnable ring
  bool closing = false;
  bool first_result_recorded = false;
  const std::chrono::steady_clock::time_point opened;
};

SimulationService::SimulationService(ServiceOptions options)
    : options_(options),
      ring_{BoundedDeque<std::string>(
                std::max<std::size_t>(1, options.max_sessions)),
            BoundedDeque<std::string>(
                std::max<std::size_t>(1, options.max_sessions))},
      watchdog_(obs::WatchdogOptions{kWatchdogSoftDeadlineS}),
      // The sampler keeps its fixed window (64 samples) and rate limit
      // (one passive sample per 0.25 s).
      sampler_(
          [this] {
            obs::MetricsSample sample;
            for (const ClassSlo& slo : slo_) {
              sample.submitted += slo.submitted.value();
              sample.completed += slo.completed.value();
              sample.failed += slo.failed.value();
              sample.rejected += slo.rejected.value();
            }
            sample.queued = pending_.load(std::memory_order_relaxed);
            sample.queue_p99_s =
                slo_[idx(PriorityClass::kInteractive)].queue_wait.quantile(
                    0.99);
            return sample;
          }) {
  options_.workers = std::max<std::size_t>(1, options_.workers);
  options_.max_sessions = std::max<std::size_t>(1, options_.max_sessions);
  options_.max_pending_per_session =
      std::max<std::size_t>(1, options_.max_pending_per_session);
  // Sized once and assigned in place: no growth call in src/service/.
  workers_ = std::vector<std::thread>(options_.workers);
  for (std::thread& worker : workers_) {
    worker = std::thread([this] { worker_loop(); });
  }
}

SimulationService::~SimulationService() {
  draining_.store(true, std::memory_order_relaxed);
  wait_all_idle();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Expected<SessionId> SimulationService::insert_session(
    std::unique_ptr<Session> session, const char* stage) {
  const SessionId id = session->id;
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t open = open_sessions_.load(std::memory_order_relaxed);
  if (open >= options_.max_sessions) {
    return overloaded<SessionId>(
        stage,
        "session table full (" + std::to_string(open) + " of " +
            std::to_string(options_.max_sessions) + " open)",
        session->tenant, kDefaultRetryAfterS);
  }
  const auto tenant_slot =
      tenants_.try_emplace(session->tenant, options_.max_sessions);
  (void)tenant_slot;  // existing tenant entries are reused as-is
  sessions_.emplace(id, std::move(session));
  open_sessions_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Expected<SessionId> SimulationService::try_open_session(
    SessionOptions options) {
  obs::ObsSpan span(kLayer, "open_session");
  BIOSENS_EXPECT(static_cast<bool>(options.body), ErrorCode::kSpec, kLayer,
                 "open_session", "session body must not be empty");
  BIOSENS_EXPECT(valid_tenant_name(options.tenant), ErrorCode::kSpec,
                 kLayer, "open_session",
                 "tenant name must be a non-empty identifier "
                 "([A-Za-z0-9_.:-], at most 128 chars): '" +
                     options.tenant + "'");
  const SessionId id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  auto session = std::make_unique<Session>(
      id, std::move(options), options_.max_pending_per_session);
  return insert_session(std::move(session), "open_session");
}

Expected<SessionId> SimulationService::try_restore(
    SessionBody body, const SessionSnapshot& snapshot) {
  obs::ObsSpan span(kLayer, "restore_session");
  BIOSENS_EXPECT(static_cast<bool>(body), ErrorCode::kSpec, kLayer,
                 "restore_session", "session body must not be empty");
  BIOSENS_EXPECT(valid_tenant_name(snapshot.tenant), ErrorCode::kSpec,
                 kLayer, "restore_session",
                 "snapshot carries a malformed tenant name '" +
                     snapshot.tenant + "'");
  const SessionId id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);

  SessionOptions options;
  options.tenant = snapshot.tenant;
  options.priority = snapshot.priority;
  options.seed = snapshot.seed;
  options.body = std::move(body);
  options.initial_state = snapshot.state;
  auto session = std::make_unique<Session>(
      id, std::move(options), options_.max_pending_per_session);
  // Resume every stream exactly where the snapshot froze it.
  session->session_rng = Rng::from_state(snapshot.session_rng);
  session->records = snapshot.records;
  session->next_index = snapshot.next_index;
  session->completed = snapshot.completed;
  session->failed = snapshot.failed;
  session->sim_time_s = snapshot.sim_time_s;
  session->first_result_recorded = !snapshot.records.empty();
  return insert_session(std::move(session), "restore_session");
}

Expected<std::uint64_t> SimulationService::try_submit_measurement(
    SessionId id) {
  obs::ObsSpan span(kLayer, "submit_measurement");
  std::uint64_t measurement_index = 0;
  bool made_runnable = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    BIOSENS_EXPECT(it != sessions_.end(), ErrorCode::kSpec, kLayer,
                   "submit_measurement",
                   "unknown session id " + std::to_string(id));
    Session& session = *it->second;
    BIOSENS_EXPECT(!session.closing, ErrorCode::kSpec, kLayer,
                   "submit_measurement", "session is closing");
    BIOSENS_EXPECT(session.next_index < kMaxRecordsPerSession,
                   ErrorCode::kSpec, kLayer, "submit_measurement",
                   "session reached its lifetime measurement cap");

    auto tenant_it = tenants_.find(session.tenant);
    BIOSENS_EXPECT(tenant_it != tenants_.end(), ErrorCode::kInternal,
                   kLayer, "submit_measurement",
                   "tenant state missing for an open session");
    TenantState& tenant = tenant_it->second;
    const std::size_t cls = idx(session.priority);

    // Admission control, most specific bound first. Each rejection is a
    // result, not a crash: kOverloaded + tenant + retry-after hint.
    const auto reject = [&](std::string message,
                            std::uint64_t backlog) -> Expected<std::uint64_t> {
      tenant.outcomes[cls].rejected += 1;
      slo_[cls].rejected.increment();
      // Attribute the overload instant to the rejected tenant so the
      // flight recorder's auto-dump can isolate its tail even before
      // any of its measurements completed; the trigger latches the
      // recorder's first-incident dump (obs/recorder.hpp).
      const obs::FlightRecorder::ScopedContext recorder_context(
          session.tenant, session.id);
      obs::instant(kLayer, "svc-overloaded", session.tenant);
      obs::FlightRecorder::trigger_overload(session.tenant, message);
      return overloaded<std::uint64_t>(
          "submit_measurement", std::move(message), session.tenant,
          retry_after_hint(session.priority, backlog));
    };
    if (draining_.load(std::memory_order_relaxed)) {
      return reject("service is draining", tenant.pending);
    }
    if (session.queue.size() >= session.queue.capacity()) {
      return reject("session queue full (" +
                        std::to_string(session.queue.size()) + " queued)",
                    session.queue.size());
    }
    if (tenant.pending >=
        static_cast<std::uint64_t>(options_.max_pending_per_tenant)) {
      return reject("tenant budget exhausted (" +
                        std::to_string(tenant.pending) + " pending)",
                    tenant.pending);
    }
    const std::uint64_t total = pending_.load(std::memory_order_relaxed);
    if (total >= static_cast<std::uint64_t>(options_.max_pending_total)) {
      return reject("service saturated (" + std::to_string(total) +
                        " pending)",
                    total);
    }

    Request request;
    request.index = session.next_index;
    request.sim_time_s = session.sim_time_s;
    request.request_id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed);
    request.submitted = std::chrono::steady_clock::now();
    const bool queued = session.queue.try_push_back(request);
    BIOSENS_EXPECT(queued, ErrorCode::kInternal, kLayer,
                   "submit_measurement",
                   "session queue rejected a push below capacity");
    session.next_index += 1;
    tenant.pending += 1;
    tenant.outcomes[cls].submitted += 1;
    pending_.fetch_add(1, std::memory_order_relaxed);
    slo_[cls].submitted.increment();
    if (!session.in_flight && !session.listed) {
      enqueue_runnable(session);
      made_runnable = true;
    }
    measurement_index = request.index;
  }
  // One new runnable session needs one worker; a worker that re-lists
  // its session after a measurement picks the next one itself.
  if (made_runnable) work_cv_.notify_one();
  // The measurement index doubles as the deterministic stream position.
  return measurement_index;
}

Expected<void> SimulationService::try_advance_time(SessionId id,
                                                   double dt_s) {
  obs::ObsSpan span(kLayer, "advance_time");
  BIOSENS_EXPECT(dt_s >= 0.0, ErrorCode::kSpec, kLayer, "advance_time",
                 "time must not run backwards (dt " + std::to_string(dt_s) +
                     ")");
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  BIOSENS_EXPECT(it != sessions_.end(), ErrorCode::kSpec, kLayer,
                 "advance_time", "unknown session id " + std::to_string(id));
  BIOSENS_EXPECT(!it->second->closing, ErrorCode::kSpec, kLayer,
                 "advance_time", "session is closing");
  it->second->sim_time_s += dt_s;
  return ok();
}

Expected<void> SimulationService::try_wait_idle(SessionId id) {
  obs::ObsSpan span(kLayer, "wait_idle");
  std::unique_lock<std::mutex> lock(mutex_);
  BIOSENS_EXPECT(sessions_.find(id) != sessions_.end(), ErrorCode::kSpec,
                 kLayer, "wait_idle",
                 "unknown session id " + std::to_string(id));
  idle_cv_.wait(lock, [this, id] {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return true;  // closed concurrently
    return it->second->queue.empty() && !it->second->in_flight;
  });
  return ok();
}

Expected<std::vector<MeasurementRecord>> SimulationService::try_stream(
    SessionId id) {
  obs::ObsSpan span(kLayer, "stream");
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  BIOSENS_EXPECT(it != sessions_.end(), ErrorCode::kSpec, kLayer, "stream",
                 "unknown session id " + std::to_string(id));
  return it->second->records;
}

Expected<SessionSummary> SimulationService::try_close_session(SessionId id) {
  obs::ObsSpan span(kLayer, "close_session");
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  BIOSENS_EXPECT(it != sessions_.end(), ErrorCode::kSpec, kLayer,
                 "close_session", "unknown session id " + std::to_string(id));
  BIOSENS_EXPECT(!it->second->closing, ErrorCode::kSpec, kLayer,
                 "close_session", "session is already closing");
  it->second->closing = true;
  idle_cv_.wait(lock, [this, id] {
    auto sit = sessions_.find(id);
    return sit == sessions_.end() ||
           (sit->second->queue.empty() && !sit->second->in_flight);
  });
  // Re-find: concurrent open_session inserts may have rehashed the map
  // while we waited.
  it = sessions_.find(id);
  BIOSENS_EXPECT(it != sessions_.end(), ErrorCode::kInternal, kLayer,
                 "close_session", "session vanished while closing");
  Session& session = *it->second;
  SessionSummary summary;
  summary.id = session.id;
  summary.tenant = session.tenant;
  summary.priority = session.priority;
  summary.completed = session.completed;
  summary.failed = session.failed;
  summary.stream = std::move(session.records);
  sessions_.erase(it);
  open_sessions_.fetch_sub(1, std::memory_order_relaxed);
  return summary;
}

Expected<SessionSnapshot> SimulationService::try_snapshot(SessionId id) {
  obs::ObsSpan span(kLayer, "snapshot");
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  BIOSENS_EXPECT(it != sessions_.end(), ErrorCode::kSpec, kLayer,
                 "snapshot", "unknown session id " + std::to_string(id));
  const Session& session = *it->second;
  BIOSENS_EXPECT(session.queue.empty() && !session.in_flight,
                 ErrorCode::kSpec, kLayer, "snapshot",
                 "session must be quiesced before snapshotting "
                 "(drain the service first)");
  SessionSnapshot snapshot;
  snapshot.tenant = session.tenant;
  snapshot.priority = session.priority;
  snapshot.seed = session.seed;
  snapshot.next_index = session.next_index;
  snapshot.sim_time_s = session.sim_time_s;
  snapshot.session_rng = session.session_rng.save_state();
  snapshot.state = session.state;
  snapshot.records = session.records;
  snapshot.completed = session.completed;
  snapshot.failed = session.failed;
  return snapshot;
}

void SimulationService::drain() {
  draining_.store(true, std::memory_order_relaxed);
  wait_all_idle();
  // The incident (if any) is over: re-anchor the health baseline and
  // close the metrics window on a fresh sample.
  reset_health_baseline();
  sampler_.sample_now();
}

void SimulationService::resume() {
  reset_health_baseline();
  draining_.store(false, std::memory_order_relaxed);
}

void SimulationService::reset_health_baseline() {
  rejected_baseline_.store(total_rejected(), std::memory_order_relaxed);
  submitted_baseline_.store(total_submitted(), std::memory_order_relaxed);
}

std::uint64_t SimulationService::total_rejected() const {
  std::uint64_t total = 0;
  for (const ClassSlo& slo : slo_) total += slo.rejected.value();
  return total;
}

std::uint64_t SimulationService::total_submitted() const {
  std::uint64_t total = 0;
  for (const ClassSlo& slo : slo_) total += slo.submitted.value();
  return total;
}

double SimulationService::effective_pending_capacity() const {
  const std::uint64_t open = open_sessions_.load(std::memory_order_relaxed);
  const std::uint64_t per_session =
      open * static_cast<std::uint64_t>(options_.max_pending_per_session);
  const std::uint64_t cap = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(options_.max_pending_total), per_session);
  return static_cast<double>(cap);
}

obs::IntrospectionReport SimulationService::introspection_report() {
  sampler_.sample_now();
  obs::IntrospectionReport report;
  report.component = "service";
  const ServiceStats now = stats();
  report.pending = now.pending;
  report.in_flight = now.in_flight;
  report.open_sessions = now.open_sessions;
  const double capacity = effective_pending_capacity();
  report.queue_utilization =
      capacity > 0.0 ? static_cast<double>(now.pending) / capacity : 0.0;

  obs::HealthInputs inputs;
  inputs.queue_utilization = report.queue_utilization;
  inputs.draining = draining();
  const std::uint64_t rejected = total_rejected();
  const std::uint64_t rejected_base =
      rejected_baseline_.load(std::memory_order_relaxed);
  inputs.rejected_since_baseline =
      rejected > rejected_base ? rejected - rejected_base : 0;
  const std::uint64_t submitted = total_submitted();
  const std::uint64_t submitted_base =
      submitted_baseline_.load(std::memory_order_relaxed);
  inputs.submitted_since_baseline =
      submitted > submitted_base ? submitted - submitted_base : 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  for (const ClassSlo& slo : slo_) {
    failed += slo.failed.value();
    completed += slo.completed.value();
  }
  inputs.failed = failed;
  inputs.finished = failed + completed;
  inputs.watchdog_overdue = watchdog_.overdue().size();
  inputs.watchdog_trips = watchdog_.trips();

  report.health = obs::evaluate_health(inputs);
  report.rates = sampler_.rates();
  report.watchdog_soft_deadline_s = watchdog_.soft_deadline_s();
  report.watchdog_overdue = inputs.watchdog_overdue;
  report.watchdog_trips = inputs.watchdog_trips;
  obs::fill_recorder_stats(report);
  return report;
}

void SimulationService::wait_all_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_relaxed) == 0;
  });
}

ServiceStats SimulationService::stats() const {
  ServiceStats stats;
  stats.open_sessions = open_sessions_.load(std::memory_order_relaxed);
  stats.pending = pending_.load(std::memory_order_relaxed);
  stats.in_flight = in_flight_.load(std::memory_order_relaxed);
  return stats;
}

double SimulationService::retry_after_hint(PriorityClass cls,
                                           std::uint64_t backlog) const {
  const ClassSlo& slo = slo_[idx(cls)];
  const std::uint64_t n = slo.exec.count();
  const double mean_exec_s =
      n > 0 ? slo.exec.total_seconds() / static_cast<double>(n)
            : kDefaultRetryAfterS;
  const double per_worker =
      static_cast<double>(backlog + 1) /
      static_cast<double>(options_.workers);
  return std::max(kDefaultRetryAfterS, mean_exec_s * per_worker);
}

void SimulationService::enqueue_runnable(Session& session) {
  auto tenant_it = tenants_.find(session.tenant);
  if (tenant_it == tenants_.end()) return;  // unreachable
  TenantState& tenant = tenant_it->second;
  const std::size_t cls = idx(session.priority);
  // Capacity equals max_sessions, and a session is listed at most once,
  // so these pushes cannot fail; the checks keep the invariant loud.
  if (!tenant.runnable[cls].try_push_back(session.id)) return;
  session.listed = true;
  if (!tenant.in_ring[cls]) {
    if (ring_[cls].try_push_back(session.tenant)) {
      tenant.in_ring[cls] = true;
    }
  }
}

SimulationService::Session* SimulationService::pick_next() {
  for (std::size_t cls = 0; cls < kPriorityClassCount; ++cls) {
    BoundedDeque<std::string>& ring = ring_[cls];
    std::size_t scan = ring.size();
    while (scan-- > 0) {
      std::string tenant_name = ring.pop_front();
      auto tenant_it = tenants_.find(tenant_name);
      if (tenant_it == tenants_.end()) continue;
      TenantState& tenant = tenant_it->second;
      if (tenant.runnable[cls].empty()) {
        tenant.in_ring[cls] = false;
        continue;
      }
      const SessionId id = tenant.runnable[cls].pop_front();
      if (!tenant.runnable[cls].empty()) {
        // Round-robin: the tenant goes to the back of the ring so its
        // next session waits its turn behind the other tenants.
        if (!ring.try_push_back(std::move(tenant_name))) {
          tenant.in_ring[cls] = false;
        }
      } else {
        tenant.in_ring[cls] = false;
      }
      auto session_it = sessions_.find(id);
      if (session_it == sessions_.end()) continue;
      Session* session = session_it->second.get();
      session->listed = false;
      if (session->in_flight || session->queue.empty()) continue;
      return session;
    }
  }
  return nullptr;
}

void SimulationService::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Session* session = pick_next();
    if (session != nullptr) {
      execute(lock, *session);
      continue;
    }
    // Nothing is runnable, as seen under the lock: any later submission
    // that makes a session runnable notifies work_cv_ after this wait
    // has released the lock, so no request can be stranded.
    if (stopping_) return;
    work_cv_.wait(lock);
  }
}

void SimulationService::execute(std::unique_lock<std::mutex>& lock,
                                Session& session) {
  const Request request = session.queue.pop_front();
  session.in_flight = true;
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  lock.unlock();

  obs::async_end(kLayer, "svc-queue", request.request_id,
                 request.submitted);
  ClassSlo& slo = slo_[idx(session.priority)];
  slo.queue_wait.record(seconds_since(request.submitted));

  Expected<double> result = 0.0;
  {
    // Everything recorded while the body runs — the measurement span
    // and every nested layer span — is attributed to this
    // tenant/session in the flight recorder; the watchdog flags bodies
    // that blow past the soft deadline (observation only).
    const obs::FlightRecorder::ScopedContext recorder_context(
        session.tenant, session.id);
    const obs::Watchdog::Scoped watchdog_guard(watchdog_, session.tenant);

    obs::Stopwatch exec_watch;
    {
      obs::ObsSpan span(kLayer, "measurement", session.tenant);
      SessionContext context{session.id,
                             request.index,
                             request.sim_time_s,
                             session.root.child(request.index),
                             session.session_rng,
                             session.state};
      // The sanctioned exception boundary, mirroring the batch runner:
      // session bodies may throw; everything is classified back into
      // the Expected taxonomy here (docs/errors.md).
      try {  // biosens-lint: allow(throw-discipline)
        result = span.watch(session.body(context));
      } catch (const std::exception& e) {  // biosens-lint: allow(throw-discipline)
        result = ErrorInfo::from_exception(e, kLayer, "session body");
        span.fail(result.error());
      } catch (...) {  // biosens-lint: allow(throw-discipline)
        result = make_error(ErrorCode::kInternal, kLayer, "session body",
                            "session body raised a non-standard exception");
        span.fail(result.error());
      }
    }
    slo.exec.record(exec_watch.elapsed_seconds());
    if (!result.has_value()) {
      obs::FlightRecorder::trigger_job_failure(session.tenant,
                                               result.error().describe());
    }
  }

  MeasurementRecord record;
  record.index = request.index;
  record.sim_time_s = request.sim_time_s;
  record.ok = result.has_value();
  record.value = result.has_value() ? result.value() : 0.0;

  lock.lock();
  if (!bounded_append(session.records, kMaxRecordsPerSession, record)) {
    // Unreachable: admission bounds next_index by the same cap.
  }
  auto tenant_it = tenants_.find(session.tenant);
  if (tenant_it != tenants_.end()) {
    TenantState& tenant = tenant_it->second;
    tenant.pending -= 1;
    TenantState::Outcomes& out = tenant.outcomes[idx(session.priority)];
    if (record.ok) {
      out.completed += 1;
    } else {
      out.failed += 1;
    }
  }
  if (record.ok) {
    session.completed += 1;
    slo.completed.increment();
  } else {
    session.failed += 1;
    slo.failed.increment();
  }
  if (!session.first_result_recorded) {
    session.first_result_recorded = true;
    slo.time_to_first_result.record(seconds_since(session.opened));
  }
  session.in_flight = false;
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  if (!session.queue.empty()) {
    enqueue_runnable(session);
  }
  const std::uint64_t pending =
      pending_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (pending == 0 || session.queue.empty()) idle_cv_.notify_all();
  // Passive time-series feed: between periods this is two relaxed
  // loads (obs/sampler.hpp), so it can sit on the completion path.
  sampler_.maybe_sample();
}

std::string SimulationService::prometheus_text(
    const obs::RecorderDump* trace) const {
  obs::PrometheusWriter writer;
  obs::append_build_info(writer);
  static constexpr std::string_view kOutcomes[] = {"submitted", "completed",
                                                   "failed", "rejected"};
  for (std::size_t cls = 0; cls < kPriorityClassCount; ++cls) {
    const ClassSlo& slo = slo_[cls];
    const std::string class_label =
        "class=\"" +
        std::string(to_string(static_cast<PriorityClass>(cls))) + "\"";
    const std::uint64_t by_outcome[] = {
        slo.submitted.value(), slo.completed.value(), slo.failed.value(),
        slo.rejected.value()};
    for (std::size_t o = 0; o < 4; ++o) {
      writer.counter("biosens_service_requests_total",
                     "Service measurement requests by class and outcome",
                     by_outcome[o],
                     class_label + ",outcome=\"" +
                         std::string(kOutcomes[o]) + "\"");
    }
    writer.histogram("biosens_service_queue_wait_seconds",
                     "Submit-to-execution wait by class", slo.queue_wait,
                     class_label);
    writer.histogram("biosens_service_exec_seconds",
                     "Measurement body execution time by class", slo.exec,
                     class_label);
    writer.histogram("biosens_service_ttfr_seconds",
                     "Session open to first recorded result by class",
                     slo.time_to_first_result, class_label);
  }

  const ServiceStats now = stats();
  writer.gauge("biosens_service_sessions_open", "Open sessions",
               static_cast<double>(now.open_sessions));
  writer.gauge("biosens_service_pending",
               "Measurements queued or executing",
               static_cast<double>(now.pending));
  writer.gauge("biosens_service_in_flight",
               "Measurements executing on a worker",
               static_cast<double>(now.in_flight));

  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [tenant_name, tenant] : tenants_) {
    for (std::size_t cls = 0; cls < kPriorityClassCount; ++cls) {
      const TenantState::Outcomes& out = tenant.outcomes[cls];
      if (out.submitted == 0 && out.rejected == 0) continue;
      const std::uint64_t by_outcome[] = {out.submitted, out.completed,
                                          out.failed, out.rejected};
      const std::string base =
          "tenant=\"" + tenant_name + "\",class=\"" +
          std::string(to_string(static_cast<PriorityClass>(cls))) + "\"";
      for (std::size_t o = 0; o < 4; ++o) {
        writer.counter("biosens_service_tenant_requests_total",
                       "Per-tenant measurement requests by class and "
                       "outcome",
                       by_outcome[o],
                       base + ",outcome=\"" + std::string(kOutcomes[o]) +
                           "\"");
      }
    }
  }

  if (trace != nullptr) obs::append_layer_metrics(writer, *trace);
  return writer.text();
}

}  // namespace biosens::service
