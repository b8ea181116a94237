#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "engine/thread_pool.hpp"
#include "obs/export_prometheus.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "service/bounded.hpp"

namespace biosens::service {
namespace {

constexpr Layer kLayer = Layer::kService;

/// Child index of the session-sequential stream. Measurement children
/// use indices [0, max_records_per_session); this one can never collide.
constexpr std::uint64_t kSessionStreamChild = ~0ULL;

/// Session ids reserve their low byte for the shard index.
constexpr std::uint64_t kShardBits = 8;
constexpr std::uint64_t kShardMask = (1ULL << kShardBits) - 1;

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

/// Per-tenant scheduling + accounting state, owned by one shard.
struct SimulationService::TenantState {
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

struct SimulationService::Shard {
  explicit Shard(std::size_t tenant_capacity)
      : ring{BoundedDeque<std::string>(tenant_capacity),
             BoundedDeque<std::string>(tenant_capacity)} {}

  mutable std::mutex mutex;
  std::condition_variable idle_cv;
  std::unordered_map<SessionId, std::unique_ptr<Session>> sessions;
  std::unordered_map<std::string, TenantState> tenants;
  /// Round-robin ring of tenants with runnable work, per class.
  std::array<BoundedDeque<std::string>, kPriorityClassCount> ring;
  std::uint64_t pending = 0;  ///< queued + executing across the shard
};

SimulationService::SimulationService(ServiceOptions options)
    : options_(options),
      watchdog_(obs::WatchdogOptions{options.watchdog_soft_deadline_s,
                                     4096}),
      sampler_(
          [this] {
            obs::MetricsSample sample;
            for (const ClassSlo& slo : slo_) {
              sample.submitted += slo.submitted.value();
              sample.completed += slo.completed.value();
              sample.failed += slo.failed.value();
              sample.rejected += slo.rejected.value();
            }
            sample.queued = pending_total_.load(std::memory_order_relaxed);
            sample.queue_p99_s =
                slo_[idx(PriorityClass::kInteractive)].queue_wait.quantile(
                    0.99);
            return sample;
          },
          obs::MetricsSamplerOptions{options.sampler_window,
                                     options.sampler_min_period_s}) {
  options_.workers = std::max<std::size_t>(1, options_.workers);
  options_.shards = std::clamp<std::size_t>(options_.shards, 1, 64);
  options_.max_sessions = std::max<std::size_t>(1, options_.max_sessions);
  options_.max_pending_per_session =
      std::max<std::size_t>(1, options_.max_pending_per_session);
  if (options_.pool_queue_capacity == 0) {
    options_.pool_queue_capacity = 2 * options_.workers;
  }
  shards_.resize(options_.shards);
  for (auto& shard : shards_) {
    shard = std::make_unique<Shard>(options_.max_sessions);
  }
  // Keep at most workers + queue slots handed to the pool: enough to
  // saturate every worker, shallow enough that priority decisions stay
  // in the service's fair scheduler instead of a deep FIFO.
  dispatch_limit_ = options_.workers + options_.pool_queue_capacity;
  pool_ = std::make_unique<engine::ThreadPool>(options_.workers,
                                               options_.pool_queue_capacity);
}

SimulationService::~SimulationService() {
  draining_.store(true, std::memory_order_relaxed);
  wait_all_idle();
  pool_->shutdown();
}

Expected<SimulationService::Shard*> SimulationService::try_shard_of(
    SessionId id, const char* stage) const {
  const std::size_t shard_index = static_cast<std::size_t>(id & kShardMask);
  BIOSENS_EXPECT(id != 0 && shard_index < shards_.size(), ErrorCode::kSpec,
                 kLayer, stage,
                 "unknown session id " + std::to_string(id));
  return shards_[shard_index].get();
}

Expected<SessionId> SimulationService::insert_session(
    std::unique_ptr<Session> session, const char* stage) {
  const std::string tenant = session->tenant;
  const SessionId id = session->id;
  Shard& shard = *shards_[static_cast<std::size_t>(id & kShardMask)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const std::uint64_t open =
        open_sessions_.load(std::memory_order_relaxed);
    if (open >= options_.max_sessions) {
      return overloaded<SessionId>(
          stage,
          "session table full (" + std::to_string(open) + " of " +
              std::to_string(options_.max_sessions) + " open)",
          tenant, options_.default_retry_after_s);
    }
    const auto tenant_slot =
        shard.tenants.try_emplace(tenant, options_.max_sessions);
    (void)tenant_slot;  // existing tenant entries are reused as-is
    shard.sessions.emplace(id, std::move(session));
  }
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
  const std::uint64_t seq =
      next_session_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t shard_index =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  const SessionId id = (seq << kShardBits) |
                       static_cast<std::uint64_t>(shard_index);
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
  const std::uint64_t seq =
      next_session_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t shard_index =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  const SessionId id = (seq << kShardBits) |
                       static_cast<std::uint64_t>(shard_index);

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
  auto shard_ptr = try_shard_of(id, "submit_measurement");
  if (!shard_ptr.has_value()) return shard_ptr.error();
  Shard& shard = *shard_ptr.value();

  std::uint64_t measurement_index = 0;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    auto it = shard.sessions.find(id);
    BIOSENS_EXPECT(it != shard.sessions.end(), ErrorCode::kSpec, kLayer,
                   "submit_measurement",
                   "unknown session id " + std::to_string(id));
    Session& session = *it->second;
    BIOSENS_EXPECT(!session.closing, ErrorCode::kSpec, kLayer,
                   "submit_measurement", "session is closing");
    BIOSENS_EXPECT(session.next_index < options_.max_records_per_session,
                   ErrorCode::kSpec, kLayer, "submit_measurement",
                   "session reached its lifetime measurement cap");

    auto tenant_it = shard.tenants.find(session.tenant);
    BIOSENS_EXPECT(tenant_it != shard.tenants.end(), ErrorCode::kInternal,
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
    const std::uint64_t total =
        pending_total_.load(std::memory_order_relaxed);
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
    shard.pending += 1;
    slo_[cls].submitted.increment();
    if (!session.in_flight && !session.listed) {
      enqueue_runnable(shard, session);
    }
    measurement_index = request.index;
  }
  pending_total_.fetch_add(1, std::memory_order_relaxed);
  pump();
  // The measurement index doubles as the deterministic stream position.
  return measurement_index;
}

Expected<void> SimulationService::try_advance_time(SessionId id,
                                                   double dt_s) {
  obs::ObsSpan span(kLayer, "advance_time");
  BIOSENS_EXPECT(dt_s >= 0.0, ErrorCode::kSpec, kLayer, "advance_time",
                 "time must not run backwards (dt " + std::to_string(dt_s) +
                     ")");
  auto shard_ptr = try_shard_of(id, "advance_time");
  if (!shard_ptr.has_value()) return shard_ptr.error();
  Shard& shard = *shard_ptr.value();
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.sessions.find(id);
  BIOSENS_EXPECT(it != shard.sessions.end(), ErrorCode::kSpec, kLayer,
                 "advance_time", "unknown session id " + std::to_string(id));
  BIOSENS_EXPECT(!it->second->closing, ErrorCode::kSpec, kLayer,
                 "advance_time", "session is closing");
  it->second->sim_time_s += dt_s;
  return ok();
}

Expected<void> SimulationService::try_wait_idle(SessionId id) {
  obs::ObsSpan span(kLayer, "wait_idle");
  auto shard_ptr = try_shard_of(id, "wait_idle");
  if (!shard_ptr.has_value()) return shard_ptr.error();
  Shard& shard = *shard_ptr.value();
  std::unique_lock<std::mutex> lock(shard.mutex);
  BIOSENS_EXPECT(shard.sessions.find(id) != shard.sessions.end(),
                 ErrorCode::kSpec, kLayer, "wait_idle",
                 "unknown session id " + std::to_string(id));
  shard.idle_cv.wait(lock, [&shard, id] {
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) return true;  // closed concurrently
    return it->second->queue.empty() && !it->second->in_flight;
  });
  return ok();
}

Expected<std::vector<MeasurementRecord>> SimulationService::try_stream(
    SessionId id) {
  obs::ObsSpan span(kLayer, "stream");
  auto shard_ptr = try_shard_of(id, "stream");
  if (!shard_ptr.has_value()) return shard_ptr.error();
  Shard& shard = *shard_ptr.value();
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.sessions.find(id);
  BIOSENS_EXPECT(it != shard.sessions.end(), ErrorCode::kSpec, kLayer,
                 "stream", "unknown session id " + std::to_string(id));
  return it->second->records;
}

Expected<SessionSummary> SimulationService::try_close_session(SessionId id) {
  obs::ObsSpan span(kLayer, "close_session");
  auto shard_ptr = try_shard_of(id, "close_session");
  if (!shard_ptr.has_value()) return shard_ptr.error();
  Shard& shard = *shard_ptr.value();
  std::unique_lock<std::mutex> lock(shard.mutex);
  auto it = shard.sessions.find(id);
  BIOSENS_EXPECT(it != shard.sessions.end(), ErrorCode::kSpec, kLayer,
                 "close_session", "unknown session id " + std::to_string(id));
  BIOSENS_EXPECT(!it->second->closing, ErrorCode::kSpec, kLayer,
                 "close_session", "session is already closing");
  it->second->closing = true;
  shard.idle_cv.wait(lock, [&shard, id] {
    auto sit = shard.sessions.find(id);
    return sit == shard.sessions.end() ||
           (sit->second->queue.empty() && !sit->second->in_flight);
  });
  // Re-find: concurrent open_session inserts may have rehashed the map
  // while we waited.
  it = shard.sessions.find(id);
  BIOSENS_EXPECT(it != shard.sessions.end(), ErrorCode::kInternal, kLayer,
                 "close_session", "session vanished while closing");
  Session& session = *it->second;
  SessionSummary summary;
  summary.id = session.id;
  summary.tenant = session.tenant;
  summary.priority = session.priority;
  summary.completed = session.completed;
  summary.failed = session.failed;
  summary.stream = std::move(session.records);
  shard.sessions.erase(it);
  open_sessions_.fetch_sub(1, std::memory_order_relaxed);
  return summary;
}

Expected<SessionSnapshot> SimulationService::try_snapshot(SessionId id) {
  obs::ObsSpan span(kLayer, "snapshot");
  auto shard_ptr = try_shard_of(id, "snapshot");
  if (!shard_ptr.has_value()) return shard_ptr.error();
  Shard& shard = *shard_ptr.value();
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.sessions.find(id);
  BIOSENS_EXPECT(it != shard.sessions.end(), ErrorCode::kSpec, kLayer,
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
  pool_->drain();
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

  report.health = obs::evaluate_health(inputs, options_.health);
  report.rates = sampler_.rates();
  report.watchdog_soft_deadline_s = watchdog_.soft_deadline_s();
  report.watchdog_overdue = inputs.watchdog_overdue;
  report.watchdog_trips = inputs.watchdog_trips;
  obs::fill_recorder_stats(report);
  return report;
}

void SimulationService::wait_all_idle() {
  for (const auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mutex);
    shard->idle_cv.wait(lock, [&shard] { return shard->pending == 0; });
  }
}

ServiceStats SimulationService::stats() const {
  ServiceStats stats;
  stats.open_sessions = open_sessions_.load(std::memory_order_relaxed);
  stats.pending = pending_total_.load(std::memory_order_relaxed);
  stats.in_flight = in_flight_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t SimulationService::worker_count() const {
  return pool_->worker_count();
}

double SimulationService::retry_after_hint(PriorityClass cls,
                                           std::uint64_t backlog) const {
  const ClassSlo& slo = slo_[idx(cls)];
  const std::uint64_t n = slo.exec.count();
  const double mean_exec_s =
      n > 0 ? slo.exec.total_seconds() / static_cast<double>(n)
            : options_.default_retry_after_s;
  const double per_worker =
      static_cast<double>(backlog + 1) /
      static_cast<double>(options_.workers);
  return std::max(options_.default_retry_after_s, mean_exec_s * per_worker);
}

void SimulationService::enqueue_runnable(Shard& shard, Session& session) {
  auto tenant_it = shard.tenants.find(session.tenant);
  if (tenant_it == shard.tenants.end()) return;  // unreachable
  TenantState& tenant = tenant_it->second;
  const std::size_t cls = idx(session.priority);
  // Capacity equals max_sessions, and a session is listed at most once,
  // so these pushes cannot fail; the checks keep the invariant loud.
  if (!tenant.runnable[cls].try_push_back(session.id)) return;
  session.listed = true;
  if (!tenant.in_ring[cls]) {
    if (shard.ring[cls].try_push_back(session.tenant)) {
      tenant.in_ring[cls] = true;
    }
  }
}

SimulationService::Session* SimulationService::pick_next(Shard& shard) {
  for (std::size_t cls = 0; cls < kPriorityClassCount; ++cls) {
    BoundedDeque<std::string>& ring = shard.ring[cls];
    std::size_t scan = ring.size();
    while (scan-- > 0) {
      std::string tenant_name = ring.pop_front();
      auto tenant_it = shard.tenants.find(tenant_name);
      if (tenant_it == shard.tenants.end()) continue;
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
      auto session_it = shard.sessions.find(id);
      if (session_it == shard.sessions.end()) continue;
      Session* session = session_it->second.get();
      session->listed = false;
      if (session->in_flight || session->queue.empty()) continue;
      return session;
    }
  }
  return nullptr;
}

bool SimulationService::dispatch_one(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mutex);
  Session* session = pick_next(shard);
  if (session == nullptr) return false;
  const Request request = session->queue.pop_front();
  session->in_flight = true;
  lock.unlock();

  in_flight_.fetch_add(1, std::memory_order_relaxed);
  const engine::TaskPriority lane =
      session->priority == PriorityClass::kInteractive
          ? engine::TaskPriority::kHigh
          : engine::TaskPriority::kNormal;
  const bool submitted = pool_->try_submit(
      [this, &shard, session, request] { execute(shard, session, request); },
      lane);
  if (!submitted) {
    // Pool saturated: undo, re-queue at the exact position the request
    // came from (stream order is the determinism contract), stop pumping.
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    lock.lock();
    session->in_flight = false;
    if (!session->queue.try_push_front(request)) {
      // Unreachable: the slot we popped is still free.
    }
    if (!session->listed) enqueue_runnable(shard, *session);
    return false;
  }
  return true;
}

void SimulationService::pump() {
  const std::size_t shard_count = shards_.size();
  for (;;) {
    if (in_flight_.load(std::memory_order_relaxed) >= dispatch_limit_) {
      return;
    }
    bool dispatched = false;
    const std::size_t start =
        next_shard_.fetch_add(1, std::memory_order_relaxed) % shard_count;
    for (std::size_t k = 0; k < shard_count; ++k) {
      if (in_flight_.load(std::memory_order_relaxed) >= dispatch_limit_) {
        return;
      }
      if (dispatch_one(*shards_[(start + k) % shard_count])) {
        dispatched = true;
      }
    }
    if (!dispatched) return;
  }
}

void SimulationService::execute(Shard& shard, Session* session,
                                const Request& request) {
  obs::async_end(kLayer, "svc-queue", request.request_id,
                 request.submitted);
  ClassSlo& slo = slo_[idx(session->priority)];
  slo.queue_wait.record(seconds_since(request.submitted));

  // Everything recorded while the body runs — the measurement span and
  // every nested layer span — is attributed to this tenant/session in
  // the flight recorder; the watchdog flags bodies that blow past the
  // soft deadline (observation only).
  const obs::FlightRecorder::ScopedContext recorder_context(
      session->tenant, session->id);
  const obs::Watchdog::Scoped watchdog_guard(watchdog_, session->tenant);

  obs::Stopwatch exec_watch;
  Expected<double> result = 0.0;
  {
    obs::ObsSpan span(kLayer, "measurement", session->tenant);
    SessionContext context{session->id,
                           request.index,
                           request.sim_time_s,
                           session->root.child(request.index),
                           session->session_rng,
                           session->state};
    // The sanctioned exception boundary, mirroring the batch runner:
    // session bodies may throw; everything is classified back into the
    // Expected taxonomy here (docs/errors.md).
    try {  // biosens-lint: allow(throw-discipline)
      result = span.watch(session->body(context));
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
    obs::FlightRecorder::trigger_job_failure(session->tenant,
                                             result.error().describe());
  }

  MeasurementRecord record;
  record.index = request.index;
  record.sim_time_s = request.sim_time_s;
  record.ok = result.has_value();
  record.value = result.has_value() ? result.value() : 0.0;

  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (!bounded_append(session->records, options_.max_records_per_session,
                        record)) {
      // Unreachable: admission bounds next_index by the same cap.
    }
    auto tenant_it = shard.tenants.find(session->tenant);
    if (tenant_it != shard.tenants.end()) {
      TenantState& tenant = tenant_it->second;
      tenant.pending -= 1;
      TenantState::Outcomes& out = tenant.outcomes[idx(session->priority)];
      if (record.ok) {
        out.completed += 1;
      } else {
        out.failed += 1;
      }
    }
    if (record.ok) {
      session->completed += 1;
      slo.completed.increment();
    } else {
      session->failed += 1;
      slo.failed.increment();
    }
    if (!session->first_result_recorded) {
      session->first_result_recorded = true;
      slo.time_to_first_result.record(seconds_since(session->opened));
    }
    session->in_flight = false;
    if (!session->queue.empty() && !session->listed) {
      enqueue_runnable(shard, *session);
    }
    shard.pending -= 1;
    if (shard.pending == 0 ||
        (session->queue.empty() && !session->in_flight)) {
      shard.idle_cv.notify_all();
    }
  }
  pending_total_.fetch_sub(1, std::memory_order_relaxed);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  // Passive time-series feed: between periods this is two relaxed
  // loads (obs/sampler.hpp), so it can sit on the completion path.
  sampler_.maybe_sample();
  pump();
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
               "Measurements handed to the worker pool",
               static_cast<double>(now.in_flight));

  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [tenant_name, tenant] : shard->tenants) {
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
  }

  if (trace != nullptr) obs::append_layer_metrics(writer, *trace);
  return writer.text();
}

}  // namespace biosens::service
