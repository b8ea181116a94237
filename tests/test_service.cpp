// SimulationService: the service-grade contracts of docs/service.md.
//
// The two CTest-enforced acceptance properties of the service layer:
//
//  1. Determinism across interruption and concurrency: a session that
//     is drained, snapshotted to text, closed, and restored must
//     produce a final snapshot *byte-identical* to a session that ran
//     uninterrupted — at 1 worker and at 8 workers.
//
//  2. Saturation safety: when queues fill, submissions come back as
//     structured ErrorCode::kOverloaded results carrying the tenant and
//     a positive retry-after hint — and the service keeps serving;
//     nothing aborts, nothing is lost.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/recorder.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace biosens::service {
namespace {

/// Deterministic measurement body exercising every stream a snapshot
/// must capture: persistent state, the session-sequential RNG, the
/// per-measurement child RNG, and the session clock. Readings that
/// drift too far QC-reject (a structured failure, also deterministic).
SessionBody tracked_body() {
  return [](SessionContext& c) -> Expected<double> {
    double& drift = c.state[0];
    drift += 0.1 * c.session_rng.normal();
    const double value =
        drift + 0.01 * c.sim_time_s + c.rng.normal(0.0, 0.2);
    if (value > 1.5 || value < -1.5) {
      return make_error(ErrorCode::kQcReject, Layer::kService, "qc",
                        "reading drifted outside the linear range");
    }
    return value;
  };
}

struct StreamSpec {
  const char* tenant;
  PriorityClass priority;
  std::uint64_t seed;
};

constexpr StreamSpec kStreams[] = {
    {"clinic-a", PriorityClass::kInteractive, 11},
    {"clinic-a", PriorityClass::kBulk, 12},
    {"lab-b", PriorityClass::kBulk, 13},
    {"ward-c", PriorityClass::kInteractive, 14},
};
constexpr std::size_t kStreamCount = sizeof(kStreams) / sizeof(kStreams[0]);

/// Runs the same two-phase submission schedule, optionally interrupting
/// between the phases with the full drain -> snapshot -> close ->
/// restore cycle (round-tripping every snapshot through its text
/// encoding). Returns the final snapshot text of every session.
std::vector<std::string> run_streams(std::size_t workers,
                                     bool interrupted) {
  ServiceOptions options;
  options.workers = workers;
  SimulationService svc(options);

  std::vector<SessionId> ids(kStreamCount);
  for (std::size_t i = 0; i < kStreamCount; ++i) {
    SessionOptions session;
    session.tenant = kStreams[i].tenant;
    session.priority = kStreams[i].priority;
    session.seed = kStreams[i].seed;
    session.body = tracked_body();
    session.initial_state = {0.0};
    auto opened = svc.try_open_session(std::move(session));
    EXPECT_TRUE(opened.has_value());
    ids[i] = opened.value();
  }

  for (std::size_t phase = 0; phase < 2; ++phase) {
    for (std::size_t i = 0; i < kStreamCount; ++i) {
      for (std::size_t s = 0; s < 16; ++s) {
        auto submitted = svc.try_submit_measurement(ids[i]);
        EXPECT_TRUE(submitted.has_value());
        if (s % 5 == 4) {
          EXPECT_TRUE(svc.try_advance_time(ids[i], 60.0).has_value());
        }
      }
    }
    svc.drain();
    if (interrupted && phase == 0) {
      for (std::size_t i = 0; i < kStreamCount; ++i) {
        auto snapshot = svc.try_snapshot(ids[i]);
        EXPECT_TRUE(snapshot.has_value());
        const std::string encoded = snapshot.value().encode();
        EXPECT_TRUE(svc.try_close_session(ids[i]).has_value());
        auto decoded = SessionSnapshot::try_decode(encoded);
        EXPECT_TRUE(decoded.has_value());
        svc.resume();
        auto restored =
            svc.try_restore(tracked_body(), decoded.value());
        EXPECT_TRUE(restored.has_value());
        ids[i] = restored.value();
      }
    }
    svc.resume();
  }

  svc.drain();
  std::vector<std::string> snapshots;
  for (std::size_t i = 0; i < kStreamCount; ++i) {
    auto snapshot = svc.try_snapshot(ids[i]);
    EXPECT_TRUE(snapshot.has_value());
    snapshots.push_back(snapshot.value().encode());
  }
  return snapshots;
}

TEST(ServiceDeterminism, RestoredSessionByteIdenticalAtOneWorker) {
  EXPECT_EQ(run_streams(1, false), run_streams(1, true));
}

TEST(ServiceDeterminism, RestoredSessionByteIdenticalAtEightWorkers) {
  EXPECT_EQ(run_streams(8, false), run_streams(8, true));
}

TEST(ServiceDeterminism, StreamsIndependentOfWorkerCount) {
  const auto reference = run_streams(1, false);
  EXPECT_EQ(reference, run_streams(8, false));
  EXPECT_EQ(reference, run_streams(8, true));
}

TEST(ServiceDeterminism, SnapshotRoundTripsThroughText) {
  SessionSnapshot snapshot;
  snapshot.tenant = "clinic-a";
  snapshot.priority = PriorityClass::kBulk;
  snapshot.seed = 42;
  snapshot.next_index = 2;
  snapshot.sim_time_s = 1.5e-3;
  snapshot.session_rng = Rng(42).save_state();
  snapshot.state = {0.25, -1e-9};
  snapshot.records = {{0, 0.0, 5.125, true}, {1, 1.5e-3, 0.0, false}};
  snapshot.completed = 1;
  snapshot.failed = 1;

  const std::string encoded = snapshot.encode();
  auto decoded = SessionSnapshot::try_decode(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded.value().encode(), encoded);
  EXPECT_EQ(decoded.value().records, snapshot.records);
  EXPECT_EQ(decoded.value().session_rng.words, snapshot.session_rng.words);
}

TEST(ServiceDeterminism, CorruptSnapshotsFailStructurally) {
  SessionSnapshot snapshot;
  snapshot.tenant = "t";
  snapshot.seed = 7;
  snapshot.session_rng = Rng(7).save_state();
  const std::string encoded = snapshot.encode();

  // Truncation: cut mid-stream.
  auto truncated =
      SessionSnapshot::try_decode(encoded.substr(0, encoded.size() / 2));
  ASSERT_FALSE(truncated.has_value());
  EXPECT_EQ(truncated.error().code, ErrorCode::kSpec);

  // Reordering / renaming: break the first key.
  std::string tampered = encoded;
  tampered.replace(0, 6, "fXrmat");
  auto renamed = SessionSnapshot::try_decode(tampered);
  ASSERT_FALSE(renamed.has_value());
  EXPECT_EQ(renamed.error().code, ErrorCode::kSpec);

  // Trailing garbage is rejected too.
  auto trailing = SessionSnapshot::try_decode(encoded + "extra 1\n");
  ASSERT_FALSE(trailing.has_value());
  EXPECT_EQ(trailing.error().code, ErrorCode::kSpec);

  // A one-record stream, then two corruptions of it that would restore
  // quietly if the decoder wrapped decimals or accepted sparse indices.
  SessionSnapshot one = snapshot;
  one.next_index = 1;
  one.completed = 1;
  one.records = {MeasurementRecord{0, 0.0, 1.0, true}};
  const std::string dense = one.encode();
  ASSERT_TRUE(SessionSnapshot::try_decode(dense).has_value());

  // 2^64 + 1 must not wrap to the 1 the record count wants.
  std::string overflowed = dense;
  const std::size_t at = overflowed.find("completed 1\n");
  ASSERT_NE(at, std::string::npos);
  overflowed.replace(at, 12, "completed 18446744073709551617\n");
  auto wrapped = SessionSnapshot::try_decode(overflowed);
  ASSERT_FALSE(wrapped.has_value());
  EXPECT_EQ(wrapped.error().code, ErrorCode::kSpec);

  // The service writes record i with index i; anything else is corrupt.
  SessionSnapshot sparse = one;
  sparse.records[0].index = 5;
  auto gap = SessionSnapshot::try_decode(sparse.encode());
  ASSERT_FALSE(gap.has_value());
  EXPECT_EQ(gap.error().code, ErrorCode::kSpec);
}

TEST(ServiceDeterminism, RngStateRoundTripIncludesNormalCache) {
  Rng original(2012);
  (void)original.normal();  // leave a cached Box-Muller half-pair
  Rng copy = Rng::from_state(original.save_state());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(original.next_u64(), copy.next_u64());
    EXPECT_EQ(original.normal(), copy.normal());
  }
}

TEST(ServiceSaturation, OverloadCarriesTenantAndRetryAfter) {
  ServiceOptions options;
  options.workers = 1;
  options.max_pending_per_session = 2;
  SimulationService svc(options);

  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();

  SessionOptions session;
  session.tenant = "clinic-x";
  session.body = [release](SessionContext&) -> Expected<double> {
    release.wait();
    return 1.0;
  };
  session.initial_state = {0.0};
  auto id = svc.try_open_session(std::move(session));
  ASSERT_TRUE(id.has_value());

  // With a single gated worker, everything after the in-flight
  // measurement queues; the bounded session queue must eventually
  // reject — as a structured result, not an abort.
  std::size_t accepted = 0;
  ErrorInfo rejection;
  for (std::size_t i = 0; i < 64; ++i) {
    auto submitted = svc.try_submit_measurement(id.value());
    if (submitted.has_value()) {
      ++accepted;
      continue;
    }
    rejection = submitted.error();
    break;
  }
  ASSERT_LT(accepted, 64u) << "bounded queues must reject eventually";

  EXPECT_EQ(rejection.code, ErrorCode::kOverloaded);
  EXPECT_TRUE(rejection.retryable());
  EXPECT_EQ(rejection.layer, Layer::kService);
  EXPECT_GT(rejection.retry_after_s, 0.0);
  EXPECT_NE(rejection.describe().find("tenant=clinic-x"), std::string::npos)
      << rejection.describe();

  // The service keeps serving: release the gate, drain, submit again.
  gate.set_value();
  ASSERT_TRUE(svc.try_wait_idle(id.value()).has_value());
  EXPECT_TRUE(svc.try_submit_measurement(id.value()).has_value());
  auto summary = svc.try_close_session(id.value());
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary.value().completed, accepted + 1);
  EXPECT_EQ(summary.value().stream.size(), accepted + 1);
  EXPECT_GT(svc.slo(PriorityClass::kInteractive).rejected.value(), 0u);
}

TEST(ServiceSaturation, TenantBudgetIsIndependentPerTenant) {
  ServiceOptions options;
  options.workers = 1;
  options.max_pending_per_session = 64;
  options.max_pending_per_tenant = 2;
  SimulationService svc(options);

  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  const auto gated_body = [release](SessionContext&) -> Expected<double> {
    release.wait();
    return 1.0;
  };

  SessionOptions a;
  a.tenant = "tenant-a";
  a.body = gated_body;
  a.initial_state = {0.0};
  SessionOptions b = a;
  b.tenant = "tenant-b";
  auto id_a = svc.try_open_session(std::move(a));
  auto id_b = svc.try_open_session(std::move(b));
  ASSERT_TRUE(id_a.has_value());
  ASSERT_TRUE(id_b.has_value());

  // Saturate tenant-a's budget...
  std::size_t accepted_a = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    if (svc.try_submit_measurement(id_a.value()).has_value()) ++accepted_a;
  }
  EXPECT_LT(accepted_a, 8u);
  // ...tenant-b must still be admitted (fair isolation).
  EXPECT_TRUE(svc.try_submit_measurement(id_b.value()).has_value());

  gate.set_value();
  svc.drain();
  EXPECT_TRUE(svc.try_close_session(id_a.value()).has_value());
  EXPECT_TRUE(svc.try_close_session(id_b.value()).has_value());
}

TEST(ServicePriority, InteractiveOvertakesQueuedBulk) {
  ServiceOptions options;
  options.workers = 1;
  SimulationService svc(options);

  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto record = [&order_mutex, &order](const char* tag) {
    const std::lock_guard<std::mutex> lock(order_mutex);
    order.emplace_back(tag);
  };

  SessionOptions pin;
  pin.tenant = "pin";
  pin.priority = PriorityClass::kBulk;
  pin.body = [release](SessionContext&) -> Expected<double> {
    release.wait();
    return 0.0;
  };
  pin.initial_state = {0.0};
  SessionOptions bulk;
  bulk.tenant = "lab";
  bulk.priority = PriorityClass::kBulk;
  bulk.body = [&record](SessionContext&) -> Expected<double> {
    record("bulk");
    return 0.0;
  };
  bulk.initial_state = {0.0};
  SessionOptions poc;
  poc.tenant = "clinic";
  poc.priority = PriorityClass::kInteractive;
  poc.body = [&record](SessionContext&) -> Expected<double> {
    record("interactive");
    return 0.0;
  };
  poc.initial_state = {0.0};

  auto pin_id = svc.try_open_session(std::move(pin));
  auto bulk_id = svc.try_open_session(std::move(bulk));
  auto poc_id = svc.try_open_session(std::move(poc));
  ASSERT_TRUE(pin_id.has_value());
  ASSERT_TRUE(bulk_id.has_value());
  ASSERT_TRUE(poc_id.has_value());

  // Pin the single worker, queue bulk work, then one interactive
  // measurement; when the pin lifts, the interactive one must run
  // before the earlier-submitted bulk backlog.
  ASSERT_TRUE(svc.try_submit_measurement(pin_id.value()).has_value());
  ASSERT_TRUE(svc.try_submit_measurement(bulk_id.value()).has_value());
  ASSERT_TRUE(svc.try_submit_measurement(bulk_id.value()).has_value());
  ASSERT_TRUE(svc.try_submit_measurement(poc_id.value()).has_value());
  gate.set_value();
  svc.drain();

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.front(), "interactive")
      << "interactive work must overtake queued bulk work";
}

TEST(ServicePriority, TenantsTakeTurnsWithinAClass) {
  ServiceOptions options;
  options.workers = 1;
  SimulationService svc(options);

  std::promise<void> started;
  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto tagged_body = [&order_mutex, &order](std::string tag) {
    return [&order_mutex, &order, tag](SessionContext&) -> Expected<double> {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
      return 0.0;
    };
  };

  SessionOptions pin;
  pin.tenant = "pin";
  pin.body = [&started, release](SessionContext&) -> Expected<double> {
    started.set_value();
    release.wait();
    return 0.0;
  };
  pin.initial_state = {0.0};
  auto pin_id = svc.try_open_session(std::move(pin));
  ASSERT_TRUE(pin_id.has_value());

  std::vector<SessionId> ids;
  for (const char* tag : {"a0", "a1", "a2", "b0"}) {
    SessionOptions session;
    session.tenant = tag[0] == 'a' ? "tenant-a" : "tenant-b";
    session.body = tagged_body(tag);
    session.initial_state = {0.0};
    auto id = svc.try_open_session(std::move(session));
    ASSERT_TRUE(id.has_value());
    ids.push_back(id.value());
  }

  // Hold the single worker, then queue tenant-a's three sessions ahead
  // of tenant-b's one: once the worker frees, the tenants alternate.
  ASSERT_TRUE(svc.try_submit_measurement(pin_id.value()).has_value());
  started.get_future().wait();
  for (const SessionId id : ids) {
    ASSERT_TRUE(svc.try_submit_measurement(id).has_value());
  }
  gate.set_value();
  svc.drain();

  EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "a1", "a2"}))
      << "tenant-b must not wait behind tenant-a's whole backlog";
}

TEST(ServiceLifecycle, SpecErrorsForBadHandlesAndArguments) {
  SimulationService svc(ServiceOptions{.workers = 1});
  EXPECT_EQ(svc.try_submit_measurement(0).error().code, ErrorCode::kSpec);
  EXPECT_EQ(svc.try_submit_measurement(991).error().code, ErrorCode::kSpec);
  EXPECT_EQ(svc.try_close_session(991).error().code, ErrorCode::kSpec);
  EXPECT_EQ(svc.try_snapshot(991).error().code, ErrorCode::kSpec);

  SessionOptions no_body;
  no_body.tenant = "t";
  EXPECT_EQ(svc.try_open_session(std::move(no_body)).error().code,
            ErrorCode::kSpec);

  SessionOptions bad_tenant;
  bad_tenant.tenant = "has space";
  bad_tenant.body = tracked_body();
  bad_tenant.initial_state = {0.0};
  EXPECT_EQ(svc.try_open_session(std::move(bad_tenant)).error().code,
            ErrorCode::kSpec);

  SessionOptions good;
  good.tenant = "t";
  good.body = tracked_body();
  good.initial_state = {0.0};
  auto id = svc.try_open_session(std::move(good));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(svc.try_advance_time(id.value(), -1.0).error().code,
            ErrorCode::kSpec);
  // Snapshotting a busy session is a spec error, not a torn snapshot.
  ASSERT_TRUE(svc.try_submit_measurement(id.value()).has_value());
  svc.drain();
  svc.resume();
  EXPECT_TRUE(svc.try_snapshot(id.value()).has_value());
}

TEST(ServiceLifecycle, SessionTableCapIsOverloadedNotFatal) {
  ServiceOptions options;
  options.workers = 1;
  options.max_sessions = 1;
  SimulationService svc(options);

  SessionOptions first;
  first.tenant = "t";
  first.body = tracked_body();
  first.initial_state = {0.0};
  SessionOptions second = first;
  second.body = tracked_body();
  auto id = svc.try_open_session(std::move(first));
  ASSERT_TRUE(id.has_value());
  auto rejected = svc.try_open_session(std::move(second));
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error().code, ErrorCode::kOverloaded);

  // Closing frees the slot.
  EXPECT_TRUE(svc.try_close_session(id.value()).has_value());
  SessionOptions third;
  third.tenant = "t";
  third.body = tracked_body();
  third.initial_state = {0.0};
  EXPECT_TRUE(svc.try_open_session(std::move(third)).has_value());
}

TEST(ServiceLifecycle, DrainNeverStrandsARequest) {
  // Many short measurements over many sessions, so workers keep going
  // idle and waking while submissions arrive: drain() must return with
  // every request run, at any worker count.
  constexpr std::size_t kRounds = 40;
  constexpr std::size_t kSessions = 512;
  constexpr std::size_t kTenants = 16;
  for (const std::size_t workers : {1u, 4u, 8u}) {
    for (std::size_t round = 0; round < kRounds; ++round) {
      SimulationService svc(ServiceOptions{.workers = workers});
      std::vector<SessionId> ids;
      for (std::size_t i = 0; i < kSessions; ++i) {
        SessionOptions session;
        session.tenant = "tenant-" + std::to_string(i % kTenants);
        session.priority =
            i % 2 == 0 ? PriorityClass::kInteractive : PriorityClass::kBulk;
        session.seed = 100 + i;
        session.body = tracked_body();
        session.initial_state = {0.0};
        auto id = svc.try_open_session(std::move(session));
        ASSERT_TRUE(id.has_value());
        ids.push_back(id.value());
      }
      for (std::size_t submit = 0; submit < 2; ++submit) {
        for (const SessionId id : ids) {
          ASSERT_TRUE(svc.try_submit_measurement(id).has_value());
        }
      }
      svc.drain();
      ASSERT_EQ(svc.stats().pending, 0u)
          << "workers=" << workers << " round=" << round;
    }
  }
}

TEST(ServiceObservability, PrometheusExposesClassAndTenantSeries) {
  // Declared first so the service's workers are joined before the
  // recorder goes away.
  obs::FlightRecorder recorder;
  ServiceOptions options;
  options.workers = 2;
  SimulationService svc(options);

  recorder.install();
  SessionOptions session;
  session.tenant = "clinic-a";
  session.body = tracked_body();
  session.initial_state = {0.0};
  auto id = svc.try_open_session(std::move(session));
  ASSERT_TRUE(id.has_value());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(svc.try_submit_measurement(id.value()).has_value());
  }
  svc.drain();
  recorder.uninstall();

  // The per-layer span histograms come from the recorder's dump.
  const obs::RecorderDump dump = recorder.dump();
  const std::string text = svc.prometheus_text(&dump);
  EXPECT_NE(text.find("biosens_service_requests_total{class=\"interactive"
                      "\",outcome=\"submitted\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("biosens_layer_span_seconds_bucket{layer=\"service\""),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "biosens_service_tenant_requests_total{tenant=\"clinic-a\""),
      std::string::npos);
  EXPECT_NE(text.find("biosens_service_queue_wait_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("biosens_service_sessions_open 1"),
            std::string::npos);

  // Failures are part of the stream: the tracked body QC-rejects
  // deterministically once readings drift; counters must reconcile.
  const ClassSlo& slo = svc.slo(PriorityClass::kInteractive);
  EXPECT_EQ(slo.submitted.value(),
            slo.completed.value() + slo.failed.value());
}

TEST(ServiceObservability, IntrospectionTransitionsWithOverload) {
  ServiceOptions options;
  options.workers = 1;
  // A single pending slot makes saturation deterministic: while one
  // gated measurement occupies it, the next submission must reject.
  options.max_pending_per_session = 1;
  SimulationService svc(options);

  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool closed = false;
  };
  auto gate = std::make_shared<Gate>();
  SessionOptions session;
  session.tenant = "clinic-a";
  session.body = [gate](SessionContext&) -> Expected<double> {
    std::unique_lock<std::mutex> lock(gate->mutex);
    gate->cv.wait(lock, [&] { return !gate->closed; });
    return 1.0;
  };
  session.initial_state = {0.0};
  auto id = svc.try_open_session(std::move(session));
  ASSERT_TRUE(id.has_value());

  // Quiet service: healthy, no reasons, gauges at rest.
  obs::IntrospectionReport start = svc.introspection_report();
  EXPECT_EQ(start.component, "service");
  EXPECT_EQ(start.health.state, obs::HealthState::kHealthy);
  EXPECT_TRUE(start.health.reasons.empty());
  EXPECT_EQ(start.open_sessions, 1u);
  EXPECT_EQ(start.pending, 0u);

  // Establish a healthy submission history so one rejection reads as
  // degradation, not a total outage.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(svc.try_submit_measurement(id.value()).has_value());
    ASSERT_TRUE(svc.try_wait_idle(id.value()).has_value());
  }

  // Close the gate and fill the session up: one gated measurement
  // executes (a session runs one at a time), one more fills the
  // single-slot queue, so the third submission at the latest must come
  // back kOverloaded — deterministically, whatever the worker timing.
  {
    std::lock_guard<std::mutex> lock(gate->mutex);
    gate->closed = true;
  }
  bool saw_rejection = false;
  for (int i = 0; i < 5 && !saw_rejection; ++i) {
    const auto submitted = svc.try_submit_measurement(id.value());
    if (!submitted.has_value()) {
      ASSERT_EQ(submitted.error().code, ErrorCode::kOverloaded);
      saw_rejection = true;
    }
  }
  {
    // Reopen the gate before any assertion can unwind into ~SimulationService
    // — a closed gate would deadlock the drain there.
    std::lock_guard<std::mutex> lock(gate->mutex);
    gate->closed = false;
  }
  gate->cv.notify_all();
  ASSERT_TRUE(saw_rejection);

  obs::IntrospectionReport incident = svc.introspection_report();
  EXPECT_EQ(incident.health.state, obs::HealthState::kDegraded)
      << incident.to_json();
  EXPECT_TRUE(incident.health.has_reason("queue-saturation"));
  const std::string json = incident.to_json();
  EXPECT_NE(json.find("\"component\":\"service\""), std::string::npos);
  EXPECT_NE(json.find("\"queue-saturation\""), std::string::npos);

  // Let the backlog finish, then drain: the quiesce re-anchors the
  // rejection baseline, so the handled incident must not keep the
  // service degraded.
  svc.drain();
  svc.resume();
  obs::IntrospectionReport recovered = svc.introspection_report();
  EXPECT_EQ(recovered.health.state, obs::HealthState::kHealthy)
      << recovered.to_json();
  EXPECT_TRUE(recovered.health.reasons.empty());
  ASSERT_TRUE(svc.try_submit_measurement(id.value()).has_value());
  svc.drain();
}

TEST(ServiceObservability, IntrospectionReportsFailureBurn) {
  obs::FlightRecorder recorder;
  ServiceOptions options;
  options.workers = 2;
  SimulationService svc(options);

  recorder.install();
  SessionOptions session;
  session.tenant = "clinic-a";
  // Every reading after the first fails: a failure ratio of 7/8, past
  // the unhealthy threshold.
  session.body = [](SessionContext& c) -> Expected<double> {
    if (c.index == 0) return 1.0;
    return make_error(ErrorCode::kNumerics, Layer::kService, "probe",
                      "electrode fault");
  };
  auto id = svc.try_open_session(std::move(session));
  ASSERT_TRUE(id.has_value());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(svc.try_submit_measurement(id.value()).has_value());
  }
  svc.drain();

  const obs::IntrospectionReport report = svc.introspection_report();
  recorder.uninstall();
  EXPECT_EQ(report.component, "service");
  EXPECT_EQ(report.health.state, obs::HealthState::kUnhealthy)
      << report.to_json();
  EXPECT_TRUE(report.health.has_reason("failure-burn"));
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"component\":\"service\""), std::string::npos);
  EXPECT_NE(json.find("\"failure-burn\""), std::string::npos);
  // The first failure latched the installed recorder.
  EXPECT_NE(json.find("\"recorder\":{\"installed\":true,\"triggered\":true"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace biosens::service
