// service_demo: the platform operated as a resident, multi-tenant
// point-of-care service.
//
// Where batch examples run one workload to completion, this demo drives
// the SimulationService the way a deployment would (docs/service.md):
// three tenants — two clinics streaming interactive patient glucose
// sessions and one research lab streaming bulk cohort re-simulation —
// submit measurements over a simulated day. Mid-run the operator drains
// the service, snapshots every session to text, restarts (close +
// restore from the snapshots), and the day continues. At the end the
// demo re-runs the identical day on a second service that was never
// interrupted and byte-compares the final session snapshots: the
// restart must be invisible in every measurement stream, or the demo
// exits nonzero.
//
// Backpressure is part of the show: the service is configured with a
// small per-session queue, and the first patient's measurements are
// held until the queue has overflowed once (IncidentGate), so
// submissions come back as structured ErrorCode::kOverloaded results
// carrying the tenant and a retry-after hint — which the demo honors
// instead of crashing.
//
// Observability flags (docs/observability.md, docs/operations.md). Any
// of them installs the flight recorder for the primary day; the trace
// artifacts render its dump, so tracing sizes its rings to keep every
// event:
//   --trace-out=FILE    Chrome trace-event JSON (service spans + async
//                       queue-wait intervals; open in Perfetto)
//   --metrics-out=FILE  Prometheus text exposition: per-class SLO
//                       histograms, per-tenant counters, layer latency
//   --events-out=FILE   JSONL event log for post-mortems
//   --recorder-out=FILE flight-recorder auto-dump target: the first
//                       kOverloaded rejection dumps the recent-event
//                       rings (with the rejected tenant's tail) here
//   --introspect-out=FILE  JSON array of three introspection_report()
//                       probes: at start (healthy), at the first
//                       overload (degraded, queue-saturation), and
//                       after the final drain (healthy again)
//   --waves=N --samples=N --quick  shrink the workload (CI smoke)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "chem/solution.hpp"
#include "common/table.hpp"
#include "core/catalog.hpp"
#include "core/sensor.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_jsonl.hpp"
#include "obs/export_prometheus.hpp"
#include "obs/recorder.hpp"
#include "service/service.hpp"

using namespace biosens;

namespace {

struct DemoConfig {
  std::size_t waves = 3;
  std::size_t samples_per_wave = 40;
  bool quick = false;
  std::string trace_out;
  std::string metrics_out;
  std::string events_out;
  std::string recorder_out;
  std::string introspect_out;
};

DemoConfig parse_args(int argc, char** argv) {
  DemoConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* prefix) -> const char* {
      const std::size_t n = std::string(prefix).size();
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--waves=")) {
      config.waves = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--samples=")) {
      config.samples_per_wave =
          static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--trace-out=")) {
      config.trace_out = v;
    } else if (const char* v = value_of("--metrics-out=")) {
      config.metrics_out = v;
    } else if (const char* v = value_of("--events-out=")) {
      config.events_out = v;
    } else if (const char* v = value_of("--recorder-out=")) {
      config.recorder_out = v;
    } else if (const char* v = value_of("--introspect-out=")) {
      config.introspect_out = v;
    } else if (arg == "--quick") {
      config.quick = true;
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: service_demo [--waves=N] [--samples=N] "
                   "[--quick] [--trace-out=FILE] [--metrics-out=FILE] "
                   "[--events-out=FILE] [--recorder-out=FILE] "
                   "[--introspect-out=FILE]\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  if (config.quick) {
    config.waves = std::min<std::size_t>(config.waves, 2);
    config.samples_per_wave =
        std::min<std::size_t>(config.samples_per_wave, 12);
  }
  return config;
}

/// The demo's patient roster: tenant, priority class, seed, the
/// patient's fasting glucose baseline in mM, and which sensor reads
/// them. Most patients wear the paper's amperometric GOD sensor; the
/// fet-ward patient streams through the CNT bioFET backend
/// (docs/transducers.md) — same service, zero special-casing.
struct PatientSpec {
  const char* tenant;
  service::PriorityClass priority;
  std::uint64_t seed;
  double baseline_mM;
  bool fet_sensor;
};

constexpr PatientSpec kRoster[] = {
    {"clinic-a", service::PriorityClass::kInteractive, 101, 5.1, false},
    {"clinic-a", service::PriorityClass::kInteractive, 102, 6.3, false},
    {"ward-c", service::PriorityClass::kInteractive, 201, 4.8, false},
    {"fet-ward", service::PriorityClass::kInteractive, 401, 5.4, true},
    {"lab-bulk", service::PriorityClass::kBulk, 301, 5.6, false},
    {"lab-bulk", service::PriorityClass::kBulk, 302, 5.9, false},
};
constexpr std::size_t kPatients = sizeof(kRoster) / sizeof(kRoster[0]);

/// One patient's continuous glucose stream. The slow physiological
/// drift advances on the session-sequential RNG (position serialized in
/// snapshots); per-measurement sensor noise draws from the measurement's
/// own child stream. Readings outside the GOD sensor's linear range are
/// QC-rejected — a structured result, not a crash.
service::SessionBody make_body(double baseline_mM) {
  return [baseline_mM](service::SessionContext& c) -> Expected<double> {
    double& drift = c.state[0];
    drift += 0.02 * c.session_rng.normal();
    const double meal =
        1.8 * std::exp(-std::fmod(c.sim_time_s, 21600.0) / 5400.0);
    const double glucose_mM =
        baseline_mM + drift + meal + c.rng.normal(0.0, 0.08);
    if (glucose_mM < 2.2 || glucose_mM > 22.0) {
      return make_error(ErrorCode::kQcReject, Layer::kService, "glucose qc",
                        "reading outside the sensor's linear range");
    }
    return glucose_mM;
  };
}

/// The fet-ward patient's stream runs the real CNT-BA bioFET transducer
/// on every submission: the same physiological drift model sets the
/// glucose level, then the full field-effect pipeline (binding ->
/// Dirac-shift -> noisy hold) produces the drain-current reading from
/// the measurement's child RNG stream. Returns the response in amps.
service::SessionBody make_fet_body(double baseline_mM) {
  const auto sensor = std::make_shared<core::BiosensorModel>(
      core::try_entry("CNT-BA FET").value().spec);
  return [baseline_mM,
          sensor](service::SessionContext& c) -> Expected<double> {
    double& drift = c.state[0];
    drift += 0.02 * c.session_rng.normal();
    const double meal =
        1.8 * std::exp(-std::fmod(c.sim_time_s, 21600.0) / 5400.0);
    const double glucose_mM = std::clamp(
        baseline_mM + drift + meal + c.rng.normal(0.0, 0.08), 0.6, 12.5);
    const chem::Sample s = chem::calibration_sample(
        sensor->spec().target, Concentration::milli_molar(glucose_mM));
    auto m = sensor->try_measure(s, c.rng);
    if (!m.has_value()) return m.error();
    return m.value().response_a;
  };
}

service::SessionBody body_for(const PatientSpec& patient) {
  return patient.fet_sensor ? make_fet_body(patient.baseline_mM)
                            : make_body(patient.baseline_mM);
}

template <class T>
T must(Expected<T> e, const char* what) {
  if (!e.has_value()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, e.error().describe().c_str());
    std::exit(1);
  }
  return std::move(e).value();
}

void must_ok(const Expected<void>& e, const char* what) {
  if (!e.has_value()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, e.error().describe().c_str());
    std::exit(1);
  }
}

struct DayOutcome {
  std::vector<std::string> final_snapshots;  ///< one encode() per patient
  std::uint64_t overload_rejections = 0;
  std::string example_rejection;
  double example_retry_after_s = 0.0;
};

/// Introspection probes captured during the primary day: one report at
/// startup (healthy), one at the first overload rejection (degraded,
/// queue-saturation), one after the final drain resolves the incident
/// (healthy again). Written as a JSON array for --introspect-out.
struct IntrospectLog {
  std::vector<std::string> probes;
  bool degraded_captured = false;
};

/// The staged incident: the first patient's measurements wait on this
/// gate until the producer has been turned away once, so the shallow
/// session queue overflows on every run instead of only when the
/// workers happen to fall behind. It changes timing only: the accepted
/// sequence, and so every stream, is the same either way.
class IncidentGate {
 public:
  service::SessionBody hold(service::SessionBody body) const {
    return [gate = gate_, body = std::move(body)](
               service::SessionContext& c) -> Expected<double> {
      gate.wait();
      return body(c);
    };
  }
  void release() {
    if (released_) return;
    released_ = true;
    promise_.set_value();
  }

 private:
  std::promise<void> promise_;
  std::shared_future<void> gate_ = promise_.get_future().share();
  bool released_ = false;
};

/// Submits one measurement, honoring backpressure: on kOverloaded the
/// demo waits for the session to drain its queue (the retry_after hint
/// tells a remote caller how long to back off; in-process we can wait
/// for the exact event) and retries. The *accepted* sequence — and so
/// the measurement stream — is identical however often this loop spins.
void submit_honoring_backpressure(service::SimulationService& svc,
                                  service::SessionId id,
                                  DayOutcome& outcome,
                                  IntrospectLog* introspect,
                                  IncidentGate& incident) {
  for (;;) {
    auto submitted = svc.try_submit_measurement(id);
    if (submitted.has_value()) return;
    const ErrorInfo& error = submitted.error();
    if (error.code != ErrorCode::kOverloaded) {
      std::fprintf(stderr, "FATAL submit: %s\n", error.describe().c_str());
      std::exit(1);
    }
    outcome.overload_rejections += 1;
    if (outcome.example_rejection.empty()) {
      outcome.example_rejection = error.describe();
      outcome.example_retry_after_s = error.retry_after_s;
    }
    if (introspect != nullptr && !introspect->degraded_captured) {
      // Probe the service mid-incident: the rejection we just absorbed
      // must surface as kDegraded with a queue-saturation reason.
      introspect->degraded_captured = true;
      introspect->probes.push_back(svc.introspection_report().to_json());
    }
    incident.release();
    must_ok(svc.try_wait_idle(id), "wait_idle after overload");
  }
}

/// Runs the whole simulated day. When `interrupted` is true the run
/// drains, snapshots, closes, restores, and resumes after the first
/// wave — the restart whose invisibility the demo verifies. The primary
/// (traced) run also writes the observability artifacts.
DayOutcome run_day(const DemoConfig& config, bool interrupted,
                   bool verbose, IntrospectLog* introspect) {
  service::ServiceOptions options;
  options.workers = 4;
  // Deliberately shallow so backpressure is observable in the demo.
  options.max_pending_per_session = 8;
  service::SimulationService svc(options);
  IncidentGate incident;

  std::vector<service::SessionId> ids(kPatients);
  for (std::size_t p = 0; p < kPatients; ++p) {
    service::SessionOptions session;
    session.tenant = kRoster[p].tenant;
    session.priority = kRoster[p].priority;
    session.seed = kRoster[p].seed;
    session.body = p == 0 ? incident.hold(body_for(kRoster[p]))
                          : body_for(kRoster[p]);
    session.initial_state = {0.0};  // accumulated physiological drift
    ids[p] = must(svc.try_open_session(std::move(session)), "open_session");
  }
  if (introspect != nullptr) {
    // Baseline probe: sessions open, nothing submitted yet -> kHealthy.
    introspect->probes.push_back(svc.introspection_report().to_json());
  }

  DayOutcome outcome;
  for (std::size_t wave = 0; wave < config.waves; ++wave) {
    for (std::size_t p = 0; p < kPatients; ++p) {
      for (std::size_t s = 0; s < config.samples_per_wave; ++s) {
        submit_honoring_backpressure(svc, ids[p], outcome, introspect,
                                     incident);
        if (s % 8 == 7) {
          must_ok(svc.try_advance_time(ids[p], 300.0), "advance_time");
        }
      }
      incident.release();  // too few samples to overflow the queue
    }
    svc.drain();

    if (interrupted && wave == 0) {
      // Operator restart mid-day: snapshot every quiesced session to
      // text, close them all, then restore from the decoded snapshots.
      std::vector<std::string> encoded(kPatients);
      for (std::size_t p = 0; p < kPatients; ++p) {
        encoded[p] =
            must(svc.try_snapshot(ids[p]), "snapshot").encode();
        (void)must(svc.try_close_session(ids[p]), "close_session");
      }
      svc.resume();
      for (std::size_t p = 0; p < kPatients; ++p) {
        const service::SessionSnapshot snapshot = must(
            service::SessionSnapshot::try_decode(encoded[p]), "decode");
        ids[p] = must(svc.try_restore(body_for(kRoster[p]), snapshot),
                      "restore");
      }
      if (verbose) {
        std::printf(
            "--- wave 1 done: drained, snapshotted %zu sessions, "
            "restarted, restored ---\n",
            kPatients);
      }
    } else {
      svc.resume();
      if (verbose) {
        std::printf("--- wave %zu done ---\n", wave + 1);
      }
    }
  }

  svc.drain();
  for (std::size_t p = 0; p < kPatients; ++p) {
    outcome.final_snapshots.push_back(
        must(svc.try_snapshot(ids[p]), "final snapshot").encode());
  }
  if (introspect != nullptr) {
    // Recovery probe: drain() quiesced everything and re-anchored the
    // health baseline; resume() lifts the drain reason -> kHealthy.
    svc.resume();
    introspect->probes.push_back(svc.introspection_report().to_json());
  }

  if (verbose) {
    const service::ClassSlo& pocc =
        svc.slo(service::PriorityClass::kInteractive);
    const service::ClassSlo& bulk = svc.slo(service::PriorityClass::kBulk);
    std::printf(
        "\nper-class SLO (wall-clock; varies run to run):\n"
        "  interactive: %llu submitted, %llu ok, %llu qc-failed; queue "
        "wait p50 %.0f us, p99 %.0f us\n"
        "  bulk:        %llu submitted, %llu ok, %llu qc-failed; queue "
        "wait p50 %.0f us, p99 %.0f us\n",
        static_cast<unsigned long long>(pocc.submitted.value()),
        static_cast<unsigned long long>(pocc.completed.value()),
        static_cast<unsigned long long>(pocc.failed.value()),
        pocc.queue_wait.quantile(0.50) * 1e6,
        pocc.queue_wait.quantile(0.99) * 1e6,
        static_cast<unsigned long long>(bulk.submitted.value()),
        static_cast<unsigned long long>(bulk.completed.value()),
        static_cast<unsigned long long>(bulk.failed.value()),
        bulk.queue_wait.quantile(0.50) * 1e6,
        bulk.queue_wait.quantile(0.99) * 1e6);
    std::printf(
        "backpressure: %llu kOverloaded rejections honored",
        static_cast<unsigned long long>(outcome.overload_rejections));
    if (!outcome.example_rejection.empty()) {
      std::printf("\n  e.g. %s\n  retry_after_s hint: %.4f",
                  outcome.example_rejection.c_str(),
                  outcome.example_retry_after_s);
    }
    std::printf("\n");
  }

  const obs::FlightRecorder* recorder = obs::FlightRecorder::current();
  if (verbose && recorder != nullptr && !config.metrics_out.empty()) {
    // Metrics must be written while the service is alive; the trace
    // itself is exported by main after uninstall().
    const obs::RecorderDump trace = recorder->dump();
    Table::write_file(config.metrics_out, svc.prometheus_text(&trace));
    std::printf("wrote Prometheus metrics to %s\n",
                config.metrics_out.c_str());
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const DemoConfig config = parse_args(argc, argv);
  std::printf(
      "=== service_demo: resident multi-tenant simulation service ===\n"
      "(4 workers; tenants clinic-a + ward-c interactive, lab-bulk bulk; "
      "mid-day drain -> snapshot -> restart -> restore)\n\n");

  const bool tracing = !config.trace_out.empty() ||
                       !config.metrics_out.empty() ||
                       !config.events_out.empty();
  const bool recording =
      !config.recorder_out.empty() || !config.introspect_out.empty();

  // Flight recorder for the primary day: its first kOverloaded rejection
  // auto-dumps the recent-event rings (with the rejected tenant's tail)
  // to --recorder-out. Job-failure triggering stays off — QC rejections
  // are routine in this workload; the overload is the staged incident.
  obs::FlightRecorderOptions recorder_options;
  recorder_options.auto_dump_path = config.recorder_out;
  recorder_options.trigger_on_job_failure = false;
  if (tracing) recorder_options.ring_capacity_per_thread = 1u << 20;
  obs::FlightRecorder recorder(recorder_options);
  if (tracing || recording) recorder.install();

  IntrospectLog introspect;
  IntrospectLog* probes =
      config.introspect_out.empty() ? nullptr : &introspect;

  // The primary day: interrupted mid-run by a drain + snapshot restart.
  const DayOutcome primary =
      run_day(config, /*interrupted=*/true, /*verbose=*/true, probes);

  recorder.uninstall();
  if (recording) {
    std::string auto_dump;
    if (recorder.triggered() && !config.recorder_out.empty()) {
      auto_dump = recorder.auto_dump_written()
                      ? "; auto-dumped to " + config.recorder_out
                      : "; auto-dump to " + config.recorder_out +
                            " FAILED (file not written)";
    }
    std::printf("flight recorder: %llu events recorded, %llu triggers%s\n",
                static_cast<unsigned long long>(recorder.recorded_events()),
                static_cast<unsigned long long>(recorder.trigger_count()),
                auto_dump.c_str());
  }
  if (probes != nullptr) {
    std::string doc = "[\n";
    for (std::size_t i = 0; i < probes->probes.size(); ++i) {
      doc += probes->probes[i];
      if (i + 1 < probes->probes.size()) doc += ",";
      doc += "\n";
    }
    doc += "]\n";
    Table::write_file(config.introspect_out, doc);
    std::printf("wrote %zu introspection probes to %s\n",
                probes->probes.size(), config.introspect_out.c_str());
  }

  if (tracing) {
    const obs::RecorderDump trace = recorder.dump();
    if (!config.trace_out.empty()) {
      obs::write_chrome_trace(trace, config.trace_out);
      std::printf("wrote Chrome trace (%zu events) to %s\n",
                  trace.events.size(), config.trace_out.c_str());
    }
    if (!config.events_out.empty()) {
      obs::write_jsonl_events(trace, config.events_out);
      std::printf("wrote JSONL event log to %s\n",
                  config.events_out.c_str());
    }
  }

  // The control day: same submissions, never interrupted, no tracing and
  // no recorder — the byte-compare below doubles as proof that the
  // observability stack never perturbs the measurement streams.
  const DayOutcome control = run_day(config, /*interrupted=*/false,
                                     /*verbose=*/false, nullptr);

  std::size_t mismatches = 0;
  for (std::size_t p = 0; p < kPatients; ++p) {
    if (primary.final_snapshots[p] != control.final_snapshots[p]) {
      ++mismatches;
      std::fprintf(stderr,
                   "STREAM MISMATCH for patient %zu (%s): the restart "
                   "was not invisible\n",
                   p, kRoster[p].tenant);
    }
  }
  if (mismatches != 0) return 1;
  std::printf(
      "\nrestart invisibility verified: %zu/%zu session snapshots "
      "byte-identical to the uninterrupted control run\n",
      kPatients, kPatients);
  return 0;
}
