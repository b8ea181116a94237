// Observability bench: what recording a cohort costs and where the time
// goes (docs/observability.md).
//
// The flight recorder is the one event store; this bench installs it at
// two ring capacities. The trace-sized ring keeps every event of the
// cohort (a trace is that ring's dump, rendered by the exporters); the
// resident-sized ring is smaller than the cohort's event volume, so its
// measured cost includes the overwrite path.
//
// Section 1 — byte-identity. A 48-patient two-sensor cohort is assayed
// with nothing installed on a serial engine (the reference bytes), then
// re-assayed with the store installed at both capacities at 0, 1, and 8
// workers. Recording only reads clocks — it never touches a job's Rng
// stream — so every fingerprint must equal the reference; the bench
// exits nonzero on any divergence.
//
// Section 2 — per-layer latency attribution. The serial traced run's
// dump is kept and its per-layer span statistics printed as the
// attribution table (span count, failures, total inclusive seconds,
// p50/p95). Inclusive semantics: a chem span nested inside an
// electrochem sweep counts toward both layers, so the column does not
// sum to wall time.
//
// Section 3 — enabled overhead: recorded vs plain serial wall time per
// capacity. Reps are *interleaved* (plain then recorded, best of 3
// each) so both see the same cache/frequency regime — back-to-back
// ordering lets the second block inherit a warm machine and report a
// negative overhead. The reported percentage clamps at 0 (a negative
// reading is timer noise, not recording making work faster). The <2%
// disabled-path budget is enforced separately by the perf-smoke gate on
// bench_sim_kernels.
//
// The JSON printed at the end is the committed BENCH_obs.json baseline
// future perf PRs cite. BIOSENS_SMOKE=1 (or BIOSENS_BENCH_SMOKE=1)
// shrinks the cohort (CI).
#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "engine/engine.hpp"
#include "obs/export_prometheus.hpp"
#include "obs/recorder.hpp"

namespace {

using namespace biosens;

core::Platform make_panel() {
  // Point-of-care acquisition settings (same as bench_sim_kernels) so a
  // panel costs milliseconds, not lab-grade seconds.
  core::MeasurementOptions poc;
  poc.chrono.duration = Time::seconds(10.0);
  poc.chrono.dt = Time::milliseconds(100.0);
  poc.chrono.grid_nodes = 40;
  poc.voltammetry.points_per_sweep = 150;
  poc.smoothing_window = 3;

  core::Platform p;
  p.add_sensor(core::try_entry("MWCNT/Nafion + GOD (this work)").value(), poc);
  p.add_sensor(core::try_entry("MWCNT + CYP (cyclophosphamide)").value(), poc);
  return p;
}

core::ProtocolOptions quick_options() {
  core::ProtocolOptions o;
  o.blank_repeats = 8;
  o.replicates = 1;
  return o;
}

std::vector<chem::Sample> cohort_samples(std::size_t patients) {
  std::vector<chem::Sample> samples;
  samples.reserve(patients);
  Rng levels(424242);
  for (std::size_t i = 0; i < patients; ++i) {
    chem::Sample s = chem::blank_sample();
    s.set("glucose", Concentration::milli_molar(levels.uniform(0.1, 0.9)));
    s.set("cyclophosphamide",
          Concentration::micro_molar(levels.uniform(20.0, 60.0)));
    samples.push_back(std::move(s));
  }
  return samples;
}

/// Bit-exact fingerprint (%.17g round-trips IEEE doubles exactly).
std::string fingerprint(const std::vector<core::PanelReport>& reports) {
  std::string out;
  char cell[64];
  for (const core::PanelReport& report : reports) {
    for (const core::AssayResult& r : report.results) {
      std::snprintf(cell, sizeof(cell), "%.17g|%.17g|%d;", r.response_a,
                    r.estimated.milli_molar(), r.qc.accepted ? 1 : 0);
      out += cell;
    }
    out += '\n';
  }
  return out;
}

/// One ring capacity's runs: interleaved plain/recorded serial reps,
/// then recorded runs at 1 and 8 workers.
struct StoreRun {
  double plain_s = 1e18;
  double recorded_s = 1e18;
  bool deterministic = true;
  obs::RecorderDump serial_dump;  ///< the last serial recorded rep
};

StoreRun run_with_store(const core::Platform& platform,
                        const std::vector<chem::Sample>& samples,
                        const core::PanelBatchOptions& options,
                        const std::string& reference, std::size_t capacity,
                        const char* label) {
  obs::FlightRecorderOptions recorder_options;
  recorder_options.ring_capacity_per_thread = capacity;
  obs::FlightRecorder recorder(recorder_options);
  StoreRun run;
  const auto check = [&](const std::vector<core::PanelReport>& reports,
                         const char* mode, std::size_t workers) {
    if (fingerprint(reports) == reference) return;
    run.deterministic = false;
    std::fprintf(stderr,
                 "BYTE-IDENTITY VIOLATION: %s %s run at %zu workers "
                 "diverges from the reference\n",
                 label, mode, workers);
  };
  for (int rep = 0; rep < 3; ++rep) {
    {
      engine::Engine plain;
      const engine::Stopwatch watch;
      const auto batch = platform.run_panel_batch(samples, plain, options);
      run.plain_s = std::min(run.plain_s, watch.elapsed_seconds());
      check(batch.reports, "plain", 0);
    }
    {
      recorder.install();
      engine::Engine recorded;
      const engine::Stopwatch watch;
      const auto batch = platform.run_panel_batch(samples, recorded, options);
      run.recorded_s = std::min(run.recorded_s, watch.elapsed_seconds());
      recorder.uninstall();
      check(batch.reports, "recorded", 0);
    }
  }
  // install() clears the rings, so keep the serial dump before the
  // worker runs reuse the recorder.
  run.serial_dump = recorder.dump();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    engine::EngineOptions parallel;
    parallel.workers = workers;
    recorder.install();
    engine::Engine recorded(parallel);
    const auto batch = platform.run_panel_batch(samples, recorded, options);
    recorder.uninstall();
    check(batch.reports, "recorded", workers);
  }
  return run;
}

double overhead_pct(const StoreRun& run) {
  return std::max(0.0, (run.recorded_s / run.plain_s - 1.0) * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("BIOSENS_SMOKE") != nullptr ||
                     std::getenv("BIOSENS_BENCH_SMOKE") != nullptr;
  biosens::bench::print_banner(
      "Cross-layer tracing — byte-identity, attribution, overhead",
      smoke ? "reduced CI smoke configuration"
            : "traced cohort runs vs the untraced reference");

  const core::Platform platform = [] {
    core::Platform p = make_panel();
    Rng rng(2012);
    p.try_calibrate_all(rng, quick_options()).value();
    return p;
  }();
  const std::vector<chem::Sample> samples =
      cohort_samples(smoke ? 12 : 48);
  core::PanelBatchOptions options;
  options.seed = 2012;

  // Warm-up pass: fault the code and calibration tables in before any
  // timed rep, so rep ordering cannot masquerade as tracing overhead.
  std::string reference;
  {
    engine::Engine warmup;
    reference =
        fingerprint(platform.run_panel_batch(samples, warmup, options).reports);
  }

  // A trace-sized ring keeps every event of the cohort; the resident
  // ring is sized below the cohort's event volume on purpose, so the
  // overwrite path is part of its measured cost.
  constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;
  constexpr std::size_t kResidentCapacity = 512;
  const StoreRun traced = run_with_store(platform, samples, options,
                                         reference, kTraceCapacity, "traced");
  const StoreRun resident =
      run_with_store(platform, samples, options, reference,
                     kResidentCapacity, "resident-recorder");
  const obs::RecorderDump& trace = traced.serial_dump;
  const obs::LayerSpanStats layers(trace);

  // -- per-layer attribution (serial traced run) --
  std::printf("\nper-layer latency attribution, %zu-patient serial traced "
              "run\n(inclusive spans: nested layers overlap, columns do "
              "not sum to wall time):\n",
              samples.size());
  std::printf("  %-12s %8s %6s %12s %10s %10s\n", "layer", "spans",
              "fails", "total_s", "p50_us", "p95_us");
  std::uint64_t spans = 0;
  std::uint64_t failed_spans = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const obs::LatencyHistogram& h = layers.latency[i];
    if (h.count() == 0) continue;
    spans += h.count();
    failed_spans += layers.failures[i];
    std::printf("  %-12s %8llu %6llu %12.4f %10.1f %10.1f\n",
                std::string(to_string(static_cast<Layer>(i))).c_str(),
                static_cast<unsigned long long>(h.count()),
                static_cast<unsigned long long>(layers.failures[i]),
                h.total_seconds(), h.quantile(0.5) * 1e6,
                h.quantile(0.95) * 1e6);
  }
  std::printf("  spans: %llu total, %llu failed; %zu events, %llu "
              "overwritten\n",
              static_cast<unsigned long long>(spans),
              static_cast<unsigned long long>(failed_spans),
              trace.events.size(),
              static_cast<unsigned long long>(trace.overwritten));

  const double traced_overhead_pct = overhead_pct(traced);
  const double resident_overhead_pct = overhead_pct(resident);
  std::printf("\nserial cohort wall (interleaved, best of 3): plain %.4f "
              "s, traced %.4f s (+%.1f%% with a trace-sized ring "
              "installed)\n",
              traced.plain_s, traced.recorded_s, traced_overhead_pct);
  std::printf("resident flight recorder: plain %.4f s, recorder-on %.4f s "
              "(+%.1f%%); %llu events recorded, %llu overwritten (ring "
              "capacity %zu)\n",
              resident.plain_s, resident.recorded_s, resident_overhead_pct,
              static_cast<unsigned long long>(resident.serial_dump.recorded),
              static_cast<unsigned long long>(
                  resident.serial_dump.overwritten),
              kResidentCapacity);
  if (!traced.deterministic || !resident.deterministic) return 1;
  std::printf("byte-identity: plain == traced == recorder-on at 0, 1 and 8 "
              "workers (seed %llu)\n",
              static_cast<unsigned long long>(options.seed));

  std::string json = "{\n";
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "  \"cohort\": {\"patients\": %zu, "
                "\"untraced_wall_s\": %.4f, \"traced_wall_s\": %.4f,\n"
                "    \"traced_overhead_pct\": %.1f},\n",
                samples.size(), traced.plain_s, traced.recorded_s,
                traced_overhead_pct);
  json += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "  \"trace\": {\"ring_capacity\": %zu, \"spans\": %llu, "
                "\"failed_spans\": %llu, \"events\": %zu, "
                "\"overwritten\": %llu},\n",
                kTraceCapacity, static_cast<unsigned long long>(spans),
                static_cast<unsigned long long>(failed_spans),
                trace.events.size(),
                static_cast<unsigned long long>(trace.overwritten));
  json += buffer;
  json += "  \"layers\": {";
  bool first = true;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const obs::LatencyHistogram& h = layers.latency[i];
    if (h.count() == 0) continue;
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n    \"%s\": {\"spans\": %llu, \"total_s\": %.4f, "
                  "\"p50_us\": %.1f, \"p95_us\": %.1f}",
                  first ? "" : ",",
                  std::string(to_string(static_cast<Layer>(i))).c_str(),
                  static_cast<unsigned long long>(h.count()),
                  h.total_seconds(), h.quantile(0.5) * 1e6,
                  h.quantile(0.95) * 1e6);
    json += buffer;
    first = false;
  }
  json += "},\n";
  std::snprintf(buffer, sizeof(buffer),
                "  \"recorder\": {\"baseline_wall_s\": %.4f, "
                "\"recorder_wall_s\": %.4f, \"overhead_pct\": %.1f,\n"
                "    \"events_recorded\": %llu, \"overwritten\": %llu, "
                "\"ring_capacity\": %zu, \"deterministic\": %s},\n",
                resident.plain_s, resident.recorded_s, resident_overhead_pct,
                static_cast<unsigned long long>(resident.serial_dump.recorded),
                static_cast<unsigned long long>(
                    resident.serial_dump.overwritten),
                kResidentCapacity,
                resident.deterministic ? "true" : "false");
  json += buffer;
  json += std::string("  \"deterministic\": ") +
          (traced.deterministic ? "true" : "false") +
          ",\n  \"smoke\": " + (smoke ? "true" : "false") + "\n}\n";
  std::printf("\n%s", json.c_str());
  if (const char* dir = std::getenv("BIOSENS_EXPORT_DIR")) {
    const std::string path = std::string(dir) + "/obs_trace.json";
    Table::write_file(path, json);
    std::printf("(exported %s)\n", path.c_str());
  }

  if (smoke) return 0;  // CI gate parses stdout; skip the long timings

  benchmark::RegisterBenchmark(
      "BM_TracedPanelAssay", [&](benchmark::State& state) {
        obs::FlightRecorderOptions recorder_options;
        recorder_options.ring_capacity_per_thread = kTraceCapacity;
        obs::FlightRecorder recorder(recorder_options);
        recorder.install();
        Rng rng(7);
        for (auto _ : state) {
          benchmark::DoNotOptimize(platform.try_assay(samples[0], rng).value());
        }
        recorder.uninstall();
      });
  benchmark::RegisterBenchmark(
      "BM_UntracedPanelAssay", [&](benchmark::State& state) {
        Rng rng(7);
        for (auto _ : state) {
          benchmark::DoNotOptimize(platform.try_assay(samples[0], rng).value());
        }
      });
  return biosens::bench::run_timings(argc, argv);
}
