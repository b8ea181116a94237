// Hot-path simulation kernels: what the factorization cache and the
// engine's memoization cache actually buy.
//
// Section 1 — solver step rate. The Crank-Nicolson matrix of one
// chronoamperometric run depends only on (D, dt, dx), so its Thomas
// forward elimination is factored once and reused across every step
// (transport/diffusion.hpp). The "before" configuration reproduces the
// pre-optimization cost: a refactorization on every step (forced by
// alternating the time step between two bit-adjacent values) plus a
// std::function-wrapped surface-flux callable — the per-step heap/
// indirection the templated step_reactive_surface removed. Both
// configurations integrate the same physics.
//
// Section 2 — cohort wall time, cold vs warm. A patient cohort is
// assayed twice on one engine with the simulation cache enabled
// (EngineOptions::sim_cache_capacity): the cold pass computes and
// memoizes every deterministic pre-noise simulation, the warm pass
// serves them from the cache and only reruns the noisy readout. Results
// are asserted byte-identical across uncached/cached and 1/8 workers —
// the bench exits nonzero on any divergence.
//
// BIOSENS_SMOKE=1 runs a reduced configuration (CI perf-smoke gate,
// ci/check.sh): a smaller cohort and no google-benchmark timings. The
// solver section is identical in both modes, so the step rate it
// prints is directly comparable to the committed BENCH_sim.json
// baseline.
#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "engine/engine.hpp"
#include "transport/diffusion.hpp"
#include "transport/diffusion_batch.hpp"

namespace {

using namespace biosens;

// --- Section 1: solver step rate -----------------------------------

struct SolverRun {
  double steps_per_sec_before = 0.0;
  double steps_per_sec_after = 0.0;
  double speedup = 0.0;
  std::uint64_t factorizations_before = 0;
  std::uint64_t factorizations_after = 0;
};

transport::DiffusionField make_field(std::size_t nodes) {
  return transport::DiffusionField(
      Diffusivity::cm2_per_s(6.7e-6),
      transport::DiffusionGrid{.length_m = 200e-6, .nodes = nodes},
      Concentration::milli_molar(1.0));
}

/// Michaelis-Menten surface sink of a glucose-oxidase-like layer.
double mm_flux(double c0_milli_molar) {
  constexpr double kVmax = 2.0e-6;  // mol m^-2 s^-1
  constexpr double kKm = 1.0;       // mM
  return kVmax * c0_milli_molar / (kKm + c0_milli_molar);
}

SolverRun solver_bench(std::size_t nodes, std::size_t steps) {
  const Time dt = Time::milliseconds(25.0);
  // A bit-adjacent second step size: same physics to ~1e-13 relative,
  // but a different factorization key — forcing the pre-optimization
  // refactor-every-step behaviour through the current code.
  const Time dt_alt = Time::seconds(std::nextafter(dt.seconds(), 1.0));

  SolverRun run;
  double before_s = 1e18;
  double after_s = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    {  // BEFORE: refactor each step + std::function indirection.
      transport::DiffusionField field = make_field(nodes);
      const std::function<double(double)> flux = mm_flux;
      const engine::Stopwatch watch;
      double sink = 0.0;
      for (std::size_t i = 0; i < steps; ++i) {
        sink += field.step_reactive_surface((i % 2 == 0) ? dt : dt_alt,
                                            flux);
      }
      benchmark::DoNotOptimize(sink);
      before_s = std::min(before_s, watch.elapsed_seconds());
      run.factorizations_before = field.factorizations();
    }
    {  // AFTER: cached factorization + inlined flux callable.
      transport::DiffusionField field = make_field(nodes);
      const engine::Stopwatch watch;
      double sink = 0.0;
      for (std::size_t i = 0; i < steps; ++i) {
        sink += field.step_reactive_surface(
            dt, [](double c0) { return mm_flux(c0); });
      }
      benchmark::DoNotOptimize(sink);
      after_s = std::min(after_s, watch.elapsed_seconds());
      run.factorizations_after = field.factorizations();
    }
  }
  run.steps_per_sec_before = static_cast<double>(steps) / before_s;
  run.steps_per_sec_after = static_cast<double>(steps) / after_s;
  run.speedup = run.steps_per_sec_after / run.steps_per_sec_before;
  return run;
}

// --- Section 2: batched lockstep cohort stepping -------------------

struct BatchedRun {
  std::size_t lanes = 0;
  double serial_steps_per_sec = 0.0;   ///< aggregate lane-steps/s, K fields
  double batched_steps_per_sec = 0.0;  ///< aggregate lane-steps/s, one batch
  double speedup = 0.0;
  std::uint64_t serial_factorizations = 0;  ///< summed over the K fields
  std::uint64_t batched_factorizations = 0;
  bool bit_identical = true;
};

/// K per-patient reactive sweeps: the current per-field path (cached
/// factorization, inlined flux) against one DiffusionFieldBatch
/// stepping the same K lanes in lockstep. Both integrate the same
/// randomized per-lane bulks; final profiles must agree bit-for-bit.
BatchedRun batched_bench(std::size_t lanes, std::size_t nodes,
                         std::size_t steps) {
  const Time dt = Time::milliseconds(25.0);
  const Diffusivity d = Diffusivity::cm2_per_s(6.7e-6);
  const transport::DiffusionGrid grid{.length_m = 200e-6, .nodes = nodes};
  std::vector<Concentration> bulks;
  bulks.reserve(lanes);
  Rng rng(5150 + lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    bulks.push_back(Concentration::milli_molar(rng.uniform(0.5, 1.5)));
  }

  BatchedRun run;
  run.lanes = lanes;
  double serial_s = 1e18;
  double batched_s = 1e18;
  std::vector<std::vector<double>> serial_profiles(lanes);
  for (int rep = 0; rep < 3; ++rep) {
    {  // per-patient: K independent fields, stepped one at a time
      std::vector<transport::DiffusionField> fields;
      fields.reserve(lanes);
      for (std::size_t k = 0; k < lanes; ++k) {
        fields.emplace_back(d, grid, bulks[k]);
      }
      const engine::Stopwatch watch;
      double sink = 0.0;
      for (std::size_t i = 0; i < steps; ++i) {
        for (std::size_t k = 0; k < lanes; ++k) {
          sink += fields[k].step_reactive_surface(
              dt, [](double c0) { return mm_flux(c0); });
        }
      }
      benchmark::DoNotOptimize(sink);
      serial_s = std::min(serial_s, watch.elapsed_seconds());
      run.serial_factorizations = 0;
      for (std::size_t k = 0; k < lanes; ++k) {
        run.serial_factorizations += fields[k].factorizations();
        const std::span<const double> profile =
            fields[k].profile_milli_molar();
        serial_profiles[k].assign(profile.begin(), profile.end());
      }
    }
    {  // batched: the same K lanes through one SoA lockstep stepper
      transport::DiffusionFieldBatch batch(d, grid, bulks);
      std::vector<double> flux(lanes, 0.0);
      const engine::Stopwatch watch;
      double sink = 0.0;
      for (std::size_t i = 0; i < steps; ++i) {
        batch.step_reactive_surface(
            dt, [](std::size_t, double c0) { return mm_flux(c0); }, flux);
        sink += flux[0];
      }
      benchmark::DoNotOptimize(sink);
      batched_s = std::min(batched_s, watch.elapsed_seconds());
      run.batched_factorizations = batch.factorizations();
      for (std::size_t k = 0; k < lanes; ++k) {
        if (batch.profile_milli_molar(k) != serial_profiles[k]) {
          run.bit_identical = false;
        }
      }
    }
  }
  const double lane_steps = static_cast<double>(lanes * steps);
  run.serial_steps_per_sec = lane_steps / serial_s;
  run.batched_steps_per_sec = lane_steps / batched_s;
  run.speedup = run.batched_steps_per_sec / run.serial_steps_per_sec;
  return run;
}

// --- Section 3: cohort wall time, cold vs warm ---------------------

core::Platform make_panel() {
  // Point-of-care acquisition settings (same as bench_engine_throughput)
  // so a panel costs milliseconds, not lab-grade seconds.
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

struct CohortRun {
  double cold_wall_s = 0.0;
  double warm_wall_s = 0.0;
  double warm_speedup = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

}  // namespace

int main(int argc, char** argv) {
  // BIOSENS_BENCH_SMOKE is an alias of BIOSENS_SMOKE: either marks the
  // exported JSON with "smoke": true so CI skips absolute-rate gating
  // against a full-run baseline.
  const bool smoke = std::getenv("BIOSENS_SMOKE") != nullptr ||
                     std::getenv("BIOSENS_BENCH_SMOKE") != nullptr;
  biosens::bench::print_banner(
      "Simulation kernels — factorization cache + engine sim cache",
      smoke ? "reduced CI smoke configuration"
            : "solver step rate and cold/warm cohort wall time");

  // -- solver step rate --
  // The solver section runs the full step count even under
  // BIOSENS_SMOKE: per-step cost falls as the depletion layer
  // approaches steady state (fewer fixed-point iterations), so a
  // shorter run would not be comparable to the committed baseline.
  const std::size_t nodes = 80;
  const std::size_t steps = 40000;
  const SolverRun solver = solver_bench(nodes, steps);
  std::printf(
      "\nreactive Crank-Nicolson step, %zu nodes, %zu steps (best of 3):\n"
      "  before (refactor/step + std::function): %10.0f steps/s "
      "(%llu factorizations)\n"
      "  after  (cached factorization, inlined): %10.0f steps/s "
      "(%llu factorizations)\n",
      nodes, steps, solver.steps_per_sec_before,
      static_cast<unsigned long long>(solver.factorizations_before),
      solver.steps_per_sec_after,
      static_cast<unsigned long long>(solver.factorizations_after));
  std::printf("solver_steps_per_sec_after=%.0f\n",
              solver.steps_per_sec_after);
  std::printf("claim check: >= 1.5x solver step rate ... %s (%.2fx)\n",
              solver.speedup >= 1.5 ? "OK" : "MISS", solver.speedup);

  // -- batched lockstep cohort stepping --
  // Full step count under smoke too, for the same comparability reason
  // as the solver section; only the gated K=8 point must match the
  // committed baseline's configuration.
  const std::vector<std::size_t> lane_counts = {1, 8, 32};
  std::vector<BatchedRun> batched;
  bool batched_identical = true;
  std::printf(
      "\nbatched SoA lockstep vs per-patient fields, %zu nodes, %zu "
      "steps (best of 3, aggregate lane-steps/s):\n",
      nodes, steps);
  for (const std::size_t lanes : lane_counts) {
    const BatchedRun run = batched_bench(lanes, nodes, steps);
    std::printf(
        "  K=%2zu  per-patient: %10.0f  batched: %10.0f  (%.2fx, "
        "%llu -> %llu factorizations)\n",
        run.lanes, run.serial_steps_per_sec, run.batched_steps_per_sec,
        run.speedup,
        static_cast<unsigned long long>(run.serial_factorizations),
        static_cast<unsigned long long>(run.batched_factorizations));
    if (!run.bit_identical) {
      batched_identical = false;
      std::fprintf(stderr,
                   "BYTE-IDENTITY VIOLATION: batched profiles diverge "
                   "from per-patient fields at K=%zu\n",
                   run.lanes);
    }
    batched.push_back(run);
  }
  const BatchedRun& gated = batched[1];  // the K=8 point CI gates on
  std::printf("batched_steps_per_sec=%.0f\n", gated.batched_steps_per_sec);
  std::printf("batched_factorizations=%llu\n",
              static_cast<unsigned long long>(gated.batched_factorizations));
  std::printf("claim check: >= 4x aggregate step rate at K=8 ... %s "
              "(%.2fx)\n",
              gated.speedup >= 4.0 ? "OK" : "MISS", gated.speedup);
  if (!batched_identical) return 1;

  // -- cohort cold vs warm --
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

  engine::Engine uncached;  // serial, cache off: the reference bytes
  const std::string reference =
      fingerprint(platform.run_panel_batch(samples, uncached, options)
                      .reports);

  bool deterministic = true;
  CohortRun cohort;
  {
    engine::Engine cached(engine::EngineOptions{.sim_cache_capacity = 4096});
    const engine::Stopwatch cold_watch;
    const auto cold = platform.run_panel_batch(samples, cached, options);
    cohort.cold_wall_s = cold_watch.elapsed_seconds();

    const engine::Stopwatch warm_watch;
    const auto warm = platform.run_panel_batch(samples, cached, options);
    cohort.warm_wall_s = warm_watch.elapsed_seconds();
    cohort.warm_speedup = cohort.cold_wall_s / cohort.warm_wall_s;

    const engine::SimCacheStats stats = cached.sim_cache()->stats();
    cohort.cache_hits = stats.hits;
    cohort.cache_misses = stats.misses;

    if (fingerprint(cold.reports) != reference ||
        fingerprint(warm.reports) != reference) {
      deterministic = false;
      std::fprintf(stderr, "BYTE-IDENTITY VIOLATION: cached serial run "
                           "diverges from the uncached reference\n");
    }
  }
  // The cache must also be transparent under parallel execution.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    engine::Engine cached(engine::EngineOptions{
        .workers = workers, .sim_cache_capacity = 4096});
    const auto cold = platform.run_panel_batch(samples, cached, options);
    const auto warm = platform.run_panel_batch(samples, cached, options);
    if (fingerprint(cold.reports) != reference ||
        fingerprint(warm.reports) != reference) {
      deterministic = false;
      std::fprintf(stderr,
                   "BYTE-IDENTITY VIOLATION: cached results diverge at "
                   "%zu workers\n",
                   workers);
    }
  }

  std::printf(
      "\n%zu-patient cohort on the cached serial engine:\n"
      "  cold: %7.3f s wall (%llu misses memoized)\n"
      "  warm: %7.3f s wall (%llu hits)\n",
      samples.size(), cohort.cold_wall_s,
      static_cast<unsigned long long>(cohort.cache_misses),
      cohort.warm_wall_s,
      static_cast<unsigned long long>(cohort.cache_hits));
  std::printf("claim check: >= 3x warm-vs-cold cohort wall time ... %s "
              "(%.2fx)\n",
              cohort.warm_speedup >= 3.0 ? "OK" : "MISS",
              cohort.warm_speedup);
  if (!deterministic) return 1;
  std::printf("byte-identity: cached == uncached at 1 and 8 workers "
              "(seed %llu)\n",
              static_cast<unsigned long long>(options.seed));

  std::string json = "{\n  \"solver\": {";
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "\"nodes\": %zu, \"steps\": %zu,\n"
                "    \"steps_per_sec_before\": %.0f, "
                "\"steps_per_sec_after\": %.0f, \"speedup\": %.2f,\n"
                "    \"factorizations_before\": %llu, "
                "\"factorizations_after\": %llu},\n",
                nodes, steps, solver.steps_per_sec_before,
                solver.steps_per_sec_after, solver.speedup,
                static_cast<unsigned long long>(
                    solver.factorizations_before),
                static_cast<unsigned long long>(
                    solver.factorizations_after));
  json += buffer;
  json += "  \"batched\": {\"nodes\": " + std::to_string(nodes) +
          ", \"steps\": " + std::to_string(steps) + ",\n    \"runs\": [";
  for (std::size_t i = 0; i < batched.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n      {\"lanes\": %zu, "
                  "\"per_patient_steps_per_sec\": %.0f, "
                  "\"batched_steps_per_sec\": %.0f, \"speedup\": %.2f, "
                  "\"factorizations\": %llu}",
                  i == 0 ? "" : ",", batched[i].lanes,
                  batched[i].serial_steps_per_sec,
                  batched[i].batched_steps_per_sec, batched[i].speedup,
                  static_cast<unsigned long long>(
                      batched[i].batched_factorizations));
    json += buffer;
  }
  std::snprintf(buffer, sizeof(buffer),
                "],\n    \"steps_per_sec_batched\": %.0f, "
                "\"speedup_k8\": %.2f, \"factorizations_k8\": %llu},\n",
                gated.batched_steps_per_sec, gated.speedup,
                static_cast<unsigned long long>(
                    gated.batched_factorizations));
  json += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "  \"cohort\": {\"patients\": %zu, \"cold_wall_s\": %.4f, "
                "\"warm_wall_s\": %.4f,\n    \"warm_speedup\": %.2f, "
                "\"cache_hits\": %llu, \"cache_misses\": %llu},\n",
                samples.size(), cohort.cold_wall_s, cohort.warm_wall_s,
                cohort.warm_speedup,
                static_cast<unsigned long long>(cohort.cache_hits),
                static_cast<unsigned long long>(cohort.cache_misses));
  json += buffer;
  json += std::string("  \"deterministic\": ") +
          (deterministic ? "true" : "false") +
          ",\n  \"smoke\": " + (smoke ? "true" : "false") + "\n}\n";
  std::printf("\n%s", json.c_str());
  if (const char* dir = std::getenv("BIOSENS_EXPORT_DIR")) {
    const std::string path = std::string(dir) + "/sim_kernels.json";
    Table::write_file(path, json);
    std::printf("(exported %s)\n", path.c_str());
  }

  if (smoke) return 0;  // CI gate parses stdout; skip the long timings

  benchmark::RegisterBenchmark(
      "BM_ReactiveStepCachedFactorization", [](benchmark::State& state) {
        transport::DiffusionField field = make_field(80);
        const Time dt = Time::milliseconds(25.0);
        for (auto _ : state) {
          benchmark::DoNotOptimize(field.step_reactive_surface(
              dt, [](double c0) { return mm_flux(c0); }));
        }
      });
  benchmark::RegisterBenchmark(
      "BM_BatchedReactiveStepK8", [](benchmark::State& state) {
        const std::vector<Concentration> bulks(
            8, Concentration::milli_molar(1.0));
        transport::DiffusionFieldBatch batch(
            Diffusivity::cm2_per_s(6.7e-6),
            transport::DiffusionGrid{.length_m = 200e-6, .nodes = 80},
            bulks);
        const Time dt = Time::milliseconds(25.0);
        std::vector<double> flux(8, 0.0);
        for (auto _ : state) {
          batch.step_reactive_surface(
              dt, [](std::size_t, double c0) { return mm_flux(c0); }, flux);
          benchmark::DoNotOptimize(flux.data());
        }
      });
  benchmark::RegisterBenchmark(
      "BM_SingleCachedPanelAssay", [&](benchmark::State& state) {
        engine::SimCache cache(engine::SimCacheOptions{.capacity = 64});
        Rng rng(7);
        for (auto _ : state) {
          benchmark::DoNotOptimize(
              platform.sensor(0).try_measure(samples[0], rng, &cache));
        }
      });
  return biosens::bench::run_timings(argc, argv);
}
