// Engine throughput: jobs/sec of a patient-cohort panel workload,
// serial reference vs 2/4/8 workers, with the determinism guarantee
// asserted on every parallel run.
//
// The workload is the service scenario of the ROADMAP: a cohort of 240
// virtual patients, each contributing one serum sample assayed on the
// two-sensor glucose+CYP panel. Every job is real simulation compute
// (no emulated instrument dwell), so the speedup measured here is what
// the workers gain on the machine's cores. Results are asserted
// byte-identical between the serial reference and every parallel run
// (the engine's seed-derivation contract, docs/determinism.md); the
// bench exits nonzero on any divergence.
//
// A second, failure-heavy section measures the cost of the engine's two
// failure paths on an all-failing custom batch: job bodies that *throw*
// a legacy exception (caught once at the engine boundary and classified
// via ErrorInfo::from_exception) vs bodies that return a structured
// Expected error (the exception-free path, docs/errors.md), against an
// all-success baseline.
#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/expected.hpp"
#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "engine/engine.hpp"

namespace {

using namespace biosens;

constexpr std::size_t kPatients = 240;
constexpr std::uint64_t kBatchSeed = 2012;

core::Platform make_panel() {
  // Point-of-care acquisition settings: coarser simulation resolution
  // (the real instrument's 10 Hz sampling, not the lab-grade default),
  // so a 240-panel cohort finishes in seconds.
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

/// One serum sample per patient, spiked inside both sensors' ranges.
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

/// Bit-exact fingerprint of the batch results (%.17g round-trips IEEE
/// doubles exactly).
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

struct RunResult {
  std::size_t workers = 0;
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  double speedup = 1.0;
  std::string fingerprint;
};

RunResult run_once(const core::Platform& platform,
                   const std::vector<chem::Sample>& samples,
                   std::size_t workers) {
  engine::Engine eng(
      engine::EngineOptions{.workers = workers, .queue_capacity = 64});
  core::PanelBatchOptions options;
  options.seed = kBatchSeed;

  const engine::Stopwatch watch;
  const core::PanelBatchResult result =
      platform.run_panel_batch(samples, eng, options);
  RunResult run;
  run.workers = workers;
  run.wall_seconds = watch.elapsed_seconds();
  run.jobs_per_second =
      static_cast<double>(samples.size()) / run.wall_seconds;
  run.fingerprint = fingerprint(result.reports);
  return run;
}

// --- Failure-path cost: throw/catch vs structured Expected errors. ---

constexpr std::size_t kFailureJobs = 20000;

enum class FailurePath { kSuccess, kExpectedError, kThrowCatch };

const char* to_label(FailurePath path) {
  switch (path) {
    case FailurePath::kSuccess: return "success-baseline";
    case FailurePath::kExpectedError: return "expected-error";
    case FailurePath::kThrowCatch: return "throw-catch";
  }
  return "?";
}

/// An all-failing (or all-succeeding) batch of trivial custom jobs, so
/// the measured wall clock is the engine's per-job failure machinery —
/// not assay arithmetic. Both failure variants carry the same kNumerics
/// taxonomy and run under no_retry(), so they execute identical attempt
/// counts; only the reporting mechanism differs.
std::vector<engine::JobSpec> failure_jobs(FailurePath path) {
  std::vector<engine::JobSpec> jobs(kFailureJobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    engine::JobSpec& job = jobs[i];
    job.name = "fail-" + std::to_string(i);
    switch (path) {
      case FailurePath::kSuccess:
        job.body = [](engine::JobContext&) { return true; };
        break;
      case FailurePath::kExpectedError:
        job.body = [](engine::JobContext&) -> Expected<bool> {
          return make_error(ErrorCode::kNumerics, Layer::kEngine,
                            "failure bench", "transient noise burst");
        };
        break;
      case FailurePath::kThrowCatch:
        job.body = [](engine::JobContext&) -> Expected<bool> {
          throw NumericsError("transient noise burst");
        };
        break;
    }
  }
  return jobs;
}

struct FailureRun {
  FailurePath path = FailurePath::kSuccess;
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
};

FailureRun run_failure_path(FailurePath path) {
  const std::vector<engine::JobSpec> jobs = failure_jobs(path);
  engine::Engine eng(engine::EngineOptions{.workers = 0});
  engine::BatchOptions options;
  options.retry = engine::no_retry();
  FailureRun run;
  run.path = path;
  run.wall_seconds = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const engine::Stopwatch watch;
    const std::vector<engine::JobReport> reports = eng.run(jobs, options);
    run.wall_seconds = std::min(run.wall_seconds, watch.elapsed_seconds());
    // Sanity: the variant really exercised the path it claims to.
    const bool failed = path != FailurePath::kSuccess;
    if (reports.back().error.has_value() != failed) {
      std::fprintf(stderr, "failure bench: unexpected report for %s\n",
                   to_label(path));
      std::exit(1);
    }
  }
  run.jobs_per_second =
      static_cast<double>(kFailureJobs) / run.wall_seconds;
  return run;
}

std::string runs_json(const std::vector<RunResult>& runs,
                      bool deterministic,
                      const std::vector<FailureRun>& failure_runs) {
  std::string json = "{\n  \"patients\": " + std::to_string(kPatients) +
                     ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "    {\"workers\": %zu, \"wall_s\": %.4f, "
                  "\"jobs_per_sec\": %.2f, \"speedup\": %.2f}",
                  runs[i].workers, runs[i].wall_seconds,
                  runs[i].jobs_per_second, runs[i].speedup);
    json += line;
    json += (i + 1 < runs.size()) ? ",\n" : "\n";
  }
  json += "  ],\n  \"deterministic\": ";
  json += deterministic ? "true" : "false";
  json += ",\n  \"failure_paths\": {\n    \"jobs\": " +
          std::to_string(kFailureJobs) + ",\n    \"runs\": [\n";
  for (std::size_t i = 0; i < failure_runs.size(); ++i) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "      {\"path\": \"%s\", \"wall_s\": %.4f, "
                  "\"jobs_per_sec\": %.0f}",
                  to_label(failure_runs[i].path),
                  failure_runs[i].wall_seconds,
                  failure_runs[i].jobs_per_second);
    json += line;
    json += (i + 1 < failure_runs.size()) ? ",\n" : "\n";
  }
  json += "    ]";
  if (failure_runs.size() == 3) {
    char line[96];
    std::snprintf(line, sizeof(line),
                  ",\n    \"throw_vs_expected_wall_ratio\": %.2f",
                  failure_runs[2].wall_seconds /
                      failure_runs[1].wall_seconds);
    json += line;
  }
  json += "\n  }\n}\n";
  return json;
}

void register_timings(const core::Platform& platform,
                      const std::vector<chem::Sample>& samples) {
  static const core::Platform& plat = platform;
  static const std::vector<chem::Sample>& smpl = samples;

  benchmark::RegisterBenchmark("BM_SinglePanelAssay",
                               [](benchmark::State& state) {
                                 Rng rng(7);
                                 for (auto _ : state) {
                                   benchmark::DoNotOptimize(
                                       plat.try_assay(smpl[0], rng).value());
                                 }
                               });
  benchmark::RegisterBenchmark("BM_RngChildDerivation",
                               [](benchmark::State& state) {
                                 const Rng root(1);
                                 std::uint64_t i = 0;
                                 for (auto _ : state) {
                                   benchmark::DoNotOptimize(
                                       root.child(i++));
                                 }
                               });
}

}  // namespace

int main(int argc, char** argv) {
  biosens::bench::print_banner(
      "Engine throughput — parallel batch execution",
      "240-patient panel-assay cohort: serial reference vs 2/4/8 workers");

  const core::Platform platform = [] {
    core::Platform p = make_panel();
    Rng rng(2012);
    p.try_calibrate_all(rng, quick_options()).value();
    return p;
  }();
  const std::vector<chem::Sample> samples = cohort_samples(kPatients);

  std::printf("\n");
  std::vector<RunResult> runs;
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    runs.push_back(run_once(platform, samples, workers));
    RunResult& run = runs.back();
    run.speedup = runs.front().wall_seconds / run.wall_seconds;
    std::printf("%s: %6.3f s wall, %7.1f jobs/s, speedup %.2fx\n",
                workers == 0 ? "serial (inline)"
                             : (std::to_string(workers) + " workers").c_str(),
                run.wall_seconds, run.jobs_per_second, run.speedup);
  }

  // The determinism assert: every parallel run must reproduce the
  // serial reference byte-for-byte.
  bool deterministic = true;
  for (const RunResult& run : runs) {
    if (run.fingerprint != runs.front().fingerprint) {
      deterministic = false;
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %zu-worker results diverge "
                   "from the serial reference\n",
                   run.workers);
    }
  }
  if (!deterministic) return 1;
  std::printf("determinism: all runs byte-identical to the serial "
              "reference (seed %llu)\n",
              static_cast<unsigned long long>(kBatchSeed));

  const double speedup_8 = runs.back().speedup;
  std::printf("claim check: >= 3x at 8 workers ... %s (%.2fx)\n",
              speedup_8 >= 3.0 ? "OK" : "MISS", speedup_8);

  // Failure-heavy variant: what a failed job costs under each reporting
  // mechanism (same kNumerics taxonomy, no retry, inline execution).
  std::printf("\nfailure-path cost (%zu all-failing custom jobs, inline, "
              "no retry):\n",
              kFailureJobs);
  std::vector<FailureRun> failure_runs;
  for (const FailurePath path : {FailurePath::kSuccess,
                                 FailurePath::kExpectedError,
                                 FailurePath::kThrowCatch}) {
    failure_runs.push_back(run_failure_path(path));
    const FailureRun& run = failure_runs.back();
    std::printf("  %-17s %7.1f ms wall, %9.0f jobs/s\n", to_label(run.path),
                run.wall_seconds * 1e3, run.jobs_per_second);
  }
  std::printf("  throw/catch costs %.2fx the Expected error path\n",
              failure_runs[2].wall_seconds / failure_runs[1].wall_seconds);

  const std::string json =
      runs_json(runs, deterministic, failure_runs);
  std::printf("\n%s", json.c_str());
  if (const char* dir = std::getenv("BIOSENS_EXPORT_DIR")) {
    const std::string path = std::string(dir) + "/engine_throughput.json";
    Table::write_file(path, json);
    std::printf("(exported %s)\n", path.c_str());
  }

  register_timings(platform, samples);
  return biosens::bench::run_timings(argc, argv);
}
