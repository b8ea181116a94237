// bench_e2e: the end-to-end biosens benchmark (e2ebench/README.md).
//
// Drives real catalog sensors through the two public entry points —
// core::Platform panel batches on engine::Engine, and patient sessions
// on service::SimulationService — measures for --seconds, checks the
// outputs, and prints every metric with its unit. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a traced run, which also replays a
// fixed subset of the workload's measurements layer by layer (ledger).
//
//   bench_e2e --workload cohort_cold --seed 1 --seconds 20 --trace 0
//   bench_e2e --manifest      # prints BENCHMARK.json
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chem/solution.hpp"
#include "common/rng.hpp"
#include "core/catalog.hpp"
#include "core/platform.hpp"
#include "core/qc.hpp"
#include "engine/engine.hpp"
#include "ledger.hpp"
#include "metrics.hpp"
#include "service/service.hpp"
#include "stats.hpp"

namespace {

using namespace biosens;
using e2e::ScopedSpan;
using e2e::Tracer;

// ---------------------------------------------------------------- setup

/// Workers of the engine and the service: nproc - 1 on the 4-core box
/// the benchmark was sized on; the generator runs on the main thread.
constexpr std::size_t kWorkers = 3;

/// Offered rate of poc_sessions, readings/s: about a third of the
/// ~580/s the service sustained on this workload's mix when the
/// benchmark was written. At half, a busy host pushed the workers to
/// their knee and the median reading's latency swung 4x between runs
/// (README.md).
constexpr double kPocRate = 200.0;

/// Root seed of every platform calibration. Calibration is the
/// instrument's set-up, not a workload input, so it does not follow
/// --seed: every run reads through the same calibration lines.
constexpr std::uint64_t kCalibrationSeed = 2012;

/// Set-up repetitions per run; setup_s is their median.
constexpr std::size_t kSetupReps = 7;

/// A closed loop's meas_per_s is the median rate over this many equal
/// slices of the run's batches, so one slow stretch of a shared machine
/// does not move it.
constexpr std::size_t kRateSlices = 9;

/// Latency percentiles are the median over this many consecutive
/// stretches of a run of each stretch's percentile: at 20 s a stretch of
/// poc_sessions holds ~1100 interactive readings, ~11 beyond its p99,
/// and a host stall inside one stretch moves one value, not the metric.
constexpr std::size_t kLatencySlices = 3;

/// Every panel sensor is built with these options; the replay must use
/// the same ones.
const core::MeasurementOptions kOptions{};

/// A catalog sensor with the level range the workloads draw from.
struct PanelSensor {
  const char* catalog_name;
  const char* target;
  double lo_mm;
  double hi_mm;
  double qc_standard_mm;  ///< fixed QC standard of poc_sessions
};

// The cohort panel reads one sample per patient, so the GOD and FET
// channels see the same glucose: the window where both read within QC
// is 0.92-1.05 mM (GOD is linear to 1 mM; below ~0.9 mM the FETs' fits
// cross their intercept). The graphene FET reads that window; the CNT
// FET's fit only recovers glucose above ~2 mM, so it serves the
// poc_sessions patients, whose blood glucose is 4-12 mM.
const std::vector<PanelSensor> kCohortPanel{
    {"MWCNT/Nafion + GOD (this work)", "glucose", 0.92, 1.05, 1.0},
    {"MWCNT/Nafion + LOD (this work)", "lactate", 0.10, 0.90, 0.5},
    {"MWCNT/Nafion + GlOD (this work)", "glutamate", 0.20, 1.40, 1.0},
    {"MWCNT + CYP (cyclophosphamide)", "cyclophosphamide", 0.010, 0.065,
     0.04},
    {"Graphene-PBA FET", "glucose", 0.92, 1.05, 1.0},
};
const std::vector<PanelSensor> kPocSensors{
    {"MWCNT/Nafion + GOD (this work)", "glucose", 0.20, 1.00, 0.60},
    {"MWCNT + CYP (cyclophosphamide)", "cyclophosphamide", 0.010, 0.065,
     0.040},
    {"CNT-BA FET", "glucose", 4.0, 12.0, 7.0},
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool quick = false;
  bool inject_replay_fault = false;
  double rate = 0.0;  ///< poc_sessions offered rate override (probing)
  std::string out_dir;
  long long src_lines = -1;
};

/// Everything a run reports: metric values by name, the JSON counters,
/// informational fields, and failed checks.
struct Report {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<std::pair<std::string, std::string>> info;

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void note(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void note(const std::string& key, double value) {
    note(key, e2e::json_number(value));
  }
};

Expected<core::Platform> build_platform(
    const std::vector<PanelSensor>& sensors) {
  core::Platform platform;
  for (const PanelSensor& s : sensors) {
    auto entry = core::try_entry(s.catalog_name);
    if (!entry) return entry.error();
    platform.add_sensor(entry.value(), kOptions);
  }
  return platform;
}

/// One set-up: construct the engine, build and calibrate the platform.
struct EngineSetup {
  std::unique_ptr<engine::Engine> engine;
  core::Platform platform;
  double setup_s = 0.0;
  double calibrate_s = 0.0;
};

Expected<EngineSetup> setup_engine(const engine::EngineOptions& options,
                                   const std::vector<PanelSensor>& sensors,
                                   std::uint64_t seed) {
  EngineSetup s;
  const double t0 = now_s();
  s.engine = std::make_unique<engine::Engine>(options);
  auto platform = build_platform(sensors);
  if (!platform) return platform.error();
  s.platform = std::move(platform).value();
  const double t1 = now_s();
  if (auto cal = s.platform.try_calibrate_all_batch(*s.engine, seed); !cal) {
    return cal.error();
  }
  const double t2 = now_s();
  s.setup_s = t2 - t0;
  s.calibrate_s = t2 - t1;
  return s;
}

/// Estimated concentration [mM] through a sensor's calibration line,
/// exactly as Platform::try_assay inverts it.
double estimate_mm(const analysis::CalibrationResult& cal, double response_a) {
  return std::max((response_a - cal.fit.intercept) / cal.fit.slope, 0.0);
}

/// Median |estimate - truth| / truth per sensor must stay under this:
/// a reading that far off means the pipeline computes something else.
constexpr double kAccuracyBound = 0.25;

void check_accuracy(Report& report,
                    const std::map<std::string, std::vector<double>>& errors) {
  for (const auto& [sensor, rel] : errors) {
    const double med = e2e::median(rel);
    report.note("median_rel_error." + sensor, med);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "median relative error of %s is %.3f (bound %.2f)",
                  sensor.c_str(), med, kAccuracyBound);
    report.check(med <= kAccuracyBound, buf);
  }
}

/// Per-layer metrics every workload reports; a layer a workload does not
/// reach reads 0 (its path never calls it).
void zero_per_layer(Report& report) {
  for (const e2e::MetricDef& m : e2e::kPerLayer) {
    report.metrics[std::string(m.name)] = 0.0;
  }
}

/// Folds a traced run's ledger into its metrics, prints it, checks it
/// (bit-equality always; the closure bound outside quick mode, whose
/// few items make timings too coarse), and writes the spans out.
void fold_ledger(const Args& args, const e2e::Ledger& ledger,
                 const Tracer& tracer, Report& report) {
  const e2e::LedgerRow& all = ledger.all;
  report.metrics["electrochem.sim_us"] = all.layer_us[2];
  report.metrics["fet.transduce_us"] = all.layer_us[3];
  report.metrics["readout.acquire_us"] = all.layer_us[4];
  report.metrics["analysis.reduce_us"] = all.layer_us[5];
  report.metrics["engine.cache_lookup_us"] = all.layer_us[1];
  report.metrics["engine.cache_key_us"] = ledger.key_probe_us;
  report.metrics["core.measure_us"] = all.measure_us;
  report.metrics["core.unattributed_us"] = all.unattributed_us();
  report.metrics["ledger.unattributed_pct"] = all.unattributed_pct();
  report.metrics["replay.items"] = static_cast<double>(all.items);
  report.metrics["transport.node_steps"] =
      static_cast<double>(ledger.counts.node_steps);

  std::printf("\nledger (mean self time per replayed measurement, us; "
              "bound |unattributed| <= %.0f%% of core.measure)\n",
              e2e::kLedgerBoundPct);
  std::printf("  %-7s %5s %11s", "family", "items", "core.measure");
  for (const char* layer : e2e::kLedgerLayers) std::printf(" %11.11s", layer);
  std::printf(" %9s %6s  %s\n", "unattrib", "%", "dominant");
  const auto row = [](const std::string& label, const e2e::LedgerRow& r) {
    std::printf("  %-7s %5llu %11.2f", label.c_str(),
                static_cast<unsigned long long>(r.items), r.measure_us);
    for (double v : r.layer_us) std::printf(" %11.2f", v);
    std::printf(" %9.2f %6.1f  %s\n", r.unattributed_us(),
                r.unattributed_pct(), r.dominant_layer());
  };
  for (const auto& [family, r] : ledger.by_family) {
    row(std::string(e2e::to_string(family)), r);
    report.note("dominant_layer." + std::string(e2e::to_string(family)),
                e2e::json_string(r.dominant_layer()));
    report.note("measure_us." + std::string(e2e::to_string(family)),
                r.measure_us);
  }
  row("all", all);
  std::printf("  replay: %llu sims, %llu node-steps, %llu cache lookups "
              "(%llu hits)\n",
              static_cast<unsigned long long>(ledger.counts.sims),
              static_cast<unsigned long long>(ledger.counts.node_steps),
              static_cast<unsigned long long>(ledger.counts.lookups),
              static_cast<unsigned long long>(ledger.counts.hits));

  report.check(ledger.mismatches == 0,
               "replay bit-equality failed (" +
                   std::to_string(ledger.mismatches) +
                   " mismatches): " + ledger.first_mismatch);
  if (!args.quick) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "ledger open: |unattributed| is %.1f%% of core.measure_us "
                  "(bound %.0f%%)",
                  all.unattributed_pct(), e2e::kLedgerBoundPct);
    report.check(all.unattributed_pct() <= e2e::kLedgerBoundPct, buf);
  }
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".jsonl";
    report.check(tracer.write_jsonl(path), "cannot write " + path);
    report.note("spans_file", e2e::json_string(path));
  }
}

// ------------------------------------------------------- cohort workloads

/// Canonical bytes of a panel batch: every result's response and
/// estimate as bit patterns, QC verdicts, and job outcomes.
std::string fingerprint(const core::PanelBatchResult& result) {
  std::string out;
  char buf[96];
  for (const core::PanelReport& report : result.reports) {
    for (const core::AssayResult& r : report.results) {
      std::uint64_t resp = 0;
      std::uint64_t est = 0;
      const double est_mm = r.estimated.milli_molar();
      std::memcpy(&resp, &r.response_a, sizeof(resp));
      std::memcpy(&est, &est_mm, sizeof(est));
      std::snprintf(buf, sizeof(buf), "%s:%016llx:%016llx:%d%d%d;",
                    r.target.c_str(), static_cast<unsigned long long>(resp),
                    static_cast<unsigned long long>(est),
                    r.qc.accepted ? 1 : 0, r.within_linear_range ? 1 : 0,
                    r.above_lod ? 1 : 0);
      out += buf;
    }
  }
  for (const engine::JobReport& j : result.jobs) {
    std::snprintf(buf, sizeof(buf), "j%zu:%zu:%d:%d;", j.index, j.attempts,
                  j.accepted ? 1 : 0, j.error.has_value() ? 1 : 0);
    out += buf;
  }
  return out;
}

chem::Sample panel_sample(const std::vector<PanelSensor>& panel, Rng& rng,
                          std::map<std::string, double>& truth) {
  chem::Sample sample;
  for (const PanelSensor& s : panel) {
    if (truth.count(s.target) == 0) {
      truth[s.target] = rng.uniform(s.lo_mm, s.hi_mm);
      sample.set(s.target, Concentration::milli_molar(truth[s.target]));
    }
  }
  return sample;
}

struct Batch {
  std::vector<chem::Sample> samples;
  std::vector<std::map<std::string, double>> truth;
  std::uint64_t seed = 0;
};

/// Patients per cohort_warm batch. A batch must run long against a
/// scheduler tick: at 16 patients (~4.5 ms) one descheduled worker
/// doubled a batch and the batch p99 followed the host's load; at 64
/// (~17 ms) the other workers absorb a stall.
constexpr std::size_t kWarmPatients = 64;

Report run_cohort(const Args& args, bool warm) {
  Report report;
  zero_per_layer(report);
  const std::size_t patients = args.quick ? 4 : (warm ? kWarmPatients : 8);
  const std::size_t compositions = args.quick ? 8 : 36;
  const std::vector<PanelSensor>& panel = kCohortPanel;

  engine::EngineOptions options;
  options.workers = kWorkers;
  if (warm) options.sim_cache_capacity = 4096;

  // Set-up, several times; the last one serves the run.
  std::vector<double> setup_s;
  std::vector<double> calibrate_s;
  std::optional<EngineSetup> setup;
  for (std::size_t rep = 0; rep < (args.quick ? 1 : kSetupReps); ++rep) {
    setup.reset();
    auto s = setup_engine(options, panel, kCalibrationSeed);
    if (!s) {
      report.check(false, "setup: " + s.error().describe());
      return report;
    }
    setup_s.push_back(s.value().setup_s);
    calibrate_s.push_back(s.value().calibrate_s);
    setup.emplace(std::move(s).value());
  }
  engine::Engine& eng = *setup->engine;
  const core::Platform& platform = setup->platform;

  // Inputs: a pure function of the seed.
  const Rng root(args.seed);
  Rng composition_rng = root.child(1);
  std::vector<chem::Sample> fixed;
  std::vector<std::map<std::string, double>> fixed_truth(compositions);
  for (std::size_t c = 0; c < compositions; ++c) {
    fixed.push_back(panel_sample(panel, composition_rng, fixed_truth[c]));
  }
  Rng batch_rng = root.child(2);
  std::uint64_t batch_index = 0;
  const auto make_batch = [&] {
    Batch b;
    b.seed = root.child(3).child(batch_index++).next_u64();
    for (std::size_t p = 0; p < patients; ++p) {
      if (warm) {
        const std::size_t c = batch_rng.uniform_index(compositions);
        b.samples.push_back(fixed[c]);
        b.truth.push_back(fixed_truth[c]);
      } else {
        b.truth.emplace_back();
        b.samples.push_back(panel_sample(panel, batch_rng, b.truth.back()));
      }
    }
    return b;
  };

  std::map<std::string, std::vector<double>> errors;
  const auto account = [&](const Batch& b,
                           const core::PanelBatchResult& result) {
    report.attempted += b.samples.size() * panel.size();
    for (std::size_t i = 0; i < b.samples.size(); ++i) {
      const bool job_ok = !result.jobs[i].error.has_value();
      for (std::size_t k = 0; k < panel.size(); ++k) {
        if (!job_ok || k >= result.reports[i].results.size()) {
          report.failed += 1;
          continue;
        }
        const core::AssayResult& r = result.reports[i].results[k];
        if (!r.qc.accepted) report.failed += 1;
        const double truth = b.truth[i].at(panel[k].target);
        errors[panel[k].catalog_name].push_back(
            std::abs(r.estimated.milli_molar() - truth) / truth);
      }
    }
  };

  if (warm) {
    // Warm-up: every composition once, so the timed loop reads the cache.
    Batch all;
    all.samples = fixed;
    all.truth = fixed_truth;
    all.seed = root.child(4).next_u64();
    core::PanelBatchOptions o;
    o.seed = all.seed;
    const core::PanelBatchResult r =
        platform.run_panel_batch(all.samples, eng, o);
    report.check(r.first_error() == nullptr, "warm-up batch failed");
  }

  // Closed loop: the next batch is due the moment the previous returns.
  std::optional<Batch> first_batch;
  std::optional<core::PanelBatchResult> first_result;
  Tracer tracer;
  struct Phase {
    std::vector<double> latency_s;
    std::vector<double> late_s;
    std::vector<double> work;  ///< measurements per batch
    engine::MetricsSnapshot engine;
  };
  const auto run_phase = [&](double seconds, Tracer* trace) {
    Phase phase;
    eng.reset_metrics();
    const double t0 = now_s();
    double due = t0;
    do {
      const std::uint64_t request = batch_index;
      Batch b;
      {
        const ScopedSpan span(trace, "client.generate", e2e::kNoParent,
                              request);
        b = make_batch();
      }
      const double sent = now_s();
      core::PanelBatchOptions o;
      o.seed = b.seed;
      core::PanelBatchResult result;
      {
        const ScopedSpan span(trace, "engine.run_panel_batch", e2e::kNoParent,
                              request);
        result = platform.run_panel_batch(b.samples, eng, o);
      }
      const double done = now_s();
      phase.latency_s.push_back(done - due);
      phase.late_s.push_back(sent - due);
      phase.work.push_back(
          static_cast<double>(b.samples.size() * panel.size()));
      account(b, result);
      if (!first_batch) {
        // Exact per-batch counters of the first batch.
        const engine::MetricsSnapshot m = eng.snapshot();
        report.metrics["engine.batch_lanes"] =
            static_cast<double>(m.batch_lanes);
        report.metrics["engine.batch_factorizations"] =
            static_cast<double>(m.batch_factorizations);
        first_batch = b;
        first_result = result;
      }
      due = done;
    } while (now_s() - t0 < seconds);
    phase.engine = eng.snapshot();
    return phase;
  };

  std::vector<double> latency_s;
  std::vector<double> late_s;
  double overhead_pct = 0.0;
  double meas_per_s = 0.0;
  engine::MetricsSnapshot traced_engine;
  if (args.trace == 0) {
    const Phase p = run_phase(args.seconds, nullptr);
    latency_s = p.latency_s;
    late_s = p.late_s;
    meas_per_s = e2e::median_slice_rate(p.work, p.latency_s, kRateSlices);
  } else {
    const Phase plain = run_phase(args.seconds / 2, nullptr);
    const Phase traced = run_phase(args.seconds / 2, &tracer);
    overhead_pct = 100.0 * (e2e::median(traced.latency_s) /
                                e2e::median(plain.latency_s) -
                            1.0);
    latency_s = traced.latency_s;
    late_s = traced.late_s;
    traced_engine = traced.engine;
  }

  // Serial reference: the first batch, byte for byte, at workers = 0.
  {
    engine::EngineOptions serial = options;
    serial.workers = 0;
    engine::Engine reference(serial);
    core::PanelBatchOptions o;
    o.seed = first_batch->seed;
    const core::PanelBatchResult r =
        platform.run_panel_batch(first_batch->samples, reference, o);
    const bool same = fingerprint(r) == fingerprint(*first_result);
    report.check(same, "first batch differs from the workers=0 reference");
    std::printf("check: first batch byte-identical to workers=0 reference: "
                "%s\n",
                same ? "yes" : "NO");
  }
  check_accuracy(report, errors);

  if (args.trace == 0) {
    report.metrics.clear();
    report.metrics["meas_per_s"] = meas_per_s;
    report.metrics["latency_p50_ms"] =
        1e3 * e2e::sliced_quantile(latency_s, 0.50, kLatencySlices);
    report.metrics["latency_p99_ms"] =
        1e3 * e2e::sliced_quantile(latency_s, 0.99, kLatencySlices);
    report.metrics["setup_s"] = e2e::median(setup_s);
    report.note("batches", static_cast<double>(latency_s.size()));
    report.note("patients_per_batch", static_cast<double>(patients));
  } else {
    report.metrics["core.calibrate_s"] = e2e::median(calibrate_s);
    report.metrics["gen.late_p99_ms"] = 1e3 * e2e::quantile(late_s, 0.99);
    report.metrics["obs.trace_overhead_pct"] = overhead_pct;
    const std::uint64_t lookups =
        traced_engine.cache_hits + traced_engine.cache_misses;
    report.metrics["engine.cache_hit_ratio"] = traced_engine.cache_hit_rate();
    report.metrics["engine.cache_lookups"] = static_cast<double>(lookups);
    report.metrics["engine.utilization"] =
        traced_engine.utilization() / static_cast<double>(kWorkers);
    report.metrics["engine.queue_wait_ms_p99"] =
        1e3 * traced_engine.queue_p99_s;

    // Replay the first batch, measurement by measurement, with the rng
    // streams its jobs drew from and the cache the jobs read.
    std::vector<e2e::ReplayItem> items;
    const Batch& b = *first_batch;
    for (std::size_t i = 0; i < b.samples.size(); ++i) {
      const engine::JobReport& job = first_result->jobs[i];
      if (job.error.has_value() || job.attempts == 0) continue;
      Rng rng = Rng(b.seed).child(i).child(job.attempts - 1);
      for (std::size_t k = 0; k < panel.size(); ++k) {
        e2e::ReplayItem item;
        item.sensor = &platform.sensor(k);
        item.sample = b.samples[i];
        item.rng = rng;
        item.reported_response_a =
            first_result->reports[i].results[k].response_a;
        items.push_back(item);
        // Advance the panel's stream past this sensor, as try_assay does.
        (void)platform.sensor(k).try_measure(b.samples[i], rng,
                                             eng.sim_cache());
      }
    }
    e2e::ReplayOptions replay;
    replay.rounds = args.quick ? 2 : (warm ? 6 : 3);
    replay.inject_fault = args.inject_replay_fault;
    const e2e::Ledger ledger =
        e2e::run_ledger(items, kOptions, eng.sim_cache(), tracer, replay);
    fold_ledger(args, ledger, tracer, report);
  }
  return report;
}

// ----------------------------------------------------------- poc sessions

/// One patient session of poc_sessions.
struct SessionPlan {
  std::string tenant;
  service::PriorityClass priority = service::PriorityClass::kInteractive;
  std::uint64_t seed = 0;
  std::size_t sensor = 0;  ///< index into kPocSensors and the platform
  double baseline_mm = 0.0;
};

/// What a session's readings did, indexed by measurement index. Written
/// by the worker running the reading (one at a time per session), read
/// after the service is idle.
struct SessionLog {
  std::vector<double> start_s;
  std::vector<double> end_s;
  std::vector<double> level_mm;
  std::vector<double> response_a;
  std::vector<char> traced;  ///< set by the generator before submitting
  Tracer* tracer = nullptr;

  explicit SessionLog(std::size_t n)
      : start_s(n), end_s(n), level_mm(n), response_a(n), traced(n, 0) {}
};

/// Session clock advance per reading: a 5-minute CGM interval.
constexpr double kReadingIntervalS = 300.0;

service::SessionBody make_body(const core::BiosensorModel* sensor,
                               const analysis::CalibrationResult* cal,
                               const PanelSensor* range, double baseline_mm,
                               SessionLog* log) {
  return [=](service::SessionContext& c) -> Expected<double> {
    const double start = now_s();
    const std::size_t i = c.index;
    const bool traced = log->tracer != nullptr && i < log->traced.size() &&
                        log->traced[i] != 0;
    const std::int64_t start_ns = traced ? Tracer::now_ns() : 0;
    double& drift = c.state[0];
    drift += 0.03 * (range->hi_mm - range->lo_mm) * c.session_rng.normal();
    double level = std::clamp(baseline_mm + drift, range->lo_mm, range->hi_mm);
    // Every 8th reading is the fixed QC standard.
    if (i % 8 == 7) level = range->qc_standard_mm;
    const chem::Sample sample = chem::calibration_sample(
        range->target, Concentration::milli_molar(level));
    const std::int64_t measure_ns = traced ? Tracer::now_ns() : 0;
    auto m = sensor->try_measure(sample, c.rng);
    if (traced) {
      log->tracer->add("core.measure", e2e::kNoParent, i, measure_ns,
                       Tracer::now_ns());
    }
    if (!m) return m.error();
    const double response = m.value().response_a;
    const core::QcReport qc = core::review_assay(*cal, response);
    if (i < log->start_s.size()) {
      log->level_mm[i] = level;
      log->response_a[i] = response;
      log->start_s[i] = start;
      log->end_s[i] = now_s();
    }
    if (traced) {
      log->tracer->add("service.body", e2e::kNoParent, i, start_ns,
                       Tracer::now_ns());
    }
    if (!qc.accepted) {
      return make_error(ErrorCode::kQcReject, Layer::kService, "reading qc",
                        qc.summary);
    }
    return estimate_mm(*cal, response);
  };
}

service::ServiceOptions service_options() {
  service::ServiceOptions o;
  o.workers = kWorkers;
  return o;
}

/// Opens the planned sessions on `svc`, each logging into `logs`.
Expected<std::vector<service::SessionId>> open_sessions(
    service::SimulationService& svc, const std::vector<SessionPlan>& plans,
    const core::Platform& platform,
    std::vector<std::unique_ptr<SessionLog>>& logs) {
  std::vector<service::SessionId> ids;
  for (std::size_t s = 0; s < plans.size(); ++s) {
    const SessionPlan& p = plans[s];
    service::SessionOptions o;
    o.tenant = p.tenant;
    o.priority = p.priority;
    o.seed = p.seed;
    o.initial_state = {0.0};
    o.body = make_body(&platform.sensor(p.sensor),
                       &platform.calibration(p.sensor),
                       &kPocSensors[p.sensor], p.baseline_mm, logs[s].get());
    auto id = svc.try_open_session(std::move(o));
    if (!id) return id.error();
    ids.push_back(id.value());
  }
  return ids;
}

/// Runs `readings` readings per session, closed loop, on a fresh service
/// and returns every session's encoded snapshot plus its records.
struct SnapshotRun {
  std::vector<std::string> snapshots;
  std::vector<std::vector<service::MeasurementRecord>> records;
};

Expected<SnapshotRun> snapshot_run(const std::vector<SessionPlan>& plans,
                                   const core::Platform& platform,
                                   std::size_t readings) {
  std::vector<std::unique_ptr<SessionLog>> logs;
  for (std::size_t s = 0; s < plans.size(); ++s) {
    logs.push_back(std::make_unique<SessionLog>(readings));
  }
  SnapshotRun out;
  service::SimulationService svc(service_options());
  auto ids = open_sessions(svc, plans, platform, logs);
  if (!ids) return ids.error();
  for (std::size_t r = 0; r < readings; ++r) {
    for (service::SessionId id : ids.value()) {
      if (auto a = svc.try_advance_time(id, kReadingIntervalS); !a) {
        return a.error();
      }
      if (auto s = svc.try_submit_measurement(id); !s) return s.error();
    }
  }
  svc.wait_all_idle();
  svc.drain();
  for (service::SessionId id : ids.value()) {
    auto snap = svc.try_snapshot(id);
    if (!snap) return snap.error();
    out.snapshots.push_back(snap.value().encode());
    out.records.push_back(snap.value().records);
  }
  return out;
}

void wait_until(double t) {
  for (;;) {
    const double ahead = t - now_s();
    if (ahead <= 0.0) return;
    if (ahead > 300e-6) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(ahead - 150e-6));
    } else {
      std::this_thread::yield();
    }
  }
}

Report run_poc(const Args& args) {
  Report report;
  zero_per_layer(report);
  const std::size_t sessions = args.quick ? 6 : 24;
  const double rate =
      args.rate > 0.0 ? args.rate : (args.quick ? 40.0 : kPocRate);

  // Set-up: calibrate the session sensors on an engine, construct the
  // service; several times, the last one serves the run.
  std::vector<double> setup_s;
  std::vector<double> calibrate_s;
  std::optional<core::Platform> platform;
  std::unique_ptr<service::SimulationService> svc;
  for (std::size_t rep = 0; rep < (args.quick ? 1 : kSetupReps); ++rep) {
    svc.reset();
    engine::EngineOptions eo;
    eo.workers = kWorkers;
    auto s = setup_engine(eo, kPocSensors, kCalibrationSeed);
    if (!s) {
      report.check(false, "setup: " + s.error().describe());
      return report;
    }
    const double t0 = now_s();
    svc = std::make_unique<service::SimulationService>(service_options());
    setup_s.push_back(s.value().setup_s + (now_s() - t0));
    calibrate_s.push_back(s.value().calibrate_s);
    platform.emplace(std::move(s.value().platform));
  }

  // Inputs from the seed: the session roster and the arrival schedule.
  const Rng root(args.seed);
  Rng roster_rng = root.child(1);
  std::vector<SessionPlan> plans;
  const char* const interactive[] = {"clinic-a", "clinic-b", "ward-c"};
  for (std::size_t s = 0; s < sessions; ++s) {
    SessionPlan p;
    // Three interactive tenants, the last sixth of the sessions bulk.
    // Sensors cycle GOD, CV, FET: 7/7/6 of the 20 interactive sessions,
    // so the interactive median falls inside the CV readings and the
    // p99 inside the GOD ones.
    const bool bulk = s >= sessions - sessions / 6;
    p.tenant = bulk ? "lab-bulk" : interactive[s % 3];
    p.priority = bulk ? service::PriorityClass::kBulk
                      : service::PriorityClass::kInteractive;
    p.seed = roster_rng.next_u64();
    p.sensor = s % kPocSensors.size();
    const PanelSensor& range = kPocSensors[p.sensor];
    const double span = range.hi_mm - range.lo_mm;
    p.baseline_mm = roster_rng.uniform(range.lo_mm + 0.2 * span,
                                       range.hi_mm - 0.2 * span);
    plans.push_back(p);
  }
  struct Arrival {
    double due_s = 0.0;  ///< offset from the run's start
    std::size_t session = 0;
  };
  std::vector<Arrival> arrivals;
  std::vector<std::size_t> per_session(sessions, 0);
  // A Poisson process conditioned on its count: rate x seconds arrival
  // times, uniform over the run, so every seed offers the same load.
  Rng schedule_rng = root.child(2);
  const auto count =
      static_cast<std::size_t>(std::llround(rate * args.seconds));
  for (std::size_t a = 0; a < count; ++a) {
    arrivals.push_back({schedule_rng.uniform(0.0, args.seconds),
                        schedule_rng.uniform_index(sessions)});
    per_session[arrivals.back().session] += 1;
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& x, const Arrival& y) {
              return x.due_s < y.due_s;
            });

  Tracer tracer;
  std::vector<std::unique_ptr<SessionLog>> logs;
  for (std::size_t s = 0; s < sessions; ++s) {
    logs.push_back(std::make_unique<SessionLog>(per_session[s]));
    if (args.trace == 1) logs.back()->tracer = &tracer;
  }
  auto ids = open_sessions(*svc, plans, *platform, logs);
  if (!ids) {
    report.check(false, "open sessions: " + ids.error().describe());
    return report;
  }

  // Open loop: each reading is sent when due, whatever is in flight.
  struct Sent {
    double sent_s = 0.0;
    std::uint64_t index = 0;
    bool submitted = false;
  };
  std::vector<Sent> sent(arrivals.size());
  std::vector<std::uint64_t> next_index(sessions, 0);
  std::vector<double> submit_us_traced;
  std::uint64_t overloaded = 0;
  const double traced_from = args.trace == 1 ? args.seconds / 2 : 1e300;
  const double t0 = now_s() + 0.02;
  for (std::size_t a = 0; a < arrivals.size(); ++a) {
    const Arrival& arr = arrivals[a];
    wait_until(t0 + arr.due_s);
    const std::size_t s = arr.session;
    const bool traced = arr.due_s >= traced_from;
    if (traced && next_index[s] < logs[s]->traced.size()) {
      logs[s]->traced[next_index[s]] = 1;
    }
    sent[a].sent_s = now_s();
    if (auto adv = svc->try_advance_time(ids.value()[s], kReadingIntervalS);
        !adv) {
      continue;
    }
    const std::int64_t submit_ns = Tracer::now_ns();
    auto idx = svc->try_submit_measurement(ids.value()[s]);
    const std::int64_t submitted_ns = Tracer::now_ns();
    if (traced) {
      tracer.add("service.submit", e2e::kNoParent, a, submit_ns, submitted_ns);
      submit_us_traced.push_back(
          static_cast<double>(submitted_ns - submit_ns) / 1e3);
    }
    if (!idx) {
      if (idx.error().code == ErrorCode::kOverloaded) ++overloaded;
      continue;
    }
    sent[a].submitted = true;
    sent[a].index = idx.value();
    report.check(idx.value() == next_index[s],
                 "service returned an unexpected measurement index");
    next_index[s] = idx.value() + 1;
  }
  svc->wait_all_idle();

  // Gather outcomes from the sessions' own record streams.
  std::vector<std::vector<service::MeasurementRecord>> streams;
  for (service::SessionId id : ids.value()) {
    auto stream = svc->try_stream(id);
    if (!stream) {
      report.check(false, "stream: " + stream.error().describe());
      return report;
    }
    streams.push_back(std::move(stream).value());
  }
  // Latency is the clinician's wait: interactive readings. Bulk readings
  // yield to them by design, so their latency is reported beside it.
  std::vector<e2e::OpenLoopRequest> requests;
  std::vector<e2e::OpenLoopRequest> bulk_requests;
  std::vector<double> queue_ms_plain;
  std::vector<double> queue_ms_traced;
  std::vector<double> exec_ms_plain;
  std::vector<double> exec_ms_traced;
  std::map<std::string, std::vector<double>> errors;
  double last_done = t0;
  std::uint64_t completed = 0;
  for (std::size_t a = 0; a < arrivals.size(); ++a) {
    const std::size_t s = arrivals[a].session;
    e2e::OpenLoopRequest r;
    r.due_s = t0 + arrivals[a].due_s;
    r.sent_s = sent[a].sent_s;
    r.ok = false;
    if (sent[a].submitted && sent[a].index < streams[s].size()) {
      const std::size_t i = sent[a].index;
      const service::MeasurementRecord& rec = streams[s][i];
      const SessionLog& log = *logs[s];
      r.ok = rec.ok;
      r.done_s = log.end_s[i];
      if (rec.ok) {
        ++completed;
        last_done = std::max(last_done, r.done_s);
        const double truth = log.level_mm[i];
        errors[kPocSensors[plans[s].sensor].catalog_name].push_back(
            std::abs(rec.value - truth) / truth);
        if (plans[s].priority == service::PriorityClass::kInteractive) {
          const bool traced = log.traced[i] != 0;
          (traced ? queue_ms_traced : queue_ms_plain)
              .push_back(1e3 * (log.start_s[i] - r.sent_s));
          (traced ? exec_ms_traced : exec_ms_plain)
              .push_back(1e3 * (log.end_s[i] - log.start_s[i]));
        }
      }
    }
    (plans[s].priority == service::PriorityClass::kBulk ? bulk_requests
                                                        : requests)
        .push_back(r);
  }
  const e2e::OpenLoopSummary summary =
      e2e::summarize_open_loop(requests, kLatencySlices);
  const e2e::OpenLoopSummary bulk =
      e2e::summarize_open_loop(bulk_requests, kLatencySlices);
  report.attempted = requests.size() + bulk_requests.size();
  report.failed = summary.failed + bulk.failed;
  report.note("interactive_readings", static_cast<double>(requests.size()));
  report.note("interactive_beyond_p99",
              static_cast<double>(summary.beyond_p99));
  report.note("bulk_readings", static_cast<double>(bulk_requests.size()));
  report.note("bulk_latency_p50_ms", bulk.latency_p50_ms);
  report.note("bulk_latency_p99_ms", bulk.latency_p99_ms);
  report.note("overloaded", static_cast<double>(overloaded));
  report.note("offered_rate_per_s", rate);
  check_accuracy(report, errors);

  // Snapshot identity: the first readings of a few sessions, twice on
  // fresh services, must encode identically and match the timed run.
  {
    const std::size_t k = 8;
    const std::vector<SessionPlan> subset(
        plans.begin(), plans.begin() + std::min<std::size_t>(6, plans.size()));
    auto a = snapshot_run(subset, *platform, k);
    auto b = snapshot_run(subset, *platform, k);
    bool same = a.has_value() && b.has_value() &&
                a.value().snapshots == b.value().snapshots;
    if (same) {
      for (std::size_t s = 0; s < subset.size(); ++s) {
        const std::size_t n = std::min(k, streams[s].size());
        for (std::size_t i = 0; i < n; ++i) {
          same = same && a.value().records[s][i] == streams[s][i];
        }
      }
    }
    report.check(same, "session snapshots differ across two same-seed runs");
    std::printf("check: session snapshots identical across two runs and "
                "match the timed run: %s\n",
                same ? "yes" : "NO");
  }

  if (args.trace == 0) {
    report.metrics.clear();
    report.metrics["meas_per_s"] =
        static_cast<double>(completed) / (last_done - t0);
    report.metrics["latency_p50_ms"] = summary.latency_p50_ms;
    report.metrics["latency_p99_ms"] = summary.latency_p99_ms;
    report.metrics["setup_s"] = e2e::median(setup_s);
  } else {
    report.metrics["core.calibrate_s"] = e2e::median(calibrate_s);
    report.metrics["gen.late_p99_ms"] =
        std::max(summary.late_p99_ms, bulk.late_p99_ms);
    report.metrics["service.submit_us"] = e2e::median(submit_us_traced);
    report.metrics["service.queue_wait_ms_p99"] =
        e2e::quantile(queue_ms_traced, 0.99);
    report.metrics["service.exec_ms_p50"] = e2e::median(exec_ms_traced);
    report.metrics["obs.trace_overhead_pct"] =
        100.0 * (e2e::median(exec_ms_traced) / e2e::median(exec_ms_plain) -
                 1.0);

    // Replay the first readings with the streams their bodies drew from.
    std::vector<e2e::ReplayItem> items;
    const std::size_t limit = args.quick ? 12 : 48;
    for (std::size_t a = 0; a < arrivals.size() && items.size() < limit;
         ++a) {
      const std::size_t s = arrivals[a].session;
      if (!sent[a].submitted || sent[a].index >= streams[s].size()) continue;
      const std::size_t i = sent[a].index;
      if (!streams[s][i].ok) continue;
      const PanelSensor& range = kPocSensors[plans[s].sensor];
      e2e::ReplayItem item;
      item.sensor = &platform->sensor(plans[s].sensor);
      item.sample = chem::calibration_sample(
          range.target, Concentration::milli_molar(logs[s]->level_mm[i]));
      item.rng = Rng(plans[s].seed).child(i);
      item.reported_response_a = logs[s]->response_a[i];
      items.push_back(item);
    }
    e2e::ReplayOptions replay;
    replay.rounds = args.quick ? 2 : 3;
    replay.inject_fault = args.inject_replay_fault;
    const e2e::Ledger ledger =
        e2e::run_ledger(items, kOptions, nullptr, tracer, replay);
    fold_ledger(args, ledger, tracer, report);
  }
  svc.reset();
  return report;
}

// ---------------------------------------------------------------- output

const e2e::MetricDef* find_metric(std::string_view name) {
  for (const e2e::MetricDef& m : e2e::kEndToEnd) {
    if (m.name == name) return &m;
  }
  for (const e2e::MetricDef& m : e2e::kPerLayer) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string manifest() {
  std::string out = "{\n";
  out += "  \"command\": [\"python3\", \"e2ebench/run.py\"],\n";
  out += "  \"paths\": [\"e2ebench\"],\n";
  out += "  \"run_seconds\": 20,\n";
  out += "  \"workloads\": [\n";
  for (std::size_t i = 0; i < e2e::kWorkloads.size(); ++i) {
    const e2e::WorkloadDef& w = e2e::kWorkloads[i];
    out += "    {\"name\": " + e2e::json_string(w.name) + ", \"why\": " +
           e2e::json_string(std::string(w.why) + "; " + std::string(w.shape)) +
           "}" + (i + 1 < e2e::kWorkloads.size() ? ",\n" : "\n");
  }
  out += "  ],\n  \"end_to_end\": [\n";
  for (std::size_t i = 0; i < e2e::kEndToEnd.size(); ++i) {
    const e2e::MetricDef& m = e2e::kEndToEnd[i];
    out += "    {\"name\": " + e2e::json_string(m.name) +
           ", \"unit\": " + e2e::json_string(m.unit) + ", \"better\": " +
           (m.better == e2e::Better::kLower ? "\"lower\"" : "\"higher\"") +
           ", \"bound\": " + e2e::json_number(m.bound) + "}" +
           (i + 1 < e2e::kEndToEnd.size() ? ",\n" : "\n");
  }
  out += "  ],\n  \"per_layer\": [\n";
  for (std::size_t i = 0; i < e2e::kPerLayer.size(); ++i) {
    const e2e::MetricDef& m = e2e::kPerLayer[i];
    out += "    {\"name\": " + e2e::json_string(m.name) +
           ", \"unit\": " + e2e::json_string(m.unit) + ", \"better\": " +
           (m.better == e2e::Better::kLower ? "\"lower\"" : "\"higher\"") +
           "}" + (i + 1 < e2e::kPerLayer.size() ? ",\n" : "\n");
  }
  out += "  ]\n}\n";
  return out;
}

int emit(const Args& args, Report& report) {
  // Exactly the metrics this mode promises, each once.
  const std::vector<e2e::MetricDef> promised =
      args.trace == 0
          ? std::vector<e2e::MetricDef>(e2e::kEndToEnd.begin(),
                                        e2e::kEndToEnd.end())
          : std::vector<e2e::MetricDef>(e2e::kPerLayer.begin(),
                                        e2e::kPerLayer.end());
  if (args.trace == 0) report.metrics["peak_rss_mb"] = peak_rss_mb();
  for (const e2e::MetricDef& m : promised) {
    const auto it = report.metrics.find(std::string(m.name));
    report.check(it != report.metrics.end(),
                 "metric " + std::string(m.name) + " missing");
    if (it != report.metrics.end()) {
      report.check(std::isfinite(it->second),
                   "metric " + std::string(m.name) + " is not finite");
    }
  }
  report.check(report.metrics.size() == promised.size(),
               "unexpected metrics reported");
  report.check(report.attempted > 0, "nothing attempted");

  std::printf("\nworkload %s, seed %llu, %.3g s, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  if (args.src_lines >= 0) {
    report.note("src_lines", static_cast<double>(args.src_lines));
  }
  for (const auto& [key, value] : report.info) {
    std::printf("info %s = %s\n", key.c_str(), value.c_str());
  }
  std::printf("attempted %llu, failed %llu, error_ratio %.6f\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0);
  for (const auto& [name, value] : report.metrics) {
    const e2e::MetricDef* def = find_metric(name);
    std::printf("metric %-28s = %-14.6g %s\n", name.c_str(), value,
                def != nullptr ? std::string(def->unit).c_str() : "?");
  }

  std::string json = "{\"correct\": ";
  json += report.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    const e2e::MetricDef* def = find_metric(name);
    json += first ? "" : ", ";
    first = false;
    json += e2e::json_string(name) +
            ": {\"value\": " + e2e::json_number(value) +
            ", \"unit\": " +
            e2e::json_string(def != nullptr ? def->unit : "?") + "}";
  }
  json += "}}";

  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace) + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::string info = "{";
      for (std::size_t i = 0; i < report.info.size(); ++i) {
        info += (i ? ", " : "") + e2e::json_string(report.info[i].first) +
                ": " + report.info[i].second;
      }
      info += "}";
      std::fprintf(f, "{\"result\": %s, \"info\": %s}\n", json.c_str(),
                   info.c_str());
      std::fclose(f);
    }
  }

  if (!report.problems.empty()) {
    for (const std::string& p : report.problems) {
      std::fprintf(stderr, "bench_e2e: check failed: %s\n", p.c_str());
    }
    return 1;
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload <cohort_cold|cohort_warm|"
               "poc_sessions> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--quick] [--out-dir DIR] [--src-lines N]\n"
               "                 [--rate R] [--inject-replay-fault]\n"
               "       bench_e2e --manifest\n",
               problem);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        a.trace = std::stoi(value());
      } else if (flag == "--out-dir") {
        a.out_dir = value();
      } else if (flag == "--src-lines") {
        a.src_lines = std::stoll(value());
      } else if (flag == "--rate") {
        a.rate = std::stod(value());
      } else if (flag == "--quick") {
        a.quick = true;
      } else if (flag == "--inject-replay-fault") {
        a.inject_replay_fault = true;
      } else if (flag == "--manifest") {
        std::fputs(manifest().c_str(), stdout);
        std::exit(0);
      } else {
        usage(("unknown argument " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) usage("--seconds out of range");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
  }

  // The catalog's inverse design runs once per process; keep it out of
  // the set-up timing, and report it.
  const double t0 = now_s();
  for (const auto* sensors : {&kCohortPanel, &kPocSensors}) {
    for (const PanelSensor& s : *sensors) {
      if (!core::try_entry(s.catalog_name)) {
        std::fprintf(stderr, "bench_e2e: no catalog entry '%s'\n",
                     s.catalog_name);
        return 1;
      }
    }
  }
  const double catalog_s = now_s() - t0;

  Report report;
  if (args.workload == "cohort_cold") {
    report = run_cohort(args, false);
  } else if (args.workload == "cohort_warm") {
    report = run_cohort(args, true);
  } else if (args.workload == "poc_sessions") {
    report = run_poc(args);
  } else {
    usage(("unknown workload '" + args.workload + "'").c_str());
  }
  report.note("catalog_s", catalog_s);
  return emit(args, report);
}
