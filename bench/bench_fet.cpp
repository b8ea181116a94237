// Extended Table 2 / FET — the field-effect backend measured through
// the SAME calibration protocol as every amperometric row, plus the
// FET-vs-amperometric single-measurement throughput comparison
// (docs/transducers.md).
//
// Printed artifacts:
//   - the extended Table 2 FET section (CNT-BA FET arXiv:1304.7253,
//     Graphene-PBA FET arXiv:1808.05557), measured vs published;
//   - throughput of one noisy FET measurement vs one noisy
//     amperometric measurement, cache off and cache warm, with the
//     cache on/off byte-identity asserted inline (any violation exits
//     nonzero — determinism is a gate, not a statistic);
//   - machine-parseable rates for the CI perf smoke
//     (`fet_measurements_per_sec=`, `amperometric_measurements_per_sec=`)
//     gated against the committed "fet" section of BENCH_engine.json.
//
// BIOSENS_SMOKE=1 shrinks the repetition counts and skips the
// google-benchmark timings; the printed rates stay comparable.
#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chem/solution.hpp"
#include "engine/metrics.hpp"
#include "engine/sim_cache.hpp"

namespace {

using namespace biosens;

/// Measurements/sec of the full noisy pipeline for one device, each
/// repetition drawing from its own derived stream (the engine's
/// per-index contract). `cache` may be null (uncached) or warm.
double measurement_rate(const core::BiosensorModel& sensor,
                        const chem::Sample& sample, std::size_t reps,
                        engine::SimCache* cache) {
  const Rng root(1);
  const engine::Stopwatch watch;
  for (std::size_t i = 0; i < reps; ++i) {
    Rng rng = root.child(i);
    benchmark::DoNotOptimize(sensor.try_measure(sample, rng, cache));
  }
  const double wall = watch.elapsed_seconds();
  return wall > 0.0 ? static_cast<double>(reps) / wall : 0.0;
}

/// Cache on/off byte-identity for one device: uncached, cold-cache and
/// warm-cache measurements of the same (sample, seed) must agree to the
/// last bit — the cache may only skip repeated physics, never change a
/// result. Returns false (after printing the offender) on violation.
bool byte_identity_holds(const core::CatalogEntry& entry) {
  const core::BiosensorModel sensor(entry.spec);
  const chem::Sample sample = chem::calibration_sample(
      entry.spec.target, Concentration::milli_molar(2.0));
  engine::SimCache cache(engine::SimCacheOptions{.capacity = 64});
  Rng a(7), b(7), c(7);
  const double uncached = sensor.try_measure(sample, a).value().response_a;
  const double cold =
      sensor.try_measure(sample, b, &cache).value().response_a;
  const double warm =
      sensor.try_measure(sample, c, &cache).value().response_a;
  if (std::memcmp(&uncached, &cold, sizeof(double)) != 0 ||
      std::memcmp(&uncached, &warm, sizeof(double)) != 0) {
    std::fprintf(stderr,
                 "BYTE-IDENTITY VIOLATION on %s: uncached %.17g, "
                 "cold %.17g, warm %.17g\n",
                 entry.spec.name.c_str(), uncached, cold, warm);
    return false;
  }
  return true;
}

void BM_FetSingleMeasurement(benchmark::State& state) {
  const core::BiosensorModel sensor(
      core::try_entry("CNT-BA FET").value().spec);
  const chem::Sample sample =
      chem::calibration_sample("glucose", Concentration::milli_molar(5.0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sensor.try_measure(sample, rng).value());
  }
}
BENCHMARK(BM_FetSingleMeasurement)->Unit(benchmark::kMillisecond);

void BM_FetCalibration(benchmark::State& state) {
  const core::CatalogEntry entry = core::try_entry("CNT-BA FET").value();
  const core::BiosensorModel sensor(entry.spec);
  const core::CalibrationProtocol protocol;
  const auto series = core::standard_series(entry.published.range_low,
                                            entry.published.range_high);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.try_run(sensor, series, rng).value());
  }
}
BENCHMARK(BM_FetCalibration)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("BIOSENS_SMOKE") != nullptr;
  bench::print_banner(
      "Extended Table 2 / FET",
      "field-effect glucose devices through the amperometric protocol");

  // The extended section: same protocol, same printer, new rows.
  Rng rng(2012);
  std::vector<bench::Row> rows;
  for (const core::CatalogEntry& e : core::fet_entries()) {
    rows.push_back(bench::measure_entry(e, rng));
  }
  bench::print_table2_section("FET", rows);

  // Determinism gate before any timing is trusted.
  bool identical = true;
  for (const core::CatalogEntry& e : core::fet_entries()) {
    identical = byte_identity_holds(e) && identical;
  }
  if (!identical) return 1;
  std::printf("\ncache on/off byte-identity: OK (both FET devices)\n");

  // Throughput: one noisy measurement, FET vs amperometric, and the
  // warm-cache rate (transfer-curve physics memoized, noise re-drawn).
  const std::size_t reps = smoke ? 200 : 2000;
  const core::BiosensorModel amp(
      core::try_entry("MWCNT/Nafion + GOD (this work)").value().spec);
  const chem::Sample amp_sample =
      chem::calibration_sample("glucose", Concentration::milli_molar(0.5));
  const core::BiosensorModel fet(core::try_entry("CNT-BA FET").value().spec);
  const chem::Sample fet_sample =
      chem::calibration_sample("glucose", Concentration::milli_molar(5.0));

  const double amp_rate =
      measurement_rate(amp, amp_sample, reps, nullptr);
  const double fet_rate =
      measurement_rate(fet, fet_sample, reps, nullptr);
  engine::SimCache cache(engine::SimCacheOptions{.capacity = 64});
  const double fet_warm = measurement_rate(fet, fet_sample, reps, &cache);

  std::printf(
      "\nthroughput (%zu noisy single measurements each):\n"
      "  amperometric (MWCNT/Nafion + GOD): %10.0f meas/s\n"
      "  field-effect (CNT-BA FET):         %10.0f meas/s  (%.2fx amp)\n"
      "  field-effect, warm sim-cache:      %10.0f meas/s  (%.2fx cold)\n",
      reps, amp_rate, fet_rate, fet_rate / amp_rate, fet_warm,
      fet_warm / fet_rate);
  std::printf("amperometric_measurements_per_sec=%.0f\n", amp_rate);
  std::printf("fet_measurements_per_sec=%.0f\n", fet_rate);

  // JSON record — the "fet" object of the committed BENCH_engine.json.
  char json[512];
  std::snprintf(json, sizeof(json),
                "{\n  \"reps\": %zu,\n"
                "  \"amperometric_meas_per_sec\": %.0f,\n"
                "  \"fet_meas_per_sec\": %.0f,\n"
                "  \"fet_warm_cache_meas_per_sec\": %.0f,\n"
                "  \"byte_identical\": true,\n"
                "  \"smoke\": %s\n}\n",
                reps, amp_rate, fet_rate, fet_warm,
                smoke ? "true" : "false");
  std::printf("\n%s", json);
  if (const char* dir = std::getenv("BIOSENS_EXPORT_DIR")) {
    const std::string path = std::string(dir) + "/fet_throughput.json";
    Table::write_file(path, json);
    std::printf("(exported %s)\n", path.c_str());
  }

  if (smoke) return 0;  // CI gate parses stdout; skip the long timings
  return bench::run_timings(argc, argv);
}
