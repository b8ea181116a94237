// The engine's central guarantee: batch results are a pure function of
// (seed, job order) — identical for 1 worker, 8 workers, and repeated
// runs. Exercised end-to-end through the platform and workload wiring.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/workloads.hpp"

namespace biosens::core {
namespace {

Platform small_platform() {
  Platform p;
  p.add_sensor(try_entry("MWCNT/Nafion + GOD (this work)").value());
  p.add_sensor(try_entry("MWCNT + CYP (cyclophosphamide)").value());
  return p;
}

ProtocolOptions quick_options() {
  ProtocolOptions o;
  o.blank_repeats = 8;
  o.replicates = 1;
  return o;
}

/// Bit-exact textual fingerprint of a panel report (%.17g round-trips
/// IEEE doubles exactly).
std::string fingerprint(const PanelReport& report) {
  std::string out;
  char cell[64];
  for (const AssayResult& r : report.results) {
    std::snprintf(cell, sizeof(cell), "%s|%.17g|%.17g|%d|%d|%d;",
                  r.target.c_str(), r.response_a,
                  r.estimated.milli_molar(), r.within_linear_range ? 1 : 0,
                  r.above_lod ? 1 : 0, r.qc.accepted ? 1 : 0);
    out += cell;
  }
  return out;
}

std::string fingerprint(const std::vector<PanelReport>& reports) {
  std::string out;
  for (const PanelReport& r : reports) {
    out += fingerprint(r);
    out += '\n';
  }
  return out;
}

std::vector<chem::Sample> spiked_samples(std::size_t count) {
  std::vector<chem::Sample> samples;
  samples.reserve(count);
  Rng levels(424242);
  for (std::size_t i = 0; i < count; ++i) {
    chem::Sample s = chem::blank_sample();
    s.set("glucose",
          Concentration::milli_molar(levels.uniform(0.1, 0.9)));
    s.set("cyclophosphamide",
          Concentration::micro_molar(levels.uniform(20.0, 60.0)));
    samples.push_back(std::move(s));
  }
  return samples;
}

class EngineDeterminism : public ::testing::Test {
 protected:
  void SetUp() override {
    platform_ = small_platform();
    Rng rng(2012);
    platform_.try_calibrate_all(rng, quick_options()).value();
    samples_ = spiked_samples(24);
  }

  Platform platform_;
  std::vector<chem::Sample> samples_;
};

TEST_F(EngineDeterminism, PanelBatchIdenticalForSerialAndEightWorkers) {
  PanelBatchOptions options;
  options.seed = 99;

  engine::Engine serial;  // inline reference execution
  const PanelBatchResult base =
      platform_.run_panel_batch(samples_, serial, options);
  ASSERT_EQ(base.reports.size(), samples_.size());

  for (const std::size_t workers : {1u, 2u, 8u}) {
    engine::Engine parallel(
        engine::EngineOptions{.workers = workers, .queue_capacity = 8});
    const PanelBatchResult run =
        platform_.run_panel_batch(samples_, parallel, options);
    EXPECT_EQ(fingerprint(run.reports), fingerprint(base.reports))
        << "results diverged at " << workers << " workers";
  }
}

TEST_F(EngineDeterminism, RepeatedParallelRunsAreIdentical) {
  PanelBatchOptions options;
  options.seed = 7;
  engine::Engine a(engine::EngineOptions{.workers = 8});
  engine::Engine b(engine::EngineOptions{.workers = 8});
  const auto first = platform_.run_panel_batch(samples_, a, options);
  const auto second = platform_.run_panel_batch(samples_, b, options);
  EXPECT_EQ(fingerprint(first.reports), fingerprint(second.reports));
}

TEST_F(EngineDeterminism, DifferentSeedsProduceDifferentNoise) {
  engine::Engine serial;
  PanelBatchOptions a, b;
  a.seed = 1;
  b.seed = 2;
  const auto first = platform_.run_panel_batch(samples_, serial, a);
  const auto second = platform_.run_panel_batch(samples_, serial, b);
  EXPECT_NE(fingerprint(first.reports), fingerprint(second.reports));
}

TEST_F(EngineDeterminism, InstrumentAffinityDoesNotChangeResults) {
  PanelBatchOptions unconstrained;
  unconstrained.seed = 5;
  PanelBatchOptions two_instruments = unconstrained;
  two_instruments.instruments = 2;

  engine::Engine pool(engine::EngineOptions{.workers = 4});
  const auto free_run =
      platform_.run_panel_batch(samples_, pool, unconstrained);
  const auto constrained =
      platform_.run_panel_batch(samples_, pool, two_instruments);
  EXPECT_EQ(fingerprint(free_run.reports),
            fingerprint(constrained.reports));
}

TEST_F(EngineDeterminism, BatchReportsArriveInSampleOrder) {
  engine::Engine pool(engine::EngineOptions{.workers = 8});
  const auto result = platform_.run_panel_batch(samples_, pool, {});
  ASSERT_EQ(result.jobs.size(), samples_.size());
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    EXPECT_EQ(result.jobs[i].index, i);
    EXPECT_EQ(result.jobs[i].name, "panel-" + std::to_string(i));
  }
  EXPECT_TRUE(result.all_accepted());
}

TEST(EngineCalibration, BatchCalibrationIdenticalAcrossWorkerCounts) {
  Platform serial_platform = small_platform();
  engine::Engine serial;
  serial_platform.try_calibrate_all_batch(serial, 2012, quick_options())
      .value();

  Platform parallel_platform = small_platform();
  engine::Engine pool(engine::EngineOptions{.workers = 8});
  parallel_platform.try_calibrate_all_batch(pool, 2012, quick_options())
      .value();

  ASSERT_TRUE(serial_platform.calibrated());
  ASSERT_TRUE(parallel_platform.calibrated());
  for (std::size_t i = 0; i < serial_platform.sensor_count(); ++i) {
    const auto& a = serial_platform.calibration(i);
    const auto& b = parallel_platform.calibration(i);
    EXPECT_EQ(a.fit.slope, b.fit.slope);
    EXPECT_EQ(a.fit.intercept, b.fit.intercept);
    EXPECT_EQ(a.lod.milli_molar(), b.lod.milli_molar());
    EXPECT_EQ(a.blank_sigma_a, b.blank_sigma_a);
  }
}

TEST(EngineCohorts, FixedDoseEngineOverloadMatchesSerialHelperExactly) {
  Rng rng(11);
  const auto cohort = generate_cohort(CohortSpec{.patients = 40}, rng);
  const PharmacokineticModel population(Volume::liters(30.0),
                                        Time::minutes(6.0 * 60.0));
  const auto low = Concentration::micro_molar(20.0);
  const auto high = Concentration::micro_molar(80.0);

  const double serial_value = cohort_fixed_dose_in_window(
      cohort, population, 100.0, 12, Time::minutes(8.0 * 60.0), 260.0, low,
      high);

  engine::Engine pool(engine::EngineOptions{.workers = 8});
  const double engine_value = cohort_fixed_dose_in_window(
      cohort, population, 100.0, 12, Time::minutes(8.0 * 60.0), 260.0, low,
      high, pool);
  EXPECT_DOUBLE_EQ(engine_value, serial_value);

  engine::Engine inline_engine;
  const double inline_value = cohort_fixed_dose_in_window(
      cohort, population, 100.0, 12, Time::minutes(8.0 * 60.0), 260.0, low,
      high, inline_engine);
  EXPECT_DOUBLE_EQ(inline_value, serial_value);
}

TEST(EngineCohorts, MonitoredCohortIdenticalAcrossWorkerCounts) {
  const CatalogEntry entry =
      try_entry("MWCNT + CYP (cyclophosphamide)").value();
  const BiosensorModel sensor(entry.spec);
  Rng cal_rng(11);
  ProtocolOptions options;
  options.blank_repeats = 8;
  options.replicates = 1;
  const CalibrationProtocol protocol(options);
  const auto outcome = protocol.try_run(
      sensor,
      standard_series(entry.published.range_low,
                      entry.published.range_high),
      cal_rng).value();
  const TherapyMonitor monitor(
      sensor, outcome.result.fit.slope, outcome.result.fit.intercept,
      Concentration::micro_molar(20.0), Concentration::micro_molar(50.0),
      entry.published.range_high);

  Rng cohort_rng(3);
  const auto cohort = generate_cohort(CohortSpec{.patients = 16}, cohort_rng);
  const PharmacokineticModel population(Volume::liters(30.0),
                                        Time::minutes(6.0 * 60.0));

  auto run_with = [&](std::size_t workers) {
    engine::Engine engine(engine::EngineOptions{.workers = workers});
    return cohort_monitored_in_window(cohort, monitor, population, 100.0, 8,
                                      Time::minutes(8.0 * 60.0), 260.0,
                                      engine, /*seed=*/2024);
  };
  const double serial = run_with(0);
  EXPECT_DOUBLE_EQ(run_with(1), serial);
  EXPECT_DOUBLE_EQ(run_with(8), serial);
  EXPECT_GE(serial, 0.0);
  EXPECT_LE(serial, 1.0);
}

}  // namespace
}  // namespace biosens::core
