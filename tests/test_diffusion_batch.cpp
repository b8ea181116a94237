// Batched SoA diffusion stepper: per-lane bit-identity against K
// independent DiffusionFields across mixed boundary schedules, plus the
// engine-level guarantee that cohort batching is byte-invisible — panel
// and calibration batches produce identical bytes with the lockstep
// prefill on or off, at any worker count, cache on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "transport/diffusion.hpp"
#include "transport/diffusion_batch.hpp"

namespace biosens::core {
namespace {

using transport::DiffusionField;
using transport::DiffusionFieldBatch;
using transport::DiffusionGrid;

// --- lane-by-lane identity vs independent serial fields -------------

/// Randomized cohort: per-lane bulks, Michaelis-Menten parameters, and
/// affine production terms.
struct Cohort {
  std::vector<Concentration> bulks;
  std::vector<double> vmax, km, production;
};

Cohort make_cohort(std::size_t lanes, std::uint64_t seed) {
  Cohort cohort;
  Rng rng(seed);
  for (std::size_t k = 0; k < lanes; ++k) {
    cohort.bulks.push_back(
        Concentration::milli_molar(rng.uniform(0.1, 2.0)));
    cohort.vmax.push_back(rng.uniform(1e-7, 5e-6));
    cohort.km.push_back(rng.uniform(0.2, 2.0));
    cohort.production.push_back(rng.uniform(0.0, 1e-6));
  }
  return cohort;
}

class BatchIdentity : public ::testing::TestWithParam<int> {};

TEST_P(BatchIdentity, MixedScheduleMatchesSerialFieldsBitwise) {
  const auto lanes = static_cast<std::size_t>(GetParam());
  const Diffusivity d = Diffusivity::m2_per_s(6.7e-10);
  const DiffusionGrid grid{200e-6, 48};
  const Cohort cohort = make_cohort(lanes, 7000 + lanes);

  DiffusionFieldBatch batch(d, grid, cohort.bulks);
  std::vector<DiffusionField> serial;
  serial.reserve(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    serial.emplace_back(d, grid, cohort.bulks[k]);
  }

  const auto mm_flux = [&](std::size_t k, double surface_mm) {
    const double c = std::max(surface_mm, 0.0);
    return cohort.vmax[k] * c / (cohort.km[k] + c);
  };

  std::vector<double> flux(lanes, 0.0);
  const auto lockstep_reactive = [&](Time dt, int steps) {
    for (int s = 0; s < steps; ++s) {
      batch.step_reactive_surface(dt, mm_flux, flux);
      for (std::size_t k = 0; k < lanes; ++k) {
        const double reference = serial[k].step_reactive_surface(
            dt, [&](double c) { return mm_flux(k, c); });
        // Bit-identity across the whole flux history, not closeness.
        ASSERT_EQ(flux[k], reference) << "reactive lane " << k;
      }
    }
  };

  const Time dt = Time::milliseconds(25.0);
  lockstep_reactive(dt, 25);

  for (int s = 0; s < 10; ++s) {
    batch.step_clamped_surface(dt, Concentration::milli_molar(0.0), flux);
    for (std::size_t k = 0; k < lanes; ++k) {
      const double reference = serial[k].step_clamped_surface(
          dt, Concentration::milli_molar(0.0));
      ASSERT_EQ(flux[k], reference) << "clamped lane " << k;
    }
  }

  constexpr double kAffineRate = 1.5e-4;
  for (int s = 0; s < 10; ++s) {
    batch.step_affine_surface(dt, kAffineRate, cohort.production, flux);
    for (std::size_t k = 0; k < lanes; ++k) {
      const double reference = serial[k].step_affine_surface(
          dt, kAffineRate, cohort.production[k]);
      ASSERT_EQ(flux[k], reference) << "affine lane " << k;
    }
  }

  // dt change invalidates the shared factorization exactly once.
  lockstep_reactive(Time::milliseconds(10.0), 15);

  for (std::size_t k = 0; k < lanes; ++k) {
    const std::vector<double> profile = batch.profile_milli_molar(k);
    const std::span<const double> reference =
        serial[k].profile_milli_molar();
    ASSERT_EQ(profile.size(), reference.size());
    for (std::size_t i = 0; i < profile.size(); ++i) {
      ASSERT_EQ(profile[i], reference[i])
          << "profile lane " << k << " node " << i;
    }
    EXPECT_EQ(batch.surface_concentration(k).milli_molar(),
              serial[k].surface_concentration().milli_molar());
  }

  // Four boundary/dt regimes -> four shared factorizations for the
  // WHOLE batch; each serial field paid the same count on its own.
  EXPECT_EQ(batch.factorizations(), 4u);
  for (const DiffusionField& field : serial) {
    EXPECT_EQ(field.factorizations(), 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(CohortSizes, BatchIdentity,
                         ::testing::Values(1, 3, 8, 17));

TEST(DiffusionFieldBatch, ResetMatchesFreshConstruction) {
  const Diffusivity d = Diffusivity::m2_per_s(6.7e-10);
  const DiffusionGrid grid{100e-6, 32};
  const Cohort first = make_cohort(5, 21);
  const Cohort second = make_cohort(5, 22);

  DiffusionFieldBatch reused(d, grid, first.bulks);
  std::vector<double> flux(5, 0.0);
  reused.step_clamped_surface(Time::milliseconds(10.0),
                              Concentration::milli_molar(0.0), flux);
  reused.reset(second.bulks);

  const DiffusionFieldBatch fresh(d, grid, second.bulks);
  for (std::size_t k = 0; k < 5; ++k) {
    const std::vector<double> a = reused.profile_milli_molar(k);
    const std::vector<double> b = fresh.profile_milli_molar(k);
    EXPECT_EQ(a, b);
    EXPECT_EQ(reused.bulk(k).milli_molar(), second.bulks[k].milli_molar());
  }
}

TEST(DiffusionFieldBatch, RejectsInvalidConstructionAndShapes) {
  const std::vector<Concentration> one = {Concentration::milli_molar(1.0)};
  EXPECT_THROW(DiffusionFieldBatch(Diffusivity::m2_per_s(0.0),
                                   DiffusionGrid{25e-6, 50}, one),
               SpecError);
  EXPECT_THROW(DiffusionFieldBatch(Diffusivity::m2_per_s(6.7e-10),
                                   DiffusionGrid{25e-6, 2}, one),
               SpecError);
  EXPECT_THROW(DiffusionFieldBatch(Diffusivity::m2_per_s(6.7e-10),
                                   DiffusionGrid{0.0, 50}, one),
               SpecError);
  EXPECT_THROW(DiffusionFieldBatch(Diffusivity::m2_per_s(6.7e-10),
                                   DiffusionGrid{25e-6, 50},
                                   std::vector<Concentration>{}),
               SpecError);
  EXPECT_THROW(
      DiffusionFieldBatch(Diffusivity::m2_per_s(6.7e-10),
                          DiffusionGrid{25e-6, 50},
                          std::vector<Concentration>{
                              Concentration::milli_molar(-1.0)}),
      SpecError);

  DiffusionFieldBatch batch(Diffusivity::m2_per_s(6.7e-10),
                            DiffusionGrid{25e-6, 50}, one);
  std::vector<double> wrong_size(2, 0.0);
  EXPECT_THROW(batch.step_clamped_surface(Time::milliseconds(10.0),
                                          Concentration::milli_molar(0.0),
                                          wrong_size),
               NumericsError);
  EXPECT_THROW((void)batch.profile_milli_molar(1), NumericsError);
}

// --- engine-level byte-invisibility ---------------------------------

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

/// Bit-exact textual fingerprint (%.17g round-trips IEEE doubles).
std::string fingerprint(const std::vector<PanelReport>& reports) {
  std::string out;
  char cell[96];
  for (const PanelReport& report : reports) {
    for (const AssayResult& r : report.results) {
      std::snprintf(cell, sizeof(cell), "%s|%.17g|%.17g|%d|%d|%d;",
                    r.target.c_str(), r.response_a,
                    r.estimated.milli_molar(), r.within_linear_range ? 1 : 0,
                    r.above_lod ? 1 : 0, r.qc.accepted ? 1 : 0);
      out += cell;
    }
    out += '\n';
  }
  return out;
}

std::string calibration_fingerprint(const Platform& platform) {
  std::string out;
  char cell[160];
  for (std::size_t i = 0; i < platform.sensor_count(); ++i) {
    const analysis::CalibrationResult& c = platform.calibration(i);
    std::snprintf(cell, sizeof(cell), "%.17g|%.17g|%.17g|%.17g|%.17g|%zu;",
                  c.fit.slope, c.fit.intercept, c.lod.milli_molar(),
                  c.linear_range_high.milli_molar(), c.blank_sigma_a,
                  c.points_in_linear_region);
    out += cell;
  }
  return out;
}

class CohortBatchingPanels : public ::testing::Test {
 protected:
  void SetUp() override {
    platform_ = small_platform();
    Rng rng(2012);
    platform_.try_calibrate_all(rng, quick_options()).value();

    // Six distinct compositions, each presented twice — duplicates must
    // collapse into one batch lane, like repeat patients in a cohort.
    Rng levels(424242);
    for (std::size_t i = 0; i < 6; ++i) {
      chem::Sample s = chem::blank_sample();
      s.set("glucose", Concentration::milli_molar(levels.uniform(0.1, 0.9)));
      s.set("cyclophosphamide",
            Concentration::micro_molar(levels.uniform(20.0, 60.0)));
      samples_.push_back(s);
      samples_.push_back(std::move(s));
    }
  }

  Platform platform_;
  std::vector<chem::Sample> samples_;
};

TEST_F(CohortBatchingPanels, BatchedRoutingIsByteInvisibleAcrossWorkers) {
  PanelBatchOptions options;
  options.seed = 99;

  // Serial per-field reference: cohort batching explicitly off.
  engine::Engine serial(engine::EngineOptions{.cohort_batching = false});
  const std::string reference =
      fingerprint(platform_.run_panel_batch(samples_, serial, options)
                      .reports);
  EXPECT_EQ(serial.snapshot().batch_lanes, 0u);

  for (const std::size_t workers :
       {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    for (const std::size_t capacity : {std::size_t{0}, std::size_t{1024}}) {
      engine::Engine batched(engine::EngineOptions{
          .workers = workers, .sim_cache_capacity = capacity});
      const auto run = platform_.run_panel_batch(samples_, batched, options);
      EXPECT_EQ(fingerprint(run.reports), reference)
          << "cohort batching changed bytes at " << workers << " workers, "
          << "cache capacity " << capacity;
      // The batched stepper really ran: six distinct chrono lanes in
      // one group, one shared factorization for the fixed-dt sweep.
      const engine::MetricsSnapshot snap = batched.snapshot();
      EXPECT_EQ(snap.batch_groups, 1u);
      EXPECT_EQ(snap.batch_lanes, 6u);
      EXPECT_EQ(snap.batch_factorizations, 1u);
    }
  }
}

TEST_F(CohortBatchingPanels, WarmCacheSkipsPrefillLanes) {
  PanelBatchOptions options;
  options.seed = 7;
  engine::Engine cached(engine::EngineOptions{.sim_cache_capacity = 1024});

  const auto cold = platform_.run_panel_batch(samples_, cached, options);
  const engine::MetricsSnapshot after_cold = cached.snapshot();
  EXPECT_EQ(after_cold.batch_lanes, 6u);

  // Every chrono trace is resident now; the prefill finds them and
  // batches nothing, so the lane counter does not move.
  const auto warm = platform_.run_panel_batch(samples_, cached, options);
  const engine::MetricsSnapshot after_warm = cached.snapshot();
  EXPECT_EQ(after_warm.batch_lanes, after_cold.batch_lanes);
  EXPECT_EQ(fingerprint(warm.reports), fingerprint(cold.reports));
}

TEST(CohortBatchingCalibration, BatchCalibrationBytesUnchanged) {
  Platform with_batching = small_platform();
  Platform without_batching = small_platform();

  engine::Engine off(engine::EngineOptions{.cohort_batching = false});
  without_batching.try_calibrate_all_batch(off, 2012, quick_options()).value();
  EXPECT_EQ(off.snapshot().batch_lanes, 0u);

  engine::Engine on(engine::EngineOptions{.workers = 4});
  with_batching.try_calibrate_all_batch(on, 2012, quick_options()).value();
  EXPECT_GT(on.snapshot().batch_lanes, 0u);
  EXPECT_GT(on.snapshot().batch_factorizations, 0u);

  EXPECT_EQ(calibration_fingerprint(with_batching),
            calibration_fingerprint(without_batching));
}

}  // namespace
}  // namespace biosens::core
