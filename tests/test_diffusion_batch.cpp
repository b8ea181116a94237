// The two batch entry points of core::Platform, whose jobs each
// simulate field by field on their own worker:
//  - a panel batch at any worker count, sim cache on or off, produces
//    the bytes of a serial, uncached engine;
//  - a batch calibration produces, per sensor, the bytes of the
//    uncached protocol run on that sensor's stream, and simulates each
//    distinct sample once: through the engine's cache, or a cache local
//    to the job when the engine has none.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/design.hpp"
#include "core/platform.hpp"
#include "obs/recorder.hpp"

namespace biosens::core {
namespace {

const std::vector<std::string>& panel_names() {
  static const std::vector<std::string> names = {
      "MWCNT/Nafion + GOD (this work)", "MWCNT + CYP (cyclophosphamide)"};
  return names;
}

Platform small_platform() {
  Platform p;
  for (const std::string& name : panel_names()) {
    p.add_sensor(try_entry(name).value());
  }
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

std::string fingerprint(const analysis::CalibrationResult& c) {
  char cell[160];
  std::snprintf(cell, sizeof(cell), "%.17g|%.17g|%.17g|%.17g|%.17g|%zu",
                c.fit.slope, c.fit.intercept, c.lod.milli_molar(),
                c.linear_range_high.milli_molar(), c.blank_sigma_a,
                c.points_in_linear_region);
  return cell;
}

class CohortPanels : public ::testing::Test {
 protected:
  void SetUp() override {
    platform_ = small_platform();
    Rng rng(2012);
    platform_.try_calibrate_all(rng, quick_options()).value();

    // Six distinct compositions, each presented twice, like repeat
    // patients in a cohort.
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

TEST_F(CohortPanels, MatchSerialUncachedEngineAtAnyWorkerCount) {
  PanelBatchOptions options;
  options.seed = 99;

  engine::Engine serial;  // inline, no cache: the reference bytes
  const std::string reference =
      fingerprint(platform_.run_panel_batch(samples_, serial, options)
                      .reports);

  for (const std::size_t workers :
       {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    for (const std::size_t capacity : {std::size_t{0}, std::size_t{1024}}) {
      engine::Engine engine(engine::EngineOptions{
          .workers = workers, .sim_cache_capacity = capacity});
      const auto run = platform_.run_panel_batch(samples_, engine, options);
      EXPECT_EQ(fingerprint(run.reports), reference)
          << "panel bytes changed at " << workers << " workers, "
          << "cache capacity " << capacity;
    }
  }
}

TEST(CalibrationMemo, MatchesUncachedProtocolAndSimulatesEachSampleOnce) {
  constexpr std::uint64_t kSeed = 2012;
  const Platform plain = small_platform();
  const CalibrationProtocol protocol(quick_options());

  // Reference: each sensor's protocol with no cache, on the stream the
  // batch hands job i's first attempt.
  std::vector<std::string> reference;
  std::size_t distinct = 0;
  std::size_t readings = 0;
  for (std::size_t i = 0; i < plain.sensor_count(); ++i) {
    const CatalogEntry entry = try_entry(panel_names()[i]).value();
    const std::vector<Concentration> series = standard_series(
        entry.published.range_low, entry.published.range_high);
    Rng rng = Rng(kSeed).child(i).child(0);
    reference.push_back(fingerprint(
        protocol.try_run(plain.sensor(i), series, rng, nullptr)
            .value()
            .result));
    distinct += series.size() + 1;  // the blank plus each level
    readings += quick_options().blank_repeats +
                series.size() * quick_options().replicates;
  }
  // 2 sensors x (blank + 13 levels) distinct samples in 2 x (8 + 13)
  // readings: 28 simulate, the 14 repeated blanks hit.
  ASSERT_EQ(distinct, 28u);
  ASSERT_EQ(readings, 42u);

  for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    for (const std::size_t capacity : {std::size_t{0}, std::size_t{1024}}) {
      Platform platform = small_platform();
      engine::Engine engine(engine::EngineOptions{
          .workers = workers, .sim_cache_capacity = capacity});
      obs::FlightRecorder recorder;
      recorder.install();
      const Expected<void> calibrated =
          platform.try_calibrate_all_batch(engine, kSeed, quick_options());
      recorder.uninstall();
      ASSERT_TRUE(calibrated.has_value());

      for (std::size_t i = 0; i < platform.sensor_count(); ++i) {
        EXPECT_EQ(fingerprint(platform.calibration(i)), reference[i])
            << "sensor " << i << " at " << workers << " workers, cache "
            << "capacity " << capacity;
      }

      const obs::RecorderDump dump = recorder.dump();
      EXPECT_EQ(dump.overwritten, 0u);
      std::size_t hits = 0;
      std::size_t misses = 0;
      for (const obs::RecorderEvent& e : dump.events) {
        if (e.event.phase != obs::EventPhase::kInstant) continue;
        if (e.event.name == "sim-cache-hit") ++hits;
        if (e.event.name == "sim-cache-miss") ++misses;
      }
      EXPECT_EQ(misses, distinct)
          << workers << " workers, cache capacity " << capacity;
      EXPECT_EQ(hits, readings - distinct)
          << workers << " workers, cache capacity " << capacity;
      if (capacity > 0) {
        EXPECT_EQ(engine.sim_cache()->stats().misses, distinct);
      }
    }
  }
}

}  // namespace
}  // namespace biosens::core
