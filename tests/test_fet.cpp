// The field-effect transducer backend: device physics, noise-model
// determinism, the published-figure reproduction of the two FET catalog
// devices, and the zero-special-case flow of FET sensors through the
// batch engine and the simulation service.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "chem/solution.hpp"
#include "core/catalog.hpp"
#include "core/protocol.hpp"
#include "core/sensor.hpp"
#include "engine/engine.hpp"
#include "engine/sim_cache.hpp"
#include "fet/device.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace biosens {
namespace {

[[nodiscard]] std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

[[nodiscard]] core::BiosensorModel fet_sensor(std::string_view name) {
  return core::BiosensorModel(core::try_entry(name).value().spec);
}

// --- device physics -------------------------------------------------

TEST(FetDevice, BindingShiftIsMonotoneAndSaturates) {
  const fet::DeviceParams p = fet::cnt_boronic_acid_glucose();
  const double s1 =
      p.characteristic_shift(Concentration::milli_molar(1.0)).volts();
  const double s5 =
      p.characteristic_shift(Concentration::milli_molar(5.0)).volts();
  const double s_sat =
      p.characteristic_shift(Concentration::milli_molar(1e5)).volts();
  EXPECT_GT(s1, 0.0);
  EXPECT_GT(s5, s1);
  EXPECT_GT(s_sat, s5);
  // Langmuir saturation: twice the concentration cannot double the
  // shift, and the 100 M shift is within 1% of s_max.
  const double s2 =
      p.characteristic_shift(Concentration::milli_molar(2.0)).volts();
  EXPECT_LT(s2, 2.0 * s1);
  const double s_max = p.characteristic_shift(
      Concentration::milli_molar(1e7)).volts();
  EXPECT_NEAR(s_sat, s_max, 0.01 * s_max);
}

TEST(FetDevice, CntTransferCurveIsPTypeMonotone) {
  const fet::DeviceParams p = fet::cnt_boronic_acid_glucose();
  const fet::TransferCurve curve =
      p.transfer_curve(Concentration::milli_molar(0.0));
  ASSERT_EQ(curve.size(), static_cast<std::size_t>(p.sweep.points));
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LT(curve.drain_current_a[i], curve.drain_current_a[i - 1])
        << "p-type conductance must fall as gate voltage rises (i=" << i
        << ")";
  }
}

TEST(FetDevice, GrapheneTransferCurveIsAmbipolar) {
  const fet::DeviceParams p = fet::graphene_pba_glucose();
  const fet::TransferCurve curve =
      p.transfer_curve(Concentration::milli_molar(0.0));
  ASSERT_EQ(curve.size(), static_cast<std::size_t>(p.sweep.points));
  // Minimum conductance sits at the Dirac point, rising on both sides.
  std::size_t min_i = 0;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (curve.drain_current_a[i] < curve.drain_current_a[min_i]) min_i = i;
  }
  ASSERT_GT(min_i, 0u);
  ASSERT_LT(min_i, curve.size() - 1);
  EXPECT_NEAR(curve.gate_v[min_i], p.v_characteristic.volts(),
              2.0 * (curve.gate_v[1] - curve.gate_v[0]));
  EXPECT_GT(curve.drain_current_a.front(), curve.drain_current_a[min_i]);
  EXPECT_GT(curve.drain_current_a.back(), curve.drain_current_a[min_i]);
}

TEST(FetDevice, BindingRaisesOperatingCurrentOnBothDevices) {
  for (const fet::DeviceParams& p :
       {fet::cnt_boronic_acid_glucose(), fet::graphene_pba_glucose()}) {
    const double blank =
        p.operating_current(Concentration::milli_molar(0.0)).amps();
    const double mid =
        p.operating_current(Concentration::milli_molar(5.0)).amps();
    EXPECT_GT(mid, blank);
  }
}

// --- measurement determinism ---------------------------------------

TEST(Fet, MeasurementIsSeedDeterministic) {
  const core::BiosensorModel sensor = fet_sensor("CNT-BA FET");
  const chem::Sample s = chem::calibration_sample(
      "glucose", Concentration::milli_molar(5.0));
  Rng r1(77), r2(77), r3(78);
  const auto a = sensor.try_measure(s, r1);
  const auto b = sensor.try_measure(s, r2);
  const auto c = sensor.try_measure(s, r3);
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
  EXPECT_EQ(bits(a.value().response_a), bits(b.value().response_a));
  EXPECT_NE(bits(a.value().response_a), bits(c.value().response_a));
  EXPECT_EQ(a.value().technique, core::Technique::kFieldEffectTransfer);
  // An FET measurement carries both raw artifacts: the transfer curve
  // (I-V sweep) and the time-domain hold trace the response is read
  // from; the voltammetric artifacts stay empty.
  EXPECT_FALSE(a.value().transfer.empty());
  EXPECT_FALSE(a.value().trace.empty());
  EXPECT_TRUE(a.value().voltammogram.empty());
}

TEST(Fet, CacheOnAndOffAreByteIdentical) {
  for (const char* name : {"CNT-BA FET", "Graphene-PBA FET"}) {
    const core::BiosensorModel sensor = fet_sensor(name);
    const chem::Sample s = chem::calibration_sample(
        "glucose", Concentration::milli_molar(3.0));
    engine::SimCache cache{engine::SimCacheOptions{}};
    Rng off(41), cold(41), warm(41);
    const auto m_off = sensor.try_measure(s, off, nullptr);
    const auto m_cold = sensor.try_measure(s, cold, &cache);
    const auto m_warm = sensor.try_measure(s, warm, &cache);
    ASSERT_TRUE(m_off.has_value() && m_cold.has_value() &&
                m_warm.has_value())
        << name;
    EXPECT_EQ(bits(m_off.value().response_a),
              bits(m_cold.value().response_a))
        << name;
    EXPECT_EQ(bits(m_off.value().response_a),
              bits(m_warm.value().response_a))
        << name;
  }
}

TEST(Fet, SimulationKeysSeparateDevicesAndConcentrations) {
  const core::BiosensorModel cnt = fet_sensor("CNT-BA FET");
  const core::BiosensorModel gra = fet_sensor("Graphene-PBA FET");
  const chem::Sample a = chem::calibration_sample(
      "glucose", Concentration::milli_molar(1.0));
  const chem::Sample b = chem::calibration_sample(
      "glucose", Concentration::milli_molar(2.0));
  EXPECT_FALSE(cnt.simulation_key(a) == gra.simulation_key(a));
  EXPECT_FALSE(cnt.simulation_key(a) == cnt.simulation_key(b));
  EXPECT_TRUE(cnt.simulation_key(a) == cnt.simulation_key(a));
}

// --- the calibration protocol, unchanged, through the FET backend ----

TEST(Fet, CatalogDevicesReproducePublishedFigures) {
  for (const core::CatalogEntry& e : core::fet_entries()) {
    const core::BiosensorModel sensor(e.spec);
    const core::CalibrationProtocol protocol;
    const auto series = core::standard_series(e.published.range_low,
                                              e.published.range_high);
    std::vector<double> sens, lod;
    for (const std::uint64_t seed : {11u, 22u, 33u}) {
      Rng rng(seed);
      const auto outcome = protocol.try_run(sensor, series, rng);
      ASSERT_TRUE(outcome.has_value())
          << e.spec.name << ": " << outcome.error().describe();
      sens.push_back(
          outcome.value().result.sensitivity.micro_amp_per_milli_molar_cm2());
      lod.push_back(outcome.value().result.lod.milli_molar());
    }
    std::sort(sens.begin(), sens.end());
    std::sort(lod.begin(), lod.end());
    const double pub_sens =
        e.published.sensitivity.micro_amp_per_milli_molar_cm2();
    const double pub_lod = e.published.lod.value().milli_molar();
    EXPECT_NEAR(sens[1], pub_sens, 0.25 * pub_sens) << e.spec.name;
    EXPECT_GT(lod[1], 0.2 * pub_lod) << e.spec.name;
    EXPECT_LT(lod[1], 2.5 * pub_lod) << e.spec.name;
  }
}

// --- the extended Table 2 gate ---------------------------------------

TEST(Fet, ExtendedCatalogMixesAmperometricAndFetRows) {
  const auto full = core::full_catalog();
  const auto extended = core::extended_catalog();
  EXPECT_EQ(full.size(), 18u);  // the paper's own Table 2 is untouched
  ASSERT_EQ(extended.size(), 20u);
  std::size_t fet_rows = 0;
  for (const core::CatalogEntry& e : extended) {
    if (e.spec.technique == core::Technique::kFieldEffectTransfer) {
      ++fet_rows;
      EXPECT_TRUE(e.spec.fet.has_value()) << e.spec.name;
      EXPECT_EQ(core::BiosensorModel(e.spec).transduction(),
                classify::Transduction::kFieldEffect)
          << e.spec.name;
    }
  }
  EXPECT_GE(fet_rows, 2u);
  EXPECT_EQ(core::try_entry("CNT-BA FET").value().spec.target, "glucose");
  EXPECT_EQ(core::try_entry("Graphene-PBA FET").value().spec.target,
            "glucose");
}

// --- engine batches: FET jobs next to amperometric jobs --------------

TEST(Fet, MixedBatchIsWorkerCountInvariant) {
  // One amperometric and two FET sensors, four samples each; results
  // must be bit-identical serial vs 8 workers (with the engine's shared
  // SimCache on in the threaded run, exercising concurrent FET lookups).
  std::vector<core::BiosensorModel> sensors;
  sensors.push_back(core::BiosensorModel(
      core::try_entry("MWCNT/Nafion + GOD (this work)").value().spec));
  sensors.push_back(fet_sensor("CNT-BA FET"));
  sensors.push_back(fet_sensor("Graphene-PBA FET"));

  const auto run = [&](std::size_t workers) {
    engine::EngineOptions opt;
    opt.workers = workers;
    opt.sim_cache_capacity = workers > 0 ? 128 : 0;
    engine::Engine eng(opt);
    std::vector<std::uint64_t> out(sensors.size() * 4, 0);
    std::vector<engine::JobSpec> jobs;
    for (std::size_t si = 0; si < sensors.size(); ++si) {
      for (std::size_t k = 0; k < 4; ++k) {
        engine::JobSpec job;
        job.name = sensors[si].spec().name + " #" + std::to_string(k);
        const core::BiosensorModel* sensor = &sensors[si];
        std::uint64_t* slot = &out[si * 4 + k];
        engine::Engine* engp = &eng;
        job.body = [sensor, slot, engp,
                    k](engine::JobContext& c) -> Expected<bool> {
          const chem::Sample s = chem::calibration_sample(
              sensor->spec().target,
              Concentration::milli_molar(1.0 + 0.5 * k));
          auto m = sensor->try_measure(s, c.rng, engp->sim_cache());
          if (!m.has_value()) return m.error();
          *slot = bits(m.value().response_a);
          return true;
        };
        jobs.push_back(std::move(job));
      }
    }
    engine::BatchOptions bopt;
    bopt.seed = 515;
    const auto reports = eng.run(jobs, bopt);
    for (const auto& r : reports) EXPECT_TRUE(r.accepted) << r.name;
    return out;
  };

  const auto serial = run(0);
  const auto threaded = run(8);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "job " << i;
    EXPECT_NE(serial[i], 0u) << "job " << i;
  }
}

// --- service sessions: snapshot/restore with an FET body -------------

TEST(Fet, ServiceSessionSnapshotRestoreIsInvisible) {
  // A session whose body runs the real FET transducer each submission.
  // Interrupting mid-stream (drain -> snapshot -> close -> restore)
  // must leave the final snapshot byte-identical to an uninterrupted
  // run — the same contract the amperometric service demo enforces.
  const auto spec = core::try_entry("CNT-BA FET").value().spec;
  const auto make_body = [&spec]() -> service::SessionBody {
    const auto sensor = std::make_shared<core::BiosensorModel>(spec);
    return [sensor](service::SessionContext& c) -> Expected<double> {
      double& level = c.state[0];
      level += 0.05 * c.session_rng.normal();
      const double mm = std::clamp(5.0 + level, 0.6, 12.0);
      const chem::Sample s = chem::calibration_sample(
          sensor->spec().target, Concentration::milli_molar(mm));
      auto m = sensor->try_measure(s, c.rng);
      if (!m.has_value()) return m.error();
      return m.value().response_a;
    };
  };

  const auto run_stream = [&](bool interrupted) -> std::string {
    service::ServiceOptions options;
    options.workers = 2;
    service::SimulationService svc(options);
    service::SessionOptions session;
    session.tenant = "fet-ward";
    session.seed = 4242;
    session.body = make_body();
    session.initial_state = {0.0};
    auto id = svc.try_open_session(std::move(session));
    EXPECT_TRUE(id.has_value());
    for (int k = 0; k < 6; ++k) {
      EXPECT_TRUE(svc.try_submit_measurement(id.value()).has_value());
    }
    svc.drain();
    if (interrupted) {
      const std::string encoded =
          svc.try_snapshot(id.value()).value().encode();
      EXPECT_TRUE(svc.try_close_session(id.value()).has_value());
      svc.resume();
      const auto snapshot =
          service::SessionSnapshot::try_decode(encoded);
      EXPECT_TRUE(snapshot.has_value());
      id = svc.try_restore(make_body(), snapshot.value());
      EXPECT_TRUE(id.has_value());
    } else {
      svc.resume();
    }
    for (int k = 0; k < 6; ++k) {
      EXPECT_TRUE(svc.try_submit_measurement(id.value()).has_value());
    }
    svc.drain();
    return svc.try_snapshot(id.value()).value().encode();
  };

  const std::string interrupted = run_stream(true);
  const std::string uninterrupted = run_stream(false);
  EXPECT_FALSE(interrupted.empty());
  EXPECT_EQ(interrupted, uninterrupted);
}

}  // namespace
}  // namespace biosens
