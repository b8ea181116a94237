// Personalized-therapy loop: PK model and sensor-driven dose adjustment.
#include <gtest/gtest.h>

#include <cmath>

#include "core/catalog.hpp"
#include "core/platform.hpp"
#include "core/therapy.hpp"

namespace biosens::core {
namespace {

PharmacokineticModel population_pk() {
  // Cyclophosphamide-like: Vd ~ 30 L, t1/2 ~ 6 h.
  return PharmacokineticModel(Volume::liters(30.0),
                              Time::seconds(6.0 * 3600.0));
}

TEST(Pk, BolusIncrementArithmetic) {
  const PharmacokineticModel pk = population_pk();
  // 261 mg of a 261 g/mol drug in 30 L -> 1 mmol / 30 L = 0.0333 mM.
  const Concentration c = pk.bolus_increment(261.0, 261.0);
  EXPECT_NEAR(c.milli_molar(), 1.0 / 30.0, 1e-9);
}

TEST(Pk, DecayHalvesAtHalfLife) {
  const PharmacokineticModel pk = population_pk();
  const Concentration c0 = Concentration::micro_molar(100.0);
  const Concentration c1 = pk.decay(c0, Time::seconds(6.0 * 3600.0));
  EXPECT_NEAR(c1.micro_molar(), 50.0, 1e-6);
  EXPECT_DOUBLE_EQ(pk.decay(c0, Time::seconds(0.0)).micro_molar(), 100.0);
}

TEST(Pk, RejectsNonPhysical) {
  EXPECT_THROW(
      PharmacokineticModel(Volume::liters(0.0), Time::seconds(100.0)),
      SpecError);
  EXPECT_THROW(
      PharmacokineticModel(Volume::liters(30.0), Time::seconds(0.0)),
      SpecError);
  EXPECT_THROW(population_pk().bolus_increment(-1.0, 261.0), SpecError);
}

class TherapyFixture : public ::testing::Test {
 protected:
  TherapyFixture()
      : entry_(try_entry("MWCNT + CYP (cyclophosphamide)").value()),
        sensor_(entry_.spec) {
    // Calibrate once to get the response->concentration mapping.
    Rng rng(11);
    ProtocolOptions options;
    options.blank_repeats = 8;
    options.replicates = 1;
    const CalibrationProtocol protocol(options);
    const auto outcome = protocol.try_run(
        sensor_,
        standard_series(entry_.published.range_low,
                        entry_.published.range_high),
        rng).value();
    slope_ = outcome.result.fit.slope;
    intercept_ = outcome.result.fit.intercept;
  }

  TherapyMonitor monitor() const {
    return TherapyMonitor(sensor_, slope_, intercept_,
                          Concentration::micro_molar(20.0),
                          Concentration::micro_molar(50.0),
                          entry_.published.range_high);
  }

  CatalogEntry entry_;
  BiosensorModel sensor_;
  double slope_ = 0.0;
  double intercept_ = 0.0;
};

TEST_F(TherapyFixture, ConcentrationInversionRoundTrip) {
  const TherapyMonitor m = monitor();
  const double response = intercept_ + slope_ * 0.04;  // 40 uM
  EXPECT_NEAR(m.to_concentration(response).micro_molar(), 40.0, 1e-9);
  // Below-blank responses clamp to zero.
  EXPECT_DOUBLE_EQ(m.to_concentration(intercept_ - 1.0).micro_molar(), 0.0);
}

TEST_F(TherapyFixture, SteersAverageMetabolizerIntoWindow) {
  const TherapyMonitor m = monitor();
  Rng rng(5);
  const auto course =
      m.run_course(PatientProfile{"avg", 1.0, 1.0}, population_pk(),
                   /*initial_dose_mg=*/150.0, /*doses=*/8,
                   Time::seconds(6.0 * 3600.0), 261.0, rng);
  ASSERT_EQ(course.size(), 8u);
  // After the controller settles, the measured trough sits in-window.
  EXPECT_TRUE(course[6].in_window);
  EXPECT_TRUE(course[7].in_window);
}

TEST_F(TherapyFixture, FastMetabolizerGetsHigherDose) {
  const TherapyMonitor m = monitor();
  Rng rng_fast(5), rng_slow(5);
  const auto fast =
      m.run_course(PatientProfile{"fast", 1.5, 1.0}, population_pk(),
                   150.0, 8, Time::seconds(6.0 * 3600.0), 261.0, rng_fast);
  const auto slow =
      m.run_course(PatientProfile{"slow", 0.6, 1.0}, population_pk(),
                   150.0, 8, Time::seconds(6.0 * 3600.0), 261.0, rng_slow);
  // Personalization: the fast metabolizer's settled dose exceeds the
  // slow metabolizer's.
  EXPECT_GT(fast.back().dose_mg, slow.back().dose_mg);
  // And both end up in the window despite the clearance spread.
  EXPECT_TRUE(fast.back().in_window);
  EXPECT_TRUE(slow.back().in_window);
}

TEST_F(TherapyFixture, MeasurementTracksTruth) {
  const TherapyMonitor m = monitor();
  Rng rng(9);
  const auto course =
      m.run_course(PatientProfile{"avg", 1.0, 1.0}, population_pk(),
                   150.0, 6, Time::seconds(6.0 * 3600.0), 261.0, rng);
  // From the second event on, the measured trough approximates the true
  // pre-dose level (the first event measures a drug-free patient).
  for (std::size_t k = 2; k < course.size(); ++k) {
    const double truth_prev_trough =
        course[k].true_level.micro_molar() -
        population_pk()
            .bolus_increment(course[k].dose_mg, 261.0)
            .micro_molar();
    EXPECT_NEAR(course[k].measured_level.micro_molar(),
                truth_prev_trough,
                0.5 * truth_prev_trough + 3.0)
        << "event " << k;
  }
}

TEST_F(TherapyFixture, RejectsBadCourses) {
  const TherapyMonitor m = monitor();
  Rng rng(1);
  EXPECT_THROW(m.run_course(PatientProfile{"p", 1.0, 1.0}, population_pk(),
                            150.0, 0, Time::seconds(3600.0), 261.0, rng),
               SpecError);
  EXPECT_THROW(m.run_course(PatientProfile{"p", 0.0, 1.0}, population_pk(),
                            150.0, 4, Time::seconds(3600.0), 261.0, rng),
               SpecError);
}

TEST_F(TherapyFixture, MonitorRequiresVoltammetricSensor) {
  const BiosensorModel glucose(
      try_entry("MWCNT/Nafion + GOD (this work)").value().spec);
  EXPECT_THROW(TherapyMonitor(glucose, 1e-6, 0.0,
                              Concentration::micro_molar(20.0),
                              Concentration::micro_molar(50.0),
                              Concentration::micro_molar(70.0)),
               SpecError);
}

}  // namespace
}  // namespace biosens::core
