// Potentiometric sensing: Nernstian slopes, Nikolsky-Eisenman
// interference, enzyme-coupled (urease-style) biosensors.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "electrochem/potentiometry.hpp"

namespace biosens::electrochem {
namespace {

IonSelectiveElectrode ideal_ise() {
  return IonSelectiveElectrode(Potential::millivolts(0.0), "ammonium", 1,
                               1.0);
}

chem::Sample ion_sample(double mm) {
  chem::Sample s;
  s.set("ammonium", Concentration::milli_molar(mm));
  return s;
}

TEST(Potentiometry, NernstianSlopeIs59mVPerDecade) {
  const IonSelectiveElectrode ise = ideal_ise();
  EXPECT_NEAR(ise.nernstian_slope_per_decade().millivolts(), 59.2, 0.2);
  const double e1 = ise.potential(ion_sample(0.1)).millivolts();
  const double e2 = ise.potential(ion_sample(1.0)).millivolts();
  const double e3 = ise.potential(ion_sample(10.0)).millivolts();
  EXPECT_NEAR(e2 - e1, 59.2, 0.2);
  EXPECT_NEAR(e3 - e2, 59.2, 0.2);
}

TEST(Potentiometry, DivalentIonHalvesTheSlope) {
  const IonSelectiveElectrode calcium(Potential::millivolts(0.0),
                                      "calcium", 2, 1.0);
  EXPECT_NEAR(calcium.nernstian_slope_per_decade().millivolts(), 29.6,
              0.2);
}

TEST(Potentiometry, SubNernstianMembrane) {
  const IonSelectiveElectrode aged(Potential::millivolts(0.0), "ammonium",
                                   1, 0.9);
  EXPECT_NEAR(aged.nernstian_slope_per_decade().millivolts(), 0.9 * 59.2,
              0.3);
}

TEST(Potentiometry, NikolskyEisenmanInterference) {
  IonSelectiveElectrode ise = ideal_ise();
  ise.add_interference({"potassium", 0.1, 1});

  chem::Sample clean = ion_sample(0.1);
  chem::Sample with_k = ion_sample(0.1);
  with_k.set("potassium", Concentration::milli_molar(1.0));

  // 1 mM K+ at K = 0.1 reads like an extra 0.1 mM of primary ion:
  // effective activity doubles -> +18 mV (one ln(2)/ln(10) decade step).
  const double shift = ise.potential(with_k).millivolts() -
                       ise.potential(clean).millivolts();
  EXPECT_NEAR(shift, 59.2 * std::log10(2.0), 0.3);

  // A well-rejected ion barely moves the reading.
  ise.add_interference({"sodium", 0.001, 1});
  chem::Sample with_na = ion_sample(0.1);
  with_na.set("sodium", Concentration::milli_molar(1.0));
  EXPECT_NEAR(ise.potential(with_na).millivolts(),
              ise.potential(clean).millivolts(), 0.5);
}

TEST(Potentiometry, DetectionFloorLimitsDilution) {
  const IonSelectiveElectrode ise = ideal_ise();
  // Below the membrane floor the potential stops tracking.
  const double e_tiny = ise.potential(ion_sample(1e-9)).millivolts();
  const double e_tinier = ise.potential(ion_sample(1e-12)).millivolts();
  EXPECT_NEAR(e_tiny, e_tinier, 1e-9);
}

TEST(Potentiometry, RejectsBadConstruction) {
  EXPECT_THROW(
      IonSelectiveElectrode(Potential{}, "ammonium", 0, 1.0), SpecError);
  EXPECT_THROW(
      IonSelectiveElectrode(Potential{}, "ammonium", 1, 0.0), SpecError);
  IonSelectiveElectrode ise = ideal_ise();
  EXPECT_THROW(ise.add_interference({"potassium", -0.1, 1}), SpecError);
}

class UreaSensorFixture : public ::testing::Test {
 protected:
  UreaSensorFixture()
      : sensor_(ammonium_ise(),
                chem::MichaelisMenten::try_create(
                    Rate::per_second(500.0), Concentration::milli_molar(3.0))
                    .value(),
                "urea", 1e-3) {}
  PotentiometricBiosensor sensor_;

  chem::Sample urea_sample(double mm) {
    chem::Sample s;
    s.set("urea", Concentration::milli_molar(mm));
    return s;
  }
};

TEST_F(UreaSensorFixture, RespondsMonotonicallyToUrea) {
  double prev = -1e9;
  for (double mm : {0.1, 0.3, 1.0, 3.0, 10.0}) {
    const double e = sensor_.respond(urea_sample(mm)).millivolts();
    EXPECT_GT(e, prev) << mm;
    prev = e;
  }
}

TEST_F(UreaSensorFixture, QuasiNernstianInTheLogLinearRegion) {
  // Well below K_M the generated ion is proportional to urea, so the
  // potential is close to Nernstian per decade of *urea*.
  const double e1 = sensor_.respond(urea_sample(0.01)).millivolts();
  const double e2 = sensor_.respond(urea_sample(0.1)).millivolts();
  EXPECT_NEAR(e2 - e1, 0.98 * 59.2, 3.0);
}

TEST_F(UreaSensorFixture, SaturatesAboveKm) {
  const double e1 = sensor_.respond(urea_sample(30.0)).millivolts();
  const double e2 = sensor_.respond(urea_sample(60.0)).millivolts();
  EXPECT_LT(e2 - e1, 5.0);  // far less than a Nernstian decade step
}

TEST_F(UreaSensorFixture, LocalIonFollowsMichaelisMenten) {
  const Concentration at_km =
      sensor_.local_ion(Concentration::milli_molar(3.0));
  EXPECT_NEAR(at_km.milli_molar(), 1e-3 * 250.0, 1e-9);
}

TEST_F(UreaSensorFixture, PotassiumInterferesViaTheIse) {
  chem::Sample clean = urea_sample(1.0);
  chem::Sample with_k = urea_sample(1.0);
  with_k.set("potassium", Concentration::milli_molar(5.0));
  EXPECT_GT(sensor_.respond(with_k).millivolts(),
            sensor_.respond(clean).millivolts());
}

}  // namespace
}  // namespace biosens::electrochem
