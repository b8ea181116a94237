// Two-species oxidase model: H2O2 collection efficiency and the
// electrode-material story of [16].
#include <gtest/gtest.h>

#include <cmath>

#include "chem/enzyme.hpp"
#include "chem/solution.hpp"
#include "core/catalog.hpp"
#include "electrochem/chronoamperometry.hpp"
#include "electrochem/peroxide.hpp"

namespace biosens::electrochem {
namespace {

Cell glucose_cell(Concentration glucose) {
  const core::CatalogEntry entry =
      core::try_entry("MWCNT/Nafion + GOD (this work)").value();
  return Cell(electrode::try_synthesize(entry.spec.assembly).value(),
              chem::calibration_sample("glucose", glucose),
              Hydrodynamics{true, 400.0});
}

TEST(Peroxide, RateConstantsOrderAsTheLiterature) {
  using electrode::Material;
  const double pt = peroxide_rate_constant_m_per_s(Material::kPlatinum);
  const double gc = peroxide_rate_constant_m_per_s(Material::kGlassyCarbon);
  const double gr = peroxide_rate_constant_m_per_s(Material::kGraphite);
  const double au = peroxide_rate_constant_m_per_s(Material::kGold);
  EXPECT_GT(pt, gc);
  EXPECT_GT(gc, au);
  // The [16] remark quoted in Section 3.2.2: carbons beat (plain) gold.
  EXPECT_GT(gr, 3.0 * au);
}

TEST(Peroxide, CollectionEfficiencyFormula) {
  const PeroxideChronoSim sim(glucose_cell(Concentration::milli_molar(0.5)));
  const double k_e = sim.electrode_rate_m_per_s();
  const double d_p = 1.4e-9;  // H2O2 diffusivity
  const double delta = 25e-6;
  EXPECT_NEAR(sim.collection_efficiency(),
              k_e / (k_e + d_p / delta), 1e-9);
  EXPECT_GT(sim.collection_efficiency(), 0.0);
  EXPECT_LT(sim.collection_efficiency(), 1.0);
}

TEST(Peroxide, SteadyStateMatchesLumpedModelTimesEfficiency) {
  // The two-species current converges to (lumped current) x eta: the
  // enzymatic production is the same; only the collected fraction
  // differs.
  const Concentration glucose = Concentration::milli_molar(0.3);
  PeroxideOptions options;
  const PeroxideChronoSim two_species(glucose_cell(glucose), options);

  ChronoOptions lumped_options;
  const ChronoamperometrySim lumped(glucose_cell(glucose),
                                    standard_oxidase_step(),
                                    lumped_options);
  const double expected = lumped.try_steady_state().value().amps() *
                          two_species.collection_efficiency();
  EXPECT_NEAR(two_species.steady_state().amps(), expected,
              0.05 * expected);
}

TEST(Peroxide, FastElectrodeApproachesFullCollection) {
  PeroxideOptions options;
  options.electrode_rate_m_per_s = 1.0;  // absurdly catalytic
  const PeroxideChronoSim sim(glucose_cell(Concentration::milli_molar(0.3)),
                              options);
  EXPECT_GT(sim.collection_efficiency(), 0.9999);

  const ChronoamperometrySim lumped(
      glucose_cell(Concentration::milli_molar(0.3)),
      standard_oxidase_step());
  const double lumped_a = lumped.try_steady_state().value().amps();
  EXPECT_NEAR(sim.steady_state().amps(), lumped_a, 0.03 * lumped_a);
}

TEST(Peroxide, SlowElectrodeLosesTheSignal) {
  PeroxideOptions options;
  options.electrode_rate_m_per_s = 1e-6;  // nearly inert surface
  const PeroxideChronoSim sim(glucose_cell(Concentration::milli_molar(0.3)),
                              options);
  EXPECT_LT(sim.collection_efficiency(), 0.05);
}

TEST(Peroxide, MaterialSweepReproducesThePlatinumAdvantage) {
  const Concentration glucose = Concentration::milli_molar(0.3);
  double previous = 0.0;
  for (electrode::Material m :
       {electrode::Material::kGold, electrode::Material::kGraphite,
        electrode::Material::kPlatinum}) {
    PeroxideOptions options;
    options.electrode_rate_m_per_s = peroxide_rate_constant_m_per_s(m);
    const PeroxideChronoSim sim(glucose_cell(glucose), options);
    const double current = sim.steady_state().amps();
    EXPECT_GT(current, previous);
    previous = current;
  }
}

TEST(Peroxide, CurrentScalesWithSubstrate) {
  PeroxideOptions options;
  const double low =
      PeroxideChronoSim(glucose_cell(Concentration::milli_molar(0.2)),
                        options)
          .steady_state()
          .amps();
  const double high =
      PeroxideChronoSim(glucose_cell(Concentration::milli_molar(0.4)),
                        options)
          .steady_state()
          .amps();
  EXPECT_NEAR(high / low, 2.0, 0.15);
}

TEST(Peroxide, RejectsBadOptions) {
  PeroxideOptions options;
  options.dt = Time::seconds(60.0);  // dt > duration
  EXPECT_THROW(PeroxideChronoSim(
                   glucose_cell(Concentration::milli_molar(0.3)), options),
               SpecError);
}

}  // namespace
}  // namespace biosens::electrochem
