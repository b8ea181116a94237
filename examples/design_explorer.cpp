// Design explorer: the platform as a *design tool*.
//
// The paper argues for a platform-based design style that separates the
// chemical from the electrical component so new sensors are cheap to
// spec. This example plays sensor designer: given a target analyte and
// desired figures of merit, it (a) checks physical feasibility against
// the transport ceiling, (b) solves the required enzyme loading and film
// tuning by inverse design, and (c) compares how far each surface
// modification could take the same target.
#include <cstdio>

#include "chem/species.hpp"
#include "core/design.hpp"
#include "core/protocol.hpp"
#include "core/sensor.hpp"
#include "transport/analytic.hpp"

namespace {

using namespace biosens;

core::SensorSpec base_spec(const electrode::Modification& mod) {
  core::SensorSpec spec;
  spec.name = std::string("custom lactate sensor / ") + mod.name;
  spec.citation = "design study";
  spec.target = "lactate";
  spec.technique = core::Technique::kChronoamperometry;
  spec.assembly.geometry = electrode::microfabricated_gold();
  spec.assembly.modification = mod;
  spec.assembly.immobilization = electrode::try_immobilization_defaults(
      electrode::ImmobilizationMethod::kAdsorption).value();
  spec.assembly.enzyme = *chem::try_enzyme("LOD").value();
  spec.assembly.substrate = "lactate";
  spec.assembly.loading_monolayers = 1.0;
  return spec;
}

}  // namespace

int main() {
  // Goal: a lactate sensor for sports medicine covering 0-3 mM with a
  // 5 uM detection limit.
  core::PublishedFigures target;
  target.sensitivity = Sensitivity::micro_amp_per_milli_molar_cm2(30.0);
  target.range_low = Concentration::milli_molar(0.0);
  target.range_high = Concentration::milli_molar(3.0);
  target.lod = Concentration::micro_molar(5.0);

  const auto lactate = *chem::try_species("lactate").value();
  const double delta = transport::stirred_layer_thickness_m(400.0);
  const Sensitivity ceiling =
      core::ca_transport_ceiling(2, lactate.diffusivity, delta);
  std::printf("design target: lactate, %.0f uA/mM/cm^2, 0-%.0f mM, LOD %s\n",
              target.sensitivity.micro_amp_per_milli_molar_cm2(),
              target.range_high.milli_molar(),
              to_string(*target.lod).c_str());
  std::printf("transport ceiling at this stirring: %.0f uA/mM/cm^2 -> %s\n\n",
              ceiling.micro_amp_per_milli_molar_cm2(),
              target.sensitivity < ceiling ? "feasible" : "INFEASIBLE");

  std::printf(
      "modification       | loading [monolayers] | Km tuning | verdict\n");
  std::printf(
      "-------------------+----------------------+-----------+------------"
      "--------\n");
  for (const auto& mod : {electrode::bare_surface(),
                          electrode::mwcnt_nafion(),
                          electrode::cnt_mat(),
                          electrode::mwcnt_sol_gel()}) {
    core::SensorSpec spec = base_spec(mod);
    try {
      core::calibrate_to_figures(spec, target);
      std::printf("%-18s | %20.3f | %9.2f | ok\n", mod.name.c_str(),
                  spec.assembly.loading_monolayers,
                  spec.assembly.km_tuning);
    } catch (const Error& err) {
      std::printf("%-18s | %20s | %9s | %s\n", mod.name.c_str(), "-", "-",
                  "needs more enzyme than the film can wire");
    }
  }

  // Verify the feasible MWCNT/Nafion design end-to-end.
  core::SensorSpec spec = base_spec(electrode::mwcnt_nafion());
  core::calibrate_to_figures(spec, target);
  const core::BiosensorModel sensor(spec);
  Rng rng(99);
  const core::CalibrationProtocol protocol;
  const auto measured =
      protocol
          .try_run(sensor,
                   core::standard_series(target.range_low, target.range_high),
                   rng)
          .value()
          .result;
  std::printf(
      "\nverification of the MWCNT/Nafion design (simulated calibration):\n"
      "  sensitivity %.1f uA/mM/cm^2 (target %.1f)\n"
      "  range top   %s (target %s)\n"
      "  LOD         %s (target %s)\n",
      measured.sensitivity.micro_amp_per_milli_molar_cm2(),
      target.sensitivity.micro_amp_per_milli_molar_cm2(),
      to_string(measured.linear_range_high).c_str(),
      to_string(target.range_high).c_str(),
      to_string(measured.lod).c_str(), to_string(*target.lod).c_str());
  return 0;
}
