// Personalized chemotherapy monitoring — the paper's motivating use case
// (Section 1: standard dosing helps only 20-50% of patients; monitoring
// the drug level in blood lets the therapy be tuned per patient).
//
// Three virtual patients with different cyclophosphamide clearances get
// an 8-dose course. A fixed-dose regimen is compared against the
// sensor-in-the-loop regimen driven by the platform's CYP2B6 biosensor.
#include <cstdio>
#include <vector>

#include "core/catalog.hpp"
#include "core/protocol.hpp"
#include "core/therapy.hpp"

namespace {

using namespace biosens;

constexpr double kDrugMolarMass = 261.08;  // cyclophosphamide [g/mol]

// Troughs are scored over the maintenance phase (doses 4-8): the first
// doses are the titration phase in any TDM regimen.
constexpr std::size_t kTitrationDoses = 3;

struct Outcome {
  int in_window = 0;
  double final_dose_mg = 0.0;
};

Outcome run(const core::TherapyMonitor& monitor,
            const core::PatientProfile& patient,
            const core::PharmacokineticModel& population, Rng& rng) {
  const auto course = monitor.run_course(
      patient, population, /*initial_dose_mg=*/150.0, /*doses=*/8,
      Time::seconds(6.0 * 3600.0), kDrugMolarMass, rng);
  Outcome o;
  for (std::size_t k = kTitrationDoses; k < course.size(); ++k) {
    if (course[k].in_window) ++o.in_window;
  }
  o.final_dose_mg = course.back().dose_mg;
  return o;
}

// The fixed-dose comparator: same PK, nobody measures anything.
int fixed_dose_in_window(const core::PatientProfile& patient,
                         const core::PharmacokineticModel& population,
                         Concentration lo, Concentration hi) {
  const core::PharmacokineticModel pk(
      Volume::liters(population.volume_of_distribution().liters() *
                     patient.volume_multiplier),
      Time::seconds(std::log(2.0) /
                    (population.elimination_rate().per_second() *
                     patient.clearance_multiplier)));
  Concentration level;
  int in_window = 0;
  for (std::size_t k = 0; k < 8; ++k) {
    if (k >= kTitrationDoses && level >= lo && level <= hi) ++in_window;
    level += pk.bolus_increment(150.0, kDrugMolarMass);
    level = pk.decay(level, Time::seconds(6.0 * 3600.0));
  }
  return in_window;
}

}  // namespace

int main() {
  // 1. Calibrate the CP sensor once (as the clinic would).
  const core::CatalogEntry entry =
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value();
  const core::BiosensorModel sensor(entry.spec);
  Rng rng(77);
  const core::CalibrationProtocol protocol;
  const auto cal =
      protocol
          .try_run(sensor,
                   core::standard_series(entry.published.range_low,
                                         entry.published.range_high),
                   rng)
          .value()
          .result;
  std::printf("CYP2B6 sensor: sensitivity %.0f uA/mM/cm^2, LOD %s\n\n",
              cal.sensitivity.micro_amp_per_milli_molar_cm2(),
              to_string(cal.lod).c_str());

  // 2. Therapeutic window and population PK for cyclophosphamide.
  const Concentration window_lo = Concentration::micro_molar(20.0);
  const Concentration window_hi = Concentration::micro_molar(50.0);
  const core::PharmacokineticModel population(Volume::liters(30.0),
                                              Time::seconds(6.0 * 3600.0));
  const core::TherapyMonitor monitor(sensor, cal.fit.slope,
                                     cal.fit.intercept, window_lo,
                                     window_hi, cal.linear_range_high);

  // 3. Three metabolizer phenotypes.
  const std::vector<core::PatientProfile> patients = {
      {"slow metabolizer", 0.6, 1.0},
      {"average metabolizer", 1.0, 1.0},
      {"fast metabolizer", 1.5, 1.0},
  };

  std::printf(
      "maintenance-phase troughs in the therapeutic window (doses 4-8):\n\n");
  std::printf(
      "patient              | fixed 150 mg q6h | sensor-monitored | settled "
      "dose\n");
  std::printf(
      "---------------------+------------------+------------------+---------"
      "----\n");
  for (const core::PatientProfile& p : patients) {
    const int fixed =
        fixed_dose_in_window(p, population, window_lo, window_hi);
    const Outcome monitored = run(monitor, p, population, rng);
    std::printf("%-20s |       %d / 5      |       %d / 5      |  %5.0f mg\n",
                p.id.c_str(), fixed, monitored.in_window,
                monitored.final_dose_mg);
  }

  std::printf(
      "\nthe monitored regimen personalizes the dose to each phenotype —\n"
      "exactly the therapy-tuning loop the paper's platform targets.\n");
  return 0;
}
