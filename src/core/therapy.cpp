#include "core/therapy.hpp"

#include <algorithm>
#include <cmath>

#include "chem/solution.hpp"
#include "common/error.hpp"

namespace biosens::core {

PharmacokineticModel::PharmacokineticModel(Volume volume_of_distribution,
                                           Time half_life)
    : v_d_(volume_of_distribution) {
  require<SpecError>(volume_of_distribution.liters() > 0.0,
                     "distribution volume must be positive");
  require<SpecError>(half_life.seconds() > 0.0,
                     "half-life must be positive");
  k_e_ = Rate::per_second(std::log(2.0) / half_life.seconds());
}

Concentration PharmacokineticModel::bolus_increment(
    double dose_mg, double molar_mass_g_per_mol) const {
  require<SpecError>(dose_mg >= 0.0, "dose must be non-negative");
  require<SpecError>(molar_mass_g_per_mol > 0.0,
                     "molar mass must be positive");
  // mg / (g/mol) = mmol; mmol / L = mM.
  const double mmol = dose_mg * 1e-3 / molar_mass_g_per_mol * 1e3;
  return Concentration::milli_molar(mmol / v_d_.liters());
}

Concentration PharmacokineticModel::decay(Concentration c,
                                          Time elapsed) const {
  require<SpecError>(elapsed.seconds() >= 0.0,
                     "elapsed time must be non-negative");
  return Concentration::milli_molar(
      c.milli_molar() *
      std::exp(-k_e_.per_second() * elapsed.seconds()));
}

TherapyMonitor::TherapyMonitor(const BiosensorModel& sensor,
                               double slope_a_per_mm, double intercept_a,
                               Concentration window_low,
                               Concentration window_high,
                               Concentration linear_range_high)
    : sensor_(sensor),
      slope_a_per_mm_(slope_a_per_mm),
      intercept_a_(intercept_a),
      window_low_(window_low),
      window_high_(window_high),
      linear_range_high_(linear_range_high) {
  require<SpecError>(slope_a_per_mm > 0.0,
                     "calibration slope must be positive");
  require<SpecError>(window_high > window_low,
                     "therapeutic window must be non-empty");
  require<SpecError>(linear_range_high.milli_molar() > 0.0,
                     "linear range top must be positive");
  require<SpecError>(sensor.spec().is_voltammetric(),
                     "therapy monitoring uses the CYP/voltammetric family");
}

Concentration TherapyMonitor::to_concentration(double response_a) const {
  return Concentration::milli_molar(
      std::max((response_a - intercept_a_) / slope_a_per_mm_, 0.0));
}

Concentration TherapyMonitor::measure_serum(Concentration true_level,
                                            Rng& rng) const {
  const std::string& drug = sensor_.spec().target;
  const chem::Sample neat = chem::serum_sample(drug, true_level);
  const Concentration first =
      to_concentration(sensor_.try_measure(neat, rng).value().response_a);
  if (first.milli_molar() <= 0.70 * linear_range_high_.milli_molar()) {
    return first;
  }
  // Over-range: re-measure at 1:4 dilution and scale back.
  chem::Sample diluted = chem::serum_sample(drug, true_level);
  diluted.dilute(4.0);
  return 4.0 * to_concentration(
                   sensor_.try_measure(diluted, rng).value().response_a);
}

namespace {

/// Raw (unclamped) calibration inversion; lets a serum-matrix offset be
/// estimated even when it is negative.
double raw_concentration_mm(double response_a, double slope, double icpt) {
  return (response_a - icpt) / slope;
}

}  // namespace

std::vector<TherapyEvent> TherapyMonitor::run_course(
    const PatientProfile& patient, const PharmacokineticModel& population,
    double initial_dose_mg, std::size_t doses, Time interval,
    double molar_mass_g_per_mol, Rng& rng) const {
  require<SpecError>(doses >= 1, "course needs at least one dose");
  require<SpecError>(interval.seconds() > 0.0,
                     "dosing interval must be positive");
  require<SpecError>(patient.clearance_multiplier > 0.0 &&
                         patient.volume_multiplier > 0.0,
                     "patient multipliers must be positive");

  // Patient-specific PK from the population model.
  const PharmacokineticModel pk(
      Volume::liters(population.volume_of_distribution().liters() *
                     patient.volume_multiplier),
      Time::seconds(std::log(2.0) /
                    (population.elimination_rate().per_second() *
                     patient.clearance_multiplier)));

  const Concentration window_mid =
      0.5 * (window_low_ + window_high_);

  std::vector<TherapyEvent> course;
  course.reserve(doses);
  Concentration level;  // plasma level right now
  double dose = initial_dose_mg;
  Time now = Time::seconds(0.0);

  // The clinician's running estimate of the patient's per-interval decay
  // factor, refined from consecutive measured troughs (the essence of
  // therapeutic drug monitoring); seeded with the population value.
  double decay_estimate =
      std::exp(-population.elimination_rate().per_second() *
               interval.seconds());
  double prev_post_dose_mm = -1.0;
  // Serum-matrix offset, estimated from the drug-naive pre-therapy
  // sample at the first event (matrix-matched baselining).
  double matrix_offset_mm = 0.0;

  for (std::size_t k = 0; k < doses; ++k) {
    // Measure the trough (just before dosing) with the biosensor,
    // auto-diluting when the first reading is over-range.
    Concentration measured = measure_serum(level, rng);
    if (k == 0) {
      // The patient is drug-naive: whatever reads now is the serum
      // matrix, not drug. Store it as the baseline offset.
      const chem::Sample naive = chem::serum_sample(
          sensor_.spec().target, Concentration::milli_molar(0.0));
      matrix_offset_mm = raw_concentration_mm(
          sensor_.try_measure(naive, rng).value().response_a, slope_a_per_mm_,
          intercept_a_);
      measured = Concentration::milli_molar(0.0);
    } else {
      measured = Concentration::milli_molar(
          std::max(measured.milli_molar() - matrix_offset_mm, 0.0));
    }

    // Refine the patient decay estimate: this trough is the previous
    // post-dose level decayed over one interval. Updated only when the
    // denominator is comfortably above the noise, and smoothed.
    if (prev_post_dose_mm > 5e-3) {  // > 5 uM
      const double observed = measured.milli_molar() / prev_post_dose_mm;
      decay_estimate = std::clamp(
          0.3 * decay_estimate + 0.7 * observed, 0.10, 0.95);
    }

    TherapyEvent event;
    event.at = now;
    event.dose_mg = dose;
    event.measured_level = measured;
    event.in_window = measured >= window_low_ && measured <= window_high_;

    // Administer and record the post-dose truth.
    const Concentration increment =
        pk.bolus_increment(dose, molar_mass_g_per_mol);
    level += increment;
    event.true_level = level;

    // Deadbeat controller on the *measured* trough: with the estimated
    // decay d, the next trough is d * (trough + dose/Vd); solve the dose
    // that puts it exactly on the window midpoint. Bounded to [0.25x,
    // 4x] of the nominal dose to keep single-step corrections clinically
    // plausible.
    double next = dose;
    if (k + 1 < doses) {
      const double needed_increment_mm =
          window_mid.milli_molar() / decay_estimate -
          measured.milli_molar();
      const double needed_mg = needed_increment_mm *
                               population.volume_of_distribution().liters() *
                               molar_mass_g_per_mol;
      next = std::clamp(needed_mg, 0.25 * initial_dose_mg,
                        4.0 * initial_dose_mg);
    }
    event.next_dose_mg = next;
    course.push_back(event);

    prev_post_dose_mm = measured.milli_molar() + increment.milli_molar();
    level = pk.decay(level, interval);
    now += interval;
    dose = next;
  }
  return course;
}

}  // namespace biosens::core
