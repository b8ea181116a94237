#include "core/workloads.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace biosens::core {

std::vector<PatientProfile> generate_cohort(const CohortSpec& spec,
                                            Rng& rng) {
  require<SpecError>(spec.patients >= 1, "cohort needs patients");
  require<SpecError>(spec.clearance_gsd >= 1.0 && spec.volume_gsd >= 1.0,
                     "geometric standard deviations must be >= 1");
  std::vector<PatientProfile> cohort;
  cohort.reserve(spec.patients);
  const double s_cl = std::log(spec.clearance_gsd);
  const double s_vd = std::log(spec.volume_gsd);
  for (std::size_t k = 0; k < spec.patients; ++k) {
    PatientProfile p;
    p.id = "patient-" + std::to_string(k);
    p.clearance_multiplier = std::exp(rng.normal(0.0, s_cl));
    p.volume_multiplier = std::exp(rng.normal(0.0, s_vd));
    cohort.push_back(std::move(p));
  }
  return cohort;
}

chem::Sample cocktail_sample(
    const std::vector<CocktailComponent>& components) {
  require<SpecError>(!components.empty(), "cocktail needs components");
  chem::Sample sample =
      chem::serum_sample(components.front().drug, components.front().level);
  for (std::size_t k = 1; k < components.size(); ++k) {
    sample.set(components[k].drug, components[k].level);
  }
  return sample;
}

namespace {

/// In-window / total trough counts of one patient under fixed dosing.
std::pair<std::size_t, std::size_t> fixed_dose_counts(
    const PatientProfile& p, const PharmacokineticModel& population,
    double dose_mg, std::size_t doses, Time interval,
    double molar_mass_g_per_mol, Concentration low, Concentration high,
    std::size_t titration_doses) {
  const PharmacokineticModel pk(
      Volume::liters(population.volume_of_distribution().liters() *
                     p.volume_multiplier),
      Time::seconds(std::log(2.0) /
                    (population.elimination_rate().per_second() *
                     p.clearance_multiplier)));
  std::size_t in_window = 0, total = 0;
  Concentration level;
  for (std::size_t k = 0; k < doses; ++k) {
    if (k >= titration_doses) {
      ++total;
      if (level >= low && level <= high) ++in_window;
    }
    level += pk.bolus_increment(dose_mg, molar_mass_g_per_mol);
    level = pk.decay(level, interval);
  }
  return {in_window, total};
}

/// In-window / total trough counts of one monitored course.
std::pair<std::size_t, std::size_t> monitored_counts(
    const std::vector<TherapyEvent>& course, std::size_t titration_doses) {
  std::size_t in_window = 0, total = 0;
  for (std::size_t k = titration_doses; k < course.size(); ++k) {
    ++total;
    if (course[k].in_window) ++in_window;
  }
  return {in_window, total};
}

}  // namespace

double cohort_fixed_dose_in_window(
    const std::vector<PatientProfile>& cohort,
    const PharmacokineticModel& population, double dose_mg,
    std::size_t doses, Time interval, double molar_mass_g_per_mol,
    Concentration low, Concentration high, std::size_t titration_doses) {
  require<SpecError>(!cohort.empty(), "empty cohort");
  require<SpecError>(doses > titration_doses,
                     "course shorter than the titration phase");

  std::size_t in_window = 0, total = 0;
  for (const PatientProfile& p : cohort) {
    const auto [in, all] =
        fixed_dose_counts(p, population, dose_mg, doses, interval,
                          molar_mass_g_per_mol, low, high, titration_doses);
    in_window += in;
    total += all;
  }
  return static_cast<double>(in_window) / static_cast<double>(total);
}

double cohort_monitored_in_window(
    const std::vector<PatientProfile>& cohort, const TherapyMonitor& monitor,
    const PharmacokineticModel& population, double initial_dose_mg,
    std::size_t doses, Time interval, double molar_mass_g_per_mol, Rng& rng,
    std::size_t titration_doses) {
  require<SpecError>(!cohort.empty(), "empty cohort");
  require<SpecError>(doses > titration_doses,
                     "course shorter than the titration phase");

  std::size_t in_window = 0, total = 0;
  for (const PatientProfile& p : cohort) {
    const auto course =
        monitor.run_course(p, population, initial_dose_mg, doses, interval,
                           molar_mass_g_per_mol, rng);
    const auto [in, all] = monitored_counts(course, titration_doses);
    in_window += in;
    total += all;
  }
  return static_cast<double>(in_window) / static_cast<double>(total);
}

double cohort_fixed_dose_in_window(
    const std::vector<PatientProfile>& cohort,
    const PharmacokineticModel& population, double dose_mg,
    std::size_t doses, Time interval, double molar_mass_g_per_mol,
    Concentration low, Concentration high, engine::Engine& engine,
    std::size_t titration_doses) {
  require<SpecError>(!cohort.empty(), "empty cohort");
  require<SpecError>(doses > titration_doses,
                     "course shorter than the titration phase");

  std::vector<std::pair<std::size_t, std::size_t>> counts(cohort.size());
  std::vector<engine::JobSpec> jobs;
  jobs.reserve(cohort.size());
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    engine::JobSpec job;
    job.name = cohort[i].id;
    job.body = [&, i](engine::JobContext&) {
      counts[i] = fixed_dose_counts(cohort[i], population, dose_mg, doses,
                                    interval, molar_mass_g_per_mol, low,
                                    high, titration_doses);
      return true;
    };
    jobs.push_back(std::move(job));
  }
  engine::BatchOptions batch;
  batch.retry = engine::no_retry();
  engine.run(jobs, batch);

  std::size_t in_window = 0, total = 0;
  for (const auto& [in, all] : counts) {
    in_window += in;
    total += all;
  }
  return static_cast<double>(in_window) / static_cast<double>(total);
}

double cohort_monitored_in_window(
    const std::vector<PatientProfile>& cohort, const TherapyMonitor& monitor,
    const PharmacokineticModel& population, double initial_dose_mg,
    std::size_t doses, Time interval, double molar_mass_g_per_mol,
    engine::Engine& engine, std::uint64_t seed,
    std::size_t titration_doses) {
  require<SpecError>(!cohort.empty(), "empty cohort");
  require<SpecError>(doses > titration_doses,
                     "course shorter than the titration phase");

  std::vector<std::pair<std::size_t, std::size_t>> counts(cohort.size());
  std::vector<engine::JobSpec> jobs;
  jobs.reserve(cohort.size());
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    engine::JobSpec job;
    job.name = cohort[i].id;
    job.body = [&, i](engine::JobContext& ctx) {
      const auto course = monitor.run_course(
          cohort[i], population, initial_dose_mg, doses, interval,
          molar_mass_g_per_mol, ctx.rng);
      counts[i] = monitored_counts(course, titration_doses);
      return true;
    };
    jobs.push_back(std::move(job));
  }
  engine::BatchOptions batch;
  batch.seed = seed;
  batch.retry = engine::no_retry();
  engine.run(jobs, batch);

  std::size_t in_window = 0, total = 0;
  for (const auto& [in, all] : counts) {
    in_window += in;
    total += all;
  }
  return static_cast<double>(in_window) / static_cast<double>(total);
}

}  // namespace biosens::core
