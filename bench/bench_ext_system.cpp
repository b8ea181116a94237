// Extension E2 — the Section 2.5 system argument, quantified: 3-D
// heterogeneous integration [17] vs monolithic single-die systems, and
// the stability/recalibration numbers behind the disposable-vs-implanted
// discussion.
#include "bench_util.hpp"

#include "core/integration.hpp"
#include "core/stability.hpp"

namespace {

using namespace biosens;
using core::IntegrationReport;
using core::TechnologyNode;

void print_integration() {
  std::printf("\n(a) integration strategies for the full system\n");
  const auto blocks = core::standard_system_blocks();
  const TechnologyNode n180{180.0, 0.05, 250e3};
  const TechnologyNode n65{65.0, 0.20, 900e3};
  constexpr std::size_t kUnits = 100000;

  const std::vector<IntegrationReport> reports = {
      core::monolithic(blocks, n180, kUnits, /*tests_per_unit=*/50),
      core::monolithic(blocks, n65, kUnits, /*tests_per_unit=*/50),
      core::stacked_heterogeneous(blocks, n65, n180,
                                  /*biolayer_cost=*/0.30,
                                  /*tests_per_biolayer=*/50, kUnits,
                                  /*tests_per_unit=*/5000),
  };

  std::printf("%-30s | %10s | %9s | %9s | %9s | %s\n", "strategy",
              "area [mm2]", "power[mW]", "NRE [k$]", "unit [$]",
              "cost/test [$]");
  std::printf(
      "-------------------------------+------------+-----------+----------"
      "-+-----------+--------------\n");
  for (const IntegrationReport& r : reports) {
    std::printf("%-30s | %10.2f | %9.2f | %9.0f | %9.3f | %10.4f\n",
                r.strategy.c_str(), r.total_area_mm2,
                r.total_power_uw * 1e-3, r.nre_cost * 1e-3, r.unit_cost,
                r.cost_per_test);
  }
  std::printf(
      "\nreading: in the monolithic designs the analog + bio area barely\n"
      "shrinks with the node, and the whole die dies with its biolayer.\n"
      "The [17]-style stack puts each layer in its natural technology and\n"
      "replaces only the disposable biolayer — the paper's NRE/platform\n"
      "argument in numbers.\n");
}

void print_stability() {
  std::printf("\n(b) stability & recalibration of the platform sensors\n");
  std::printf("%-32s | %-14s | %-18s | %-16s\n", "sensor",
              "retained @ 7d", "recal. interval 5%", "lifetime to 50%");
  std::printf(
      "---------------------------------+----------------+---------------"
      "-----+-----------------\n");
  for (const core::CatalogEntry& e : core::platform_entries()) {
    const core::StabilityReport week = core::stability_after(
        e.spec, Time::seconds(7.0 * 86400.0));
    const Time recal = core::recalibration_interval(e.spec, 0.05);
    const Time life = core::useful_lifetime(e.spec, 0.5);
    std::printf("%-32s | %13.1f%% | %15.1f d | %13.1f d\n",
                e.spec.name.c_str(), 100.0 * week.retained,
                recal.seconds() / 86400.0, life.seconds() / 86400.0);
  }
  std::printf(
      "\nreading: adsorbed enzyme layers need ~weekly one-point\n"
      "recalibration at 5%% tolerance and retire after ~a month — fine\n"
      "for disposable strips, the open challenge for the implanted\n"
      "monitors of Section 2.5 (covalent chemistry trades initial\n"
      "activity for lifetime; see electrode::Immobilization).\n");
}

void BM_StabilityEvaluation(benchmark::State& state) {
  const core::SensorSpec spec =
      core::try_entry("MWCNT/Nafion + GOD (this work)").value().spec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::stability_after(spec, Time::seconds(7.0 * 86400.0)));
  }
}
BENCHMARK(BM_StabilityEvaluation);

void BM_IntegrationReport(benchmark::State& state) {
  const auto blocks = core::standard_system_blocks();
  const TechnologyNode n180{180.0, 0.05, 250e3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::monolithic(blocks, n180, 1000, 50));
  }
}
BENCHMARK(BM_IntegrationReport);

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner("Extension E2",
                      "system integration & sensor stability (Section 2.5)");
  print_integration();
  print_stability();
  return bench::run_timings(argc, argv);
}
