// F1 — the chronoamperometric measurement artifact (Section 3.1):
// "The working electrode potential is set at +650 mV and the current
// variation is recorded, since it is proportional to the target
// concentration."
//
// Regenerates the family of step responses of the platform glucose
// sensor at increasing concentrations (an ASCII rendition of the figure
// a potentiostat would plot), the Cottrell-decay validation, and the
// response-time numbers behind the miniaturization claim.
#include "bench_util.hpp"

#include <cmath>

#include "electrochem/chronoamperometry.hpp"
#include "transport/analytic.hpp"
#include "transport/diffusion.hpp"

namespace {

using namespace biosens;

electrochem::TimeSeries trace_at(const core::CatalogEntry& entry,
                                 Concentration c) {
  const electrode::EffectiveLayer layer =
      electrode::try_synthesize(entry.spec.assembly).value();
  electrochem::Cell cell(layer,
                         chem::calibration_sample("glucose", c),
                         electrochem::Hydrodynamics{true, 400.0});
  const electrochem::ChronoamperometrySim sim(
      std::move(cell), electrochem::standard_oxidase_step());
  return sim.try_run().value();
}

void print_figure() {
  bench::print_banner(
      "Figure F1", "chronoamperometric step responses (glucose sensor)");
  const core::CatalogEntry entry =
      core::try_entry("MWCNT/Nafion + GOD (this work)").value();

  const double concentrations[] = {0.1, 0.25, 0.5, 1.0};
  std::printf("\n  t[s]   |");
  for (double c : concentrations) std::printf("  %4.2f mM |", c);
  std::printf("   current [nA]\n");
  std::printf("  -------+");
  for (std::size_t i = 0; i < 4; ++i) std::printf("----------+");
  std::printf("\n");

  std::vector<electrochem::TimeSeries> traces;
  for (double c : concentrations) {
    traces.push_back(trace_at(entry, Concentration::milli_molar(c)));
  }
  for (double t : {0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0}) {
    std::printf("  %6.2f |", t);
    for (const auto& trace : traces) {
      // Nearest sample to t.
      std::size_t k = 0;
      while (k + 1 < trace.size() && trace.time_s[k] < t) ++k;
      std::printf("  %7.2f |", trace.current_a[k] * 1e9);
    }
    std::printf("\n");
  }

  // Shape check: the early transient decays toward the steady state and
  // the steady state is proportional to concentration.
  std::printf("\nsteady-state currents (tail mean):\n");
  double prev = 0.0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const double ss = traces[i].try_tail_mean_a(0.1).value() * 1e9;
    std::printf("  %.2f mM -> %7.2f nA (ratio to previous: %s)\n",
                concentrations[i], ss,
                i == 0 ? "-" : std::to_string(ss / prev).substr(0, 4).c_str());
    prev = ss;
  }

  // Diffusion-limited validation: simulated flux vs the Cottrell law.
  std::printf("\nCottrell validation (diffusion-limited step, quiescent):\n");
  transport::DiffusionField field(
      Diffusivity::cm2_per_s(6.7e-6),
      transport::DiffusionGrid{
          transport::recommended_domain_length_m(
              Diffusivity::cm2_per_s(6.7e-6), Time::seconds(10.0)),
          400},
      Concentration::milli_molar(1.0));
  double t = 0.0;
  std::printf("  t[s]    simulated [A/m2]   Cottrell [A/m2]   error\n");
  for (int k = 0; k < 2000; ++k) {
    const double flux =
        field.step_clamped_surface(Time::milliseconds(5.0), Concentration{});
    t += 5e-3;
    for (double mark : {1.0, 2.0, 5.0, 10.0}) {
      if (std::abs(t - mark) < 2.6e-3) {
        const double sim_j = 2.0 * 96485.33212 * flux;
        const double cot_j =
            transport::try_cottrell_current_density(
                2, Diffusivity::cm2_per_s(6.7e-6),
                Concentration::milli_molar(1.0), Time::seconds(t)).value()
                .amps_per_m2();
        std::printf("  %5.2f   %13.4f   %13.4f   %+.2f%%\n", t, sim_j,
                    cot_j, 100.0 * (sim_j - cot_j) / cot_j);
      }
    }
  }
}

void BM_ChronoTrace(benchmark::State& state) {
  const core::CatalogEntry entry =
      core::try_entry("MWCNT/Nafion + GOD (this work)").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace_at(entry, Concentration::milli_molar(0.5)));
  }
}
BENCHMARK(BM_ChronoTrace)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  return biosens::bench::run_timings(argc, argv);
}
