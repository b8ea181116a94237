// F2 — the voltammetric measurement artifact (Section 3.1): "A linear-
// sweep potential is applied forward and backward ... The hysteresis plot
// gives qualitative and quantitative information about the detected
// target. In particular, the peak height is proportional to drug
// concentration."
//
// Regenerates the cyclophosphamide hysteresis loops at increasing drug
// levels (ASCII plot), the peak-height-vs-concentration series, and the
// Laviron peak-separation diagnostics.
#include "bench_util.hpp"

#include <cmath>

#include "analysis/peaks.hpp"
#include "electrochem/voltammetry.hpp"

namespace {

using namespace biosens;

electrochem::Voltammogram voltammogram_at(const core::CatalogEntry& entry,
                                          Concentration c) {
  const electrode::EffectiveLayer layer =
      electrode::try_synthesize(entry.spec.assembly).value();
  electrochem::Cell cell(layer,
                         chem::calibration_sample("cyclophosphamide", c));
  const electrochem::VoltammetrySim sim(std::move(cell),
                                        electrochem::standard_cyp_sweep());
  return sim.try_run().value();
}

void ascii_plot(const electrochem::Voltammogram& vg) {
  // 56 columns of potential (+0.2 .. -0.6 V), 16 rows of current.
  constexpr int kCols = 56, kRows = 16;
  double imin = 1e9, imax = -1e9;
  for (double i : vg.current_a) {
    imin = std::min(imin, i);
    imax = std::max(imax, i);
  }
  std::vector<std::string> canvas(kRows, std::string(kCols, ' '));
  for (std::size_t k = 0; k < vg.size(); ++k) {
    const int col = static_cast<int>(
        (0.2 - vg.potential_v[k]) / 0.8 * (kCols - 1) + 0.5);
    const int row = static_cast<int>(
        (imax - vg.current_a[k]) / (imax - imin) * (kRows - 1) + 0.5);
    if (col >= 0 && col < kCols && row >= 0 && row < kRows) {
      canvas[row][col] = k < vg.turning_index ? '*' : 'o';
    }
  }
  std::printf("  current %6.2f uA\n", imax * 1e6);
  for (const std::string& line : canvas) std::printf("  |%s\n", line.c_str());
  std::printf("  current %6.2f uA\n", imin * 1e6);
  std::printf("   +0.2 V %*s -0.6 V   (* cathodic sweep, o anodic)\n",
              kCols - 12, "");
}

void print_figure() {
  bench::print_banner("Figure F2",
                      "CYP hysteresis voltammograms (cyclophosphamide)");
  const core::CatalogEntry entry =
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value();

  std::printf("\nvoltammogram at 70 uM cyclophosphamide:\n");
  ascii_plot(voltammogram_at(entry, Concentration::micro_molar(70.0)));

  std::printf("\npeak height vs drug concentration:\n");
  std::printf("  conc [uM] | peak height [uA] | height - blank [uA]\n");
  double blank_height = 0.0;
  for (double um : {0.0, 10.0, 20.0, 30.0, 50.0, 70.0}) {
    const auto vg = voltammogram_at(entry, Concentration::micro_molar(um));
    const auto peak = analysis::try_find_cathodic_peak(vg).value();
    const double h = peak.has_value() ? peak->height_a : 0.0;
    if (um == 0.0) blank_height = h;
    std::printf("  %9.0f | %16.3f | %18.3f\n", um, h * 1e6,
                (h - blank_height) * 1e6);
  }
  std::printf(
      "  (the blank peak is the immobilized heme's own redox couple; the\n"
      "   drug adds a catalytic current proportional to concentration)\n");

  std::printf("\nLaviron diagnostics (peak separation vs scan rate):\n");
  const electrode::EffectiveLayer layer =
      electrode::try_synthesize(entry.spec.assembly).value();
  std::printf("  scan rate [mV/s] | predicted separation [mV]\n");
  for (double mvps : {10.0, 50.0, 200.0, 1000.0, 5000.0}) {
    electrochem::Cell cell(
        layer, chem::calibration_sample("cyclophosphamide",
                                        Concentration::micro_molar(40.0)));
    const electrochem::VoltammetrySim sim(
        std::move(cell),
        electrochem::standard_cyp_sweep(
            ScanRate::millivolts_per_second(mvps)));
    std::printf("  %16.0f | %24.1f\n", mvps,
                sim.peak_separation().millivolts());
  }
}

void BM_PeakExtraction(benchmark::State& state) {
  const core::CatalogEntry entry =
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value();
  const auto vg = voltammogram_at(entry, Concentration::micro_molar(40.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::try_find_cathodic_peak(vg).value());
  }
}
BENCHMARK(BM_PeakExtraction);

void BM_HysteresisArea(benchmark::State& state) {
  const core::CatalogEntry entry =
      core::try_entry("MWCNT + CYP (cyclophosphamide)").value();
  const auto vg = voltammogram_at(entry, Concentration::micro_molar(40.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::try_hysteresis_area(vg).value());
  }
}
BENCHMARK(BM_HysteresisArea);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  return biosens::bench::run_timings(argc, argv);
}
