// Shared helpers for the benchmark binaries.
//
// Every bench prints the table/series it regenerates (measured vs the
// paper's published values), then runs its registered google-benchmark
// timings for the underlying simulation kernels.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/catalog.hpp"
#include "core/protocol.hpp"

namespace biosens::bench {

/// One measured Table 2 row.
struct Row {
  std::string device;
  std::string citation;
  core::PublishedFigures published;
  analysis::CalibrationResult measured;
  bool is_platform = false;
};

/// Runs the standard calibration for one catalog entry.
inline Row measure_entry(const core::CatalogEntry& entry, Rng& rng) {
  const core::BiosensorModel sensor(entry.spec);
  const core::CalibrationProtocol protocol;
  const auto series = core::standard_series(entry.published.range_low,
                                            entry.published.range_high);
  Row row;
  row.device = entry.spec.name;
  row.citation = entry.spec.citation;
  row.published = entry.published;
  row.measured = protocol.try_run(sensor, series, rng).value().result;
  row.is_platform = entry.is_platform;
  return row;
}

/// Writes a measured-vs-published CSV next to the printed table when
/// BIOSENS_EXPORT_DIR is set (so EXPERIMENTS.md data can be regenerated
/// as files).
inline void maybe_export_csv(const char* title,
                             const std::vector<Row>& rows) {
  const char* dir = std::getenv("BIOSENS_EXPORT_DIR");
  if (dir == nullptr) return;
  Table table({"device", "citation", "sensitivity_measured_uA_mM_cm2",
               "sensitivity_paper", "range_low_mM", "range_high_measured_mM",
               "range_high_paper_mM", "lod_measured_uM", "lod_paper_uM"});
  for (const Row& r : rows) {
    char sens_m[32], sens_p[32], lo[32], hi_m[32], hi_p[32], lod_m[32],
        lod_p[32];
    std::snprintf(sens_m, sizeof(sens_m), "%.6g",
                  r.measured.sensitivity.micro_amp_per_milli_molar_cm2());
    std::snprintf(sens_p, sizeof(sens_p), "%.6g",
                  r.published.sensitivity.micro_amp_per_milli_molar_cm2());
    std::snprintf(lo, sizeof(lo), "%.6g",
                  r.published.range_low.milli_molar());
    std::snprintf(hi_m, sizeof(hi_m), "%.6g",
                  r.measured.linear_range_high.milli_molar());
    std::snprintf(hi_p, sizeof(hi_p), "%.6g",
                  r.published.range_high.milli_molar());
    std::snprintf(lod_m, sizeof(lod_m), "%.6g",
                  r.measured.lod.micro_molar());
    if (r.published.lod.has_value()) {
      std::snprintf(lod_p, sizeof(lod_p), "%.6g",
                    r.published.lod->micro_molar());
    } else {
      std::snprintf(lod_p, sizeof(lod_p), "-");
    }
    table.add_row({r.device, r.citation, sens_m, sens_p, lo, hi_m, hi_p,
                   lod_m, lod_p});
  }
  const std::string path =
      std::string(dir) + "/table2_" + title + ".csv";
  Table::write_file(path, table.to_csv());
  std::printf("(exported %s)\n", path.c_str());
}

/// Prints one Table 2 section in the paper's format, measured first.
inline void print_table2_section(const char* title,
                                 const std::vector<Row>& rows) {
  std::printf("\n%s\n", title);
  std::printf(
      "%-28s | %22s | %22s | %18s\n", "Modification",
      "Sensitivity [uA/mM/cm2]", "Linear range [mM]", "LOD [uM]");
  std::printf(
      "%-28s | %10s / %9s | %10s / %9s | %8s / %7s\n", "", "measured",
      "paper", "measured", "paper", "measured", "paper");
  std::printf(
      "-----------------------------+------------------------+------------"
      "------------+-------------------\n");
  for (const Row& r : rows) {
    char range_meas[32], range_pub[32], lod_meas[16], lod_pub[16];
    std::snprintf(range_meas, sizeof(range_meas), "%g-%g",
                  r.measured.linear_range_low.milli_molar(),
                  r.measured.linear_range_high.milli_molar());
    std::snprintf(range_pub, sizeof(range_pub), "%g-%g",
                  r.published.range_low.milli_molar(),
                  r.published.range_high.milli_molar());
    std::snprintf(lod_meas, sizeof(lod_meas), "%.2g",
                  r.measured.lod.micro_molar());
    if (r.published.lod.has_value()) {
      std::snprintf(lod_pub, sizeof(lod_pub), "%.2g",
                    r.published.lod->micro_molar());
    } else {
      std::snprintf(lod_pub, sizeof(lod_pub), "-");
    }
    const std::string label =
        r.device + (r.is_platform ? " (this work)" : " " + r.citation);
    std::printf("%-28s | %10.2f / %9.2f | %10s / %9s | %8s / %7s\n",
                label.c_str(),
                r.measured.sensitivity.micro_amp_per_milli_molar_cm2(),
                r.published.sensitivity.micro_amp_per_milli_molar_cm2(),
                range_meas, range_pub, lod_meas, lod_pub);
  }
  maybe_export_csv(title, rows);
}

/// Prints the header line common to all benches.
inline void print_banner(const char* experiment, const char* what) {
  std::printf(
      "==============================================================\n"
      "%s\n%s\n"
      "(De Micheli et al., \"Integrated Biosensors for Personalized "
      "Medicine\", DAC 2012)\n"
      "==============================================================\n",
      experiment, what);
}

/// Runs the registered google-benchmark timings (call at the end of
/// main, after the tables have been printed).
inline int run_timings(int argc, char** argv) {
  std::printf("\n--- kernel timings (google-benchmark) ---\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace biosens::bench
