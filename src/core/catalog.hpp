// The device catalog: every sensor of Table 1 and Table 2.
//
// Each entry pairs a fully *calibrated* SensorSpec (its physical free
// parameters solved by core/design so that the simulation pipeline
// measures the published figures) with the figures the source reports —
// so benches can print measured-vs-published side by side, and tests can
// assert the reproduction.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "core/design.hpp"
#include "core/spec.hpp"

namespace biosens::core {

/// One catalog row: a runnable device plus its published record.
struct CatalogEntry {
  SensorSpec spec;
  PublishedFigures published;
  bool is_platform = false;  ///< true for the paper's own devices
};

/// Table 2, GLUCOSE section: [42], [49], [55], [18] and the platform
/// sensor (in the paper's row order).
[[nodiscard]] std::vector<CatalogEntry> glucose_entries();

/// Table 2, LACTATE section: [41], [57], [19], [16] and the platform
/// sensor.
[[nodiscard]] std::vector<CatalogEntry> lactate_entries();

/// Table 2, GLUTAMATE section: [33], [59], [1] and the platform sensor.
[[nodiscard]] std::vector<CatalogEntry> glutamate_entries();

/// Table 2, CYP section: the four platform drug/fatty-acid sensors.
[[nodiscard]] std::vector<CatalogEntry> cyp_entries();

/// Table 1: the seven sensors the platform itself provides.
[[nodiscard]] std::vector<CatalogEntry> platform_entries();

/// All catalog entries (Table 2 order, platform rows included).
[[nodiscard]] std::vector<CatalogEntry> full_catalog();

/// Extended Table 2, FET section: the two field-effect glucose devices
/// (CNT-network boronic-acid FET, arXiv:1304.7253; graphene PBA
/// Dirac-shift FET, arXiv:1808.05557). Their device physics is solved by
/// fet/design so the same calibration protocol measures the published
/// figures; they are not rows of the paper's own Table 2, so
/// full_catalog() excludes them.
[[nodiscard]] std::vector<CatalogEntry> fet_entries();

/// full_catalog() plus the FET section — the extended, multi-transduction
/// Table 2 the benches print.
[[nodiscard]] std::vector<CatalogEntry> extended_catalog();

/// Extension devices for the remaining drugs of the multi-panel study
/// [9] (benzphetamine, dextromethorphan, naproxen, flurbiprofen). Their
/// published figures are *representative* of [9]-era CYP/SPE sensors,
/// not Table 2 rows — they exist to exercise the multi-drug panel and
/// deconvolution machinery at full width.
[[nodiscard]] std::vector<CatalogEntry> extension_entries();

/// Finds an entry by device name; a core-layer spec error when absent.
[[nodiscard]] Expected<CatalogEntry> try_entry(std::string_view name);

}  // namespace biosens::core
