// Electrode geometries and materials.
//
// The paper uses two electrode technologies (Section 3.1):
//  - disposable screen-printed electrodes (SPE, Dropsens): graphite
//    working/counter, Ag pseudo-reference, working area 13 mm^2;
//  - a microfabricated chip with five Au working microelectrodes
//    (0.25 mm^2 each), an Au counter and a Pt pseudo-reference.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "common/units.hpp"

namespace biosens::electrode {

/// Working-electrode material.
enum class Material {
  kGraphite,      ///< screen-printed carbon paste
  kGold,          ///< evaporated/microfabricated Au
  kPlatinum,      ///< Pt disc/film
  kGlassyCarbon,  ///< polished glassy carbon disc
};

/// Reference-electrode chemistry; shifts all applied potentials.
enum class ReferenceType {
  kAgAgCl,    ///< Ag/AgCl (3 M KCl)
  kAgPseudo,  ///< bare Ag pseudo-reference (screen-printed)
  kPtPseudo,  ///< Pt pseudo-reference (microfabricated chip)
};

/// Immutable description of a three-electrode cell geometry.
struct Geometry {
  std::string name;
  Material working_material = Material::kGraphite;
  ReferenceType reference = ReferenceType::kAgPseudo;
  Area working_area;
  /// Specific double-layer capacitance of the *bare* working surface.
  Capacitance capacitance_per_cm2 = Capacitance::micro_farads(20.0);
  /// Uncompensated solution resistance of the cell.
  Resistance solution_resistance = Resistance::ohms(150.0);
  /// Electrode-level rms blank-current noise per mm^2 of geometric area;
  /// screen-printed carbon is noisier than microfabricated gold.
  Current base_noise_per_mm2 = Current::pico_amps(400.0);
  /// Smallest sample volume that wets the cell.
  Volume min_sample_volume = Volume::microliters(50.0);

  /// Total double-layer capacitance of the bare electrode.
  [[nodiscard]] Capacitance double_layer_capacitance() const;
};

/// Disposable Dropsens-style screen-printed electrode (13 mm^2 graphite).
[[nodiscard]] Geometry screen_printed_electrode();

/// Microfabricated Au working electrode (0.25 mm^2), per [3].
[[nodiscard]] Geometry microfabricated_gold();

/// Conventional glassy-carbon disc (3 mm diameter), common in the
/// literature comparators of Table 2.
[[nodiscard]] Geometry glassy_carbon_disc();

/// Pt disc microelectrode used by the glutamate comparators.
[[nodiscard]] Geometry platinum_disc();

/// All built-in geometries.
[[nodiscard]] std::span<const Geometry> geometry_catalog();

/// Reference-electrode offset relative to Ag/AgCl [V]; applied potentials
/// are internally normalized to the Ag/AgCl scale.
[[nodiscard]] Potential reference_offset(ReferenceType type);

[[nodiscard]] std::string_view to_string(Material m);

}  // namespace biosens::electrode
