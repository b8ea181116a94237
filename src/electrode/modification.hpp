// Surface modifications: the nanomaterial layer between electrode and
// enzyme.
//
// Section 2.4 of the paper surveys nanomaterial strategies; Section 3 uses
// multi-walled carbon nanotubes (MWCNT, 10 nm diameter, 1-2 um length)
// dispersed either in Nafion 0.5% (oxidase sensors, drop-cast on Au) or in
// chloroform (CYP sensors, on screen-printed carbon). The comparator rows
// of Table 2 use the other strategies modeled here (CNT mats, sol-gel
// films, N-doped CNT, titanate nanotubes, CNT paste, polymer matrices).
//
// A modification changes four things, each captured as a multiplicative
// descriptor relative to the bare electrode:
//  - area_enhancement: electroactive-to-geometric area ratio (CNT "forest"
//    roughness); scales enzyme loading and double-layer capacitance;
//  - transfer_efficiency: fraction of immobilized enzyme that is
//    electrically wired to the electrode (the paper's "excellent electron
//    transfer" of CNT); scales the catalytic current;
//  - km_multiplier: apparent-K_M scaling from the film's diffusion
//    barrier (a dense film raises K_M_app and widens the linear range);
//  - noise_multiplier: background/noise scaling of the modified surface.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/expected.hpp"
#include "common/units.hpp"

namespace biosens::electrode {

/// Descriptor bundle of one surface-modification strategy.
struct Modification {
  std::string name;         ///< e.g. "MWCNT/Nafion"
  std::string description;  ///< provenance note (paper/reference)
  double area_enhancement = 1.0;    ///< electroactive area ratio, >= 1
  double transfer_efficiency = 1.0; ///< wired-enzyme fraction in (0, 1]
  double km_multiplier = 1.0;       ///< apparent K_M scaling, > 0
  double noise_multiplier = 1.0;    ///< blank-noise scaling, > 0
  /// Heterogeneous electron-transfer rate constant of the modified
  /// surface (Laviron k_s); CNT raise it by orders of magnitude.
  Rate electron_transfer_rate = Rate::per_second(1.0);
  /// Fraction of interferent flux the film lets through; permselective
  /// films (Nafion rejects anionic ascorbate/urate) push this toward 0.
  double interferent_transmission = 1.0;

  /// Validates ranges; an electrode-layer spec error when out of
  /// physical bounds.
  [[nodiscard]] Expected<void> try_validate() const;
};

/// Bare, unmodified electrode (enzyme physisorbed directly; most of it
/// is not wired — the paper's motivation for CNT).
[[nodiscard]] Modification bare_surface();

/// MWCNT dispersed in Nafion 0.5%, drop-cast (the platform's oxidase
/// configuration, after Wang et al. [54]).
[[nodiscard]] Modification mwcnt_nafion();

/// MWCNT dispersed in chloroform, drop-cast on SPE (the platform's CYP
/// configuration).
[[nodiscard]] Modification mwcnt_chloroform();

/// Free-standing CNT mat electrode (Ryu et al. [42]).
[[nodiscard]] Modification cnt_mat();

/// Butyric-acid functionalized MWCNT (Hua et al. [18]).
[[nodiscard]] Modification mwcnt_butyric_acid();

/// MWCNT grown and coated with evaporated Au film (Wang et al. [55]).
[[nodiscard]] Modification mwcnt_gold_film();

/// MWCNT embedded in sol-gel silicate film (Huang et al. [19]).
[[nodiscard]] Modification mwcnt_sol_gel();

/// Nitrogen-doped CNT with modified Nafion (Goran et al. [16]).
[[nodiscard]] Modification n_doped_cnt_nafion();

/// Titanate (non-carbon) nanotubes (Yang et al. [57]).
[[nodiscard]] Modification titanate_nanotube();

/// MWCNT/mineral-oil paste electrode (Rubianes & Rivas [41]).
[[nodiscard]] Modification mwcnt_mineral_oil();

/// Cast polyurethane/MWCNT with polypyrrole-entrapped enzyme
/// (Ammam & Fransaer [1]).
[[nodiscard]] Modification pu_mwcnt_polypyrrole();

/// Plain Nafion film, no nanomaterial (Pan & Arnold [33]).
[[nodiscard]] Modification nafion_film();

/// Chitosan film, no nanomaterial (Zhang et al. [59]).
[[nodiscard]] Modification chitosan_film();

/// All built-in modifications.
[[nodiscard]] std::span<const Modification> modification_catalog();

/// Finds a modification by name.
[[nodiscard]] std::optional<Modification> find_modification(
    std::string_view name);

}  // namespace biosens::electrode
