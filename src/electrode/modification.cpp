#include "electrode/modification.hpp"

#include <vector>

#include "common/error.hpp"

namespace biosens::electrode {

Expected<void> Modification::try_validate() const {
  BIOSENS_EXPECT(area_enhancement >= 1.0, ErrorCode::kSpec,
                 Layer::kElectrode, "modification",
                 "area_enhancement must be >= 1: " + name);
  BIOSENS_EXPECT(transfer_efficiency > 0.0 && transfer_efficiency <= 1.0,
                 ErrorCode::kSpec, Layer::kElectrode, "modification",
                 "transfer_efficiency must be in (0, 1]: " + name);
  BIOSENS_EXPECT(km_multiplier > 0.0, ErrorCode::kSpec, Layer::kElectrode,
                 "modification", "km_multiplier must be positive: " + name);
  BIOSENS_EXPECT(noise_multiplier > 0.0, ErrorCode::kSpec, Layer::kElectrode,
                 "modification",
                 "noise_multiplier must be positive: " + name);
  BIOSENS_EXPECT(electron_transfer_rate.per_second() > 0.0, ErrorCode::kSpec,
                 Layer::kElectrode, "modification",
                 "electron_transfer_rate must be positive: " + name);
  BIOSENS_EXPECT(
      interferent_transmission >= 0.0 && interferent_transmission <= 1.0,
      ErrorCode::kSpec, Layer::kElectrode, "modification",
      "interferent_transmission must be in [0, 1]: " + name);
  return ok();
}

// The descriptor values below are chosen so that, composed with the
// geometry and immobilization models, each strategy lands in the
// performance regime its source reports (see core/catalog.cpp for the
// per-device fine calibration). The *ordering* is the physical story the
// paper tells: CNT-based films wire an order of magnitude more enzyme
// than plain polymer films, at the cost of a higher background.

Modification bare_surface() {
  return {"bare",
          "unmodified electrode, physisorbed enzyme",
          1.0,
          0.02,
          1.0,
          1.0,
          Rate::per_second(0.05)};
}

Modification mwcnt_nafion() {
  Modification m = {"MWCNT/Nafion",
          "MWCNT (10 nm x 1-2 um) dispersed in Nafion 0.5%, drop-cast; "
          "platform oxidase configuration [54]",
          14.0,
          0.85,
          0.9,
          1.0,
          Rate::per_second(12.0)};
  m.interferent_transmission = 0.10;  // Nafion rejects anionic interferents
  return m;
}

Modification mwcnt_chloroform() {
  return {"MWCNT/chloroform",
          "MWCNT dispersed in chloroform on SPE; platform CYP "
          "configuration",
          16.0,
          0.80,
          1.0,
          1.1,
          Rate::per_second(9.0)};
}

Modification cnt_mat() {
  return {"CNT mat",
          "free-standing CNT network electrode, covalent GOD [42]",
          6.0,
          0.35,
          4.0,
          1.2,
          Rate::per_second(5.0)};
}

Modification mwcnt_butyric_acid() {
  return {"MWCNT-BA",
          "1-one-butyric-acid functionalized MWCNT [18]",
          10.0,
          0.60,
          3.5,
          1.1,
          Rate::per_second(7.0)};
}

Modification mwcnt_gold_film() {
  return {"MWCNT + Au film",
          "grown MWCNT with evaporated Au, drop-cast GOD [55]",
          9.0,
          0.50,
          9.0,
          1.0,
          Rate::per_second(6.0)};
}

Modification mwcnt_sol_gel() {
  return {"MWCNT + sol-gel",
          "MWCNT in sol-gel silicate matrix on glassy carbon [19]",
          5.0,
          0.30,
          1.6,
          0.7,
          Rate::per_second(3.0)};
}

Modification n_doped_cnt_nafion() {
  Modification m = {"N-doped CNT/Nafion",
          "nitrogen-doped CNT, LOD, modified Nafion on glassy carbon [16]",
          15.0,
          0.90,
          0.45,
          1.0,
          Rate::per_second(15.0)};
  m.interferent_transmission = 0.12;
  return m;
}

Modification titanate_nanotube() {
  return {"Titanate NT",
          "titanate nanotubes as electron-transfer promoter [57]",
          3.0,
          0.10,
          12.0,
          0.9,
          Rate::per_second(0.8)};
}

Modification mwcnt_mineral_oil() {
  return {"MWCNT/mineral oil",
          "CNT paste electrode (CNT + mineral oil) [41]",
          2.5,
          0.08,
          9.0,
          0.8,
          Rate::per_second(0.5)};
}

Modification pu_mwcnt_polypyrrole() {
  return {"PU/MWCNT + PP",
          "cast polyurethane/AC-electrophoresis MWCNT, enzyme in "
          "polypyrrole on Pt [1]",
          22.0,
          0.92,
          0.55,
          1.3,
          Rate::per_second(18.0)};
}

Modification nafion_film() {
  Modification m = {"Nafion film",
          "plain Nafion permselective film, no nanomaterial [33]",
          1.2,
          0.12,
          0.06,
          0.6,
          Rate::per_second(0.6)};
  m.interferent_transmission = 0.05;  // the whole point of [33]
  return m;
}

Modification chitosan_film() {
  // [59] reports chitosan itself acting as an electron-transfer
  // promoter; the wired fraction is correspondingly high for a
  // nanomaterial-free film.
  Modification m = {"Chitosan film",
          "chitosan hydrogel enzyme film, no nanomaterial [59]",
          2.0,
          0.75,
          0.8,
          0.7,
          Rate::per_second(1.2)};
  m.interferent_transmission = 0.5;
  return m;
}

std::span<const Modification> modification_catalog() {
  static const std::vector<Modification> kCatalog = {
      bare_surface(),        mwcnt_nafion(),       mwcnt_chloroform(),
      cnt_mat(),             mwcnt_butyric_acid(), mwcnt_gold_film(),
      mwcnt_sol_gel(),       n_doped_cnt_nafion(), titanate_nanotube(),
      mwcnt_mineral_oil(),   pu_mwcnt_polypyrrole(), nafion_film(),
      chitosan_film()};
  return kCatalog;
}

std::optional<Modification> find_modification(std::string_view name) {
  for (const Modification& m : modification_catalog()) {
    if (m.name == name) return m;
  }
  return std::nullopt;
}

}  // namespace biosens::electrode
