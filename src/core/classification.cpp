#include "core/classification.hpp"

#include "chem/species.hpp"

namespace biosens::core {
namespace {

classify::TargetClass target_class_of(const std::string& species) {
  switch (chem::try_species(species).value()->kind) {
    case chem::SpeciesKind::kDrug:
      return classify::TargetClass::kDrug;
    case chem::SpeciesKind::kMetabolite:
    case chem::SpeciesKind::kFattyAcid:
    case chem::SpeciesKind::kInterferent:
    case chem::SpeciesKind::kMediator:
      return classify::TargetClass::kMetabolite;
  }
  return classify::TargetClass::kMetabolite;
}

classify::Nanomaterial nanomaterial_of(
    const electrode::Modification& mod) {
  // The descriptor names follow the paper's vocabulary.
  if (mod.name.find("CNT") != std::string::npos) {
    return mod.name.find("Titanate") != std::string::npos
               ? classify::Nanomaterial::kOtherNanotube
               : classify::Nanomaterial::kCarbonNanotube;
  }
  if (mod.name.find("Titanate") != std::string::npos) {
    return classify::Nanomaterial::kOtherNanotube;
  }
  return classify::Nanomaterial::kNone;
}

classify::ElectrodeTechnology electrode_of(
    const electrode::Geometry& geometry) {
  if (geometry.working_area < Area::square_millimeters(1.0)) {
    return classify::ElectrodeTechnology::kMicrofabricated;
  }
  if (geometry.working_material == electrode::Material::kGraphite) {
    return classify::ElectrodeTechnology::kDisposable;
  }
  return classify::ElectrodeTechnology::kConventional;
}

}  // namespace

Classification classify_spec(const SensorSpec& spec) {
  Classification c;
  c.target = target_class_of(spec.target);
  c.element = classify::SensingElement::kEnzyme;
  c.transduction = classify::Transduction::kAmperometric;
  c.nanomaterial = nanomaterial_of(spec.assembly.modification);
  c.electrode = electrode_of(spec.assembly.geometry);
  return c;
}

}  // namespace biosens::core
