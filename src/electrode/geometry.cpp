#include "electrode/geometry.hpp"

#include <array>

namespace biosens::electrode {

Capacitance Geometry::double_layer_capacitance() const {
  return Capacitance::farads(capacitance_per_cm2.farads() *
                             working_area.square_centimeters());
}

Geometry screen_printed_electrode() {
  Geometry g;
  g.name = "screen-printed carbon (Dropsens)";
  g.working_material = Material::kGraphite;
  g.reference = ReferenceType::kAgPseudo;
  g.working_area = Area::square_millimeters(13.0);
  g.capacitance_per_cm2 = Capacitance::micro_farads(24.0);
  g.solution_resistance = Resistance::ohms(220.0);
  g.base_noise_per_mm2 = Current::pico_amps(600.0);
  g.min_sample_volume = Volume::microliters(50.0);
  return g;
}

Geometry microfabricated_gold() {
  Geometry g;
  g.name = "microfabricated Au chip";
  g.working_material = Material::kGold;
  g.reference = ReferenceType::kPtPseudo;
  g.working_area = Area::square_millimeters(0.25);
  g.capacitance_per_cm2 = Capacitance::micro_farads(18.0);
  g.solution_resistance = Resistance::ohms(350.0);
  g.base_noise_per_mm2 = Current::pico_amps(370.0);
  // Microfluidic-scale cell: miniaturization shrinks the required sample.
  g.min_sample_volume = Volume::microliters(5.0);
  return g;
}

Geometry glassy_carbon_disc() {
  Geometry g;
  g.name = "glassy carbon disc (3 mm)";
  g.working_material = Material::kGlassyCarbon;
  g.reference = ReferenceType::kAgAgCl;
  g.working_area = Area::square_millimeters(7.07);
  g.capacitance_per_cm2 = Capacitance::micro_farads(22.0);
  g.solution_resistance = Resistance::ohms(120.0);
  g.base_noise_per_mm2 = Current::pico_amps(450.0);
  g.min_sample_volume = Volume::milliliters(2.0);
  return g;
}

Geometry platinum_disc() {
  Geometry g;
  g.name = "Pt disc (1 mm)";
  g.working_material = Material::kPlatinum;
  g.reference = ReferenceType::kAgAgCl;
  g.working_area = Area::square_millimeters(0.785);
  g.capacitance_per_cm2 = Capacitance::micro_farads(20.0);
  g.solution_resistance = Resistance::ohms(180.0);
  g.base_noise_per_mm2 = Current::pico_amps(420.0);
  g.min_sample_volume = Volume::milliliters(1.0);
  return g;
}

std::span<const Geometry> geometry_catalog() {
  static const std::array<Geometry, 4> kCatalog = {
      screen_printed_electrode(), microfabricated_gold(),
      glassy_carbon_disc(), platinum_disc()};
  return kCatalog;
}

Potential reference_offset(ReferenceType type) {
  switch (type) {
    case ReferenceType::kAgAgCl:
      return Potential::volts(0.0);
    case ReferenceType::kAgPseudo:
      return Potential::millivolts(-15.0);
    case ReferenceType::kPtPseudo:
      return Potential::millivolts(55.0);
  }
  return Potential::volts(0.0);
}

std::string_view to_string(Material m) {
  switch (m) {
    case Material::kGraphite:
      return "graphite";
    case Material::kGold:
      return "gold";
    case Material::kPlatinum:
      return "platinum";
    case Material::kGlassyCarbon:
      return "glassy carbon";
  }
  return "unknown";
}

}  // namespace biosens::electrode
