#include "core/spec.hpp"

#include <algorithm>

namespace biosens::core {

Expected<void> SensorSpec::try_validate() const {
  if (technique == Technique::kFieldEffectTransfer) {
    // Field-effect specs carry no enzymatic assembly; the device params
    // are the whole physical description.
    BIOSENS_EXPECT(!name.empty(), ErrorCode::kSpec, Layer::kCore, "spec",
                   "sensor needs a name");
    BIOSENS_EXPECT(!target.empty(), ErrorCode::kSpec, Layer::kCore, "spec",
                   "field-effect sensor needs a target: " + name);
    BIOSENS_EXPECT(fet.has_value(), ErrorCode::kSpec, Layer::kCore, "spec",
                   "field-effect spec needs device params: " + name);
    if (auto d = fet->try_validate(); !d) {
      return ctx("validate spec " + name, std::move(d));
    }
    return ok();
  }
  BIOSENS_EXPECT(!fet.has_value(), ErrorCode::kSpec, Layer::kCore, "spec",
                 "only field-effect specs carry device params: " + name);
  if (auto a = assembly.try_validate(); !a) {
    return ctx("validate spec " + name, std::move(a));
  }
  BIOSENS_EXPECT(!name.empty(), ErrorCode::kSpec, Layer::kCore, "spec",
                 "sensor needs a name");
  BIOSENS_EXPECT(target == assembly.substrate, ErrorCode::kSpec, Layer::kCore,
                 "spec",
                 "sensor target '" + target +
                     "' differs from assembly substrate '" +
                     assembly.substrate + "'");

  const chem::EnzymeFamily family = assembly.enzyme.family;
  switch (technique) {
    case Technique::kChronoamperometry:
      BIOSENS_EXPECT(
          family == chem::EnzymeFamily::kOxidase, ErrorCode::kSpec,
          Layer::kCore, "spec",
          "chronoamperometry requires an oxidase probe (H2O2 readout): " +
              name);
      BIOSENS_EXPECT(ca_hold.seconds() > 0.0, ErrorCode::kSpec, Layer::kCore,
                     "spec", "hold time must be positive: " + name);
      // H2O2 oxidation needs a sufficiently anodic step.
      BIOSENS_EXPECT(ca_step_potential.millivolts() >= 400.0,
                     ErrorCode::kSpec, Layer::kCore, "spec",
                     "oxidase step potential must be >= +400 mV "
                     "to oxidize H2O2: " +
                         name);
      break;
    case Technique::kCyclicVoltammetry:
    case Technique::kDifferentialPulseVoltammetry: {
      BIOSENS_EXPECT(
          family == chem::EnzymeFamily::kCytochromeP450, ErrorCode::kSpec,
          Layer::kCore, "spec",
          "voltammetric detection requires a CYP probe (direct electron "
          "transfer): " +
              name);
      BIOSENS_EXPECT(cv_scan_rate.volts_per_second() > 0.0, ErrorCode::kSpec,
                     Layer::kCore, "spec",
                     "scan rate must be positive: " + name);
      const double e0 = assembly.enzyme.formal_potential.volts();
      const double lo = std::min(cv_start.volts(), cv_vertex.volts());
      const double hi = std::max(cv_start.volts(), cv_vertex.volts());
      BIOSENS_EXPECT(
          e0 > lo + 0.1 && e0 < hi - 0.1, ErrorCode::kSpec, Layer::kCore,
          "spec",
          "voltammetric window must bracket the enzyme formal potential "
          "with 100 mV margin: " +
              name);
      break;
    }
    case Technique::kFieldEffectTransfer:
      break;  // fully handled by the early return above
  }
  return ok();
}

std::string_view to_string(Technique t) {
  switch (t) {
    case Technique::kChronoamperometry:
      return "chronoamperometry";
    case Technique::kCyclicVoltammetry:
      return "cyclic voltammetry";
    case Technique::kDifferentialPulseVoltammetry:
      return "differential pulse voltammetry";
    case Technique::kFieldEffectTransfer:
      return "field-effect transfer";
  }
  return "unknown";
}

}  // namespace biosens::core
