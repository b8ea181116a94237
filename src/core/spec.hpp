// SensorSpec: the typed composition at the heart of the platform.
//
// Section 3 of the paper characterizes its biosensor along five axes —
// target, sensing element, transduction mechanism, nanotechnology,
// electrode type — and builds devices by *composing* choices along these
// axes under compositional rules (oxidases pair with chronoamperometry,
// CYP isoforms with cyclic voltammetry). SensorSpec encodes exactly that:
// an Assembly (the chemical component) plus a measurement technique and
// its protocol parameters, validated for mutual consistency.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/units.hpp"
#include "electrode/assembly.hpp"
#include "fet/device.hpp"

namespace biosens::core {

/// Transduction technique. The first three run on the amperometric
/// (electrochemical) backend, the last on the field-effect one
/// (docs/transducers.md).
enum class Technique {
  kChronoamperometry,            ///< potential step, steady-state current
  kCyclicVoltammetry,            ///< triangular sweep, peak height
  kDifferentialPulseVoltammetry, ///< staircase + pulses (extension)
  kFieldEffectTransfer           ///< FET gate sweep + fixed-bias hold
};

/// A complete sensor specification.
struct SensorSpec {
  std::string name;      ///< human-readable device name
  std::string citation;  ///< "this work" or the Table 2 reference tag
  std::string target;    ///< species to quantify (== assembly.substrate)
  Technique technique = Technique::kChronoamperometry;
  /// The chemical component of the amperometric family; ignored by
  /// field-effect specs (whose physics lives entirely in `fet`), except
  /// for the geometry fields the platform scheduler and volume budget
  /// read (working_area, min_sample_volume).
  electrode::Assembly assembly;
  /// Device description of a field-effect spec; must be set if and only
  /// if technique == kFieldEffectTransfer.
  std::optional<fet::DeviceParams> fet;

  // Protocol parameters.
  Potential ca_step_potential = Potential::millivolts(650.0);
  Time ca_hold = Time::seconds(30.0);
  ScanRate cv_scan_rate = ScanRate::millivolts_per_second(50.0);
  Potential cv_start = Potential::millivolts(200.0);
  Potential cv_vertex = Potential::millivolts(-600.0);

  /// Validates the full composition:
  ///  - target must equal the assembly substrate, and the enzyme must
  ///    turn it over;
  ///  - oxidases must use chronoamperometry, CYP isoforms a voltammetric
  ///    technique (the paper's Table 1 pairings);
  ///  - voltammetric windows must bracket the enzyme's formal potential;
  ///  - the assembly itself must be physical.
  /// A spec error on violation.
  [[nodiscard]] Expected<void> try_validate() const;

  /// True when the CYP/voltammetric family is used. Explicit enumeration
  /// (not "anything but chronoamperometry"): field-effect transfer is
  /// neither amperometric-steady-state nor voltammetric.
  [[nodiscard]] bool is_voltammetric() const {
    return technique == Technique::kCyclicVoltammetry ||
           technique == Technique::kDifferentialPulseVoltammetry;
  }
};

[[nodiscard]] std::string_view to_string(Technique t);

}  // namespace biosens::core
