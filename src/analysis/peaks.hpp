// Voltammogram analysis: baseline-corrected peak extraction and
// hysteresis metrics.
//
// "The hysteresis plot gives qualitative and quantitative information
// about the detected target. In particular, the peak height is
// proportional to drug concentration." (Section 3.1)
#pragma once

#include <optional>

#include "common/expected.hpp"
#include "common/units.hpp"
#include "electrochem/dpv.hpp"
#include "electrochem/trace.hpp"

namespace biosens::analysis {

/// One extracted voltammetric peak.
struct Peak {
  double potential_v = 0.0;  ///< peak position
  double height_a = 0.0;     ///< baseline-corrected magnitude (>= 0)
  double baseline_a = 0.0;   ///< extrapolated baseline at the peak
  std::size_t index = 0;     ///< sample index within the voltammogram
};

/// Extracts the cathodic (reduction) peak: the largest negative
/// deviation from a linear baseline fitted on the early, pre-peak part
/// of the cathodic branch. Returns nullopt when no dip exceeds the
/// baseline spread. A malformed voltammogram (too short, turning index
/// out of range, a branch whose potentials do not vary) is a structured
/// analysis error; an absent peak is still a nullopt *success*.
[[nodiscard]] Expected<std::optional<Peak>> try_find_cathodic_peak(
    const electrochem::Voltammogram& vg);

/// Extracts the anodic (oxidation) peak from the anodic branch; errors
/// as try_find_cathodic_peak().
[[nodiscard]] Expected<std::optional<Peak>> try_find_anodic_peak(
    const electrochem::Voltammogram& vg);

/// Signed area enclosed by the hysteresis loop [V*A]; grows with the
/// surface coverage of the redox protein and the capacitive background.
[[nodiscard]] Expected<double> try_hysteresis_area(
    const electrochem::Voltammogram& vg);

/// Separation between anodic and cathodic peak potentials, when both
/// exist (Laviron kinetics diagnostic). Throws AnalysisError on a
/// malformed voltammogram.
[[nodiscard]] std::optional<Potential> peak_separation(
    const electrochem::Voltammogram& vg);

/// Extracts the (cathodic, negative-going) peak of a differential-pulse
/// trace: the largest downward excursion from the flat pre-peak
/// baseline. DPV has already cancelled the capacitive background, so the
/// baseline is the median of the leading fifth of the trace.
[[nodiscard]] std::optional<Peak> find_dpv_peak(
    const electrochem::DpvTrace& trace);

}  // namespace biosens::analysis
