// Raw simulator outputs: current-vs-time traces and voltammograms.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/expected.hpp"

namespace biosens::electrochem {

/// A sampled current-vs-time trace (chronoamperometry output).
struct TimeSeries {
  std::vector<double> time_s;
  std::vector<double> current_a;

  [[nodiscard]] std::size_t size() const { return time_s.size(); }
  [[nodiscard]] bool empty() const { return time_s.empty(); }

  void push(double t, double i) {
    time_s.push_back(t);
    current_a.push_back(i);
  }

  /// The paired-array invariant: a trace built by anything other than
  /// push() may desynchronize time_s and current_a; accessors check it.
  [[nodiscard]] Expected<void> try_validate() const {
    BIOSENS_EXPECT(time_s.size() == current_a.size(), ErrorCode::kAnalysis,
                   Layer::kElectrochem, "trace",
                   "time and current arrays have different lengths");
    return ok();
  }

  /// Mean current over the trailing fraction of the trace (steady-state
  /// readout window). `fraction` in (0, 1]. The window always contains
  /// at least one sample: floor(fraction * n) clamped up to 1, never
  /// past the start of the trace (the old code under-flowed
  /// `n - floor(fraction*n)` for tiny fractions and then silently
  /// clamped; the window arithmetic is now exact by construction).
  [[nodiscard]] Expected<double> try_tail_mean_a(
      double fraction = 0.1) const {
    BIOSENS_EXPECT(!empty(), ErrorCode::kAnalysis, Layer::kElectrochem,
                   "tail_mean_a", "tail of empty trace");
    BIOSENS_EXPECT(fraction > 0.0 && fraction <= 1.0, ErrorCode::kAnalysis,
                   Layer::kElectrochem, "tail_mean_a",
                   "tail fraction must be in (0, 1]");
    if (auto v = try_validate(); !v) return ctx("tail_mean_a", v).error();
    const std::size_t n = time_s.size();
    const std::size_t count = std::max<std::size_t>(
        1, static_cast<std::size_t>(fraction * static_cast<double>(n)));
    const std::size_t start = n - count;
    double sum = 0.0;
    for (std::size_t i = start; i < n; ++i) sum += current_a[i];
    return sum / static_cast<double>(count);
  }
};

/// A sampled current-vs-potential curve (cyclic voltammetry output).
/// Points are stored in sweep order, so the forward and reverse branches
/// trace the hysteresis loop the paper describes.
struct Voltammogram {
  std::vector<double> potential_v;
  std::vector<double> current_a;
  /// Index of the first point of the reverse sweep.
  std::size_t turning_index = 0;

  [[nodiscard]] std::size_t size() const { return potential_v.size(); }
  [[nodiscard]] bool empty() const { return potential_v.empty(); }

  void push(double e, double i) {
    potential_v.push_back(e);
    current_a.push_back(i);
  }

  /// Paired-array and turning-point invariants of a well-formed sweep.
  [[nodiscard]] Expected<void> try_validate() const {
    BIOSENS_EXPECT(potential_v.size() == current_a.size(),
                   ErrorCode::kAnalysis, Layer::kElectrochem, "voltammogram",
                   "potential and current arrays have different lengths");
    BIOSENS_EXPECT(turning_index <= size(), ErrorCode::kAnalysis,
                   Layer::kElectrochem, "voltammogram",
                   "turning index lies beyond the sweep");
    return ok();
  }
};

}  // namespace biosens::electrochem
