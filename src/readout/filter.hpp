// Digital post-filters applied to the sampled trace.
#pragma once

#include <cstddef>
#include <deque>

#include "common/units.hpp"

namespace biosens::readout {

/// Streaming boxcar (moving-average) filter.
class MovingAverage {
 public:
  explicit MovingAverage(std::size_t window);

  /// Pushes a sample, returns the current average of the last `window`
  /// samples (or of all samples seen, before the window fills).
  [[nodiscard]] double push(double x);

  [[nodiscard]] std::size_t window() const { return window_; }

 private:
  std::size_t window_;
  std::deque<double> buf_;
  double sum_ = 0.0;
};

}  // namespace biosens::readout
