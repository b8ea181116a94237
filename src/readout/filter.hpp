// Digital post-filters applied to the sampled trace.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

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

/// Streaming single-pole IIR low-pass: y += alpha * (x - y).
class SinglePoleIir {
 public:
  /// @param alpha smoothing factor in (0, 1]
  explicit SinglePoleIir(double alpha);

  [[nodiscard]] double push(double x);
  [[nodiscard]] double alpha() const { return alpha_; }

 private:
  double alpha_;
  double state_ = 0.0;
  bool primed_ = false;
};

/// Streaming median-of-window filter (robust spike rejection).
class MedianFilter {
 public:
  /// @param window odd window length >= 1
  explicit MedianFilter(std::size_t window);

  [[nodiscard]] double push(double x);
  [[nodiscard]] std::size_t window() const { return window_; }

 private:
  std::size_t window_;
  std::deque<double> buf_;
};

}  // namespace biosens::readout
