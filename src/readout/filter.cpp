#include "readout/filter.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace biosens::readout {

MovingAverage::MovingAverage(std::size_t window) : window_(window) {
  require<SpecError>(window >= 1, "window must be >= 1");
}

double MovingAverage::push(double x) {
  buf_.push_back(x);
  sum_ += x;
  if (buf_.size() > window_) {
    sum_ -= buf_.front();
    buf_.pop_front();
  }
  return sum_ / static_cast<double>(buf_.size());
}

SinglePoleIir::SinglePoleIir(double alpha) : alpha_(alpha) {
  require<SpecError>(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
}

double SinglePoleIir::push(double x) {
  if (!primed_) {
    state_ = x;
    primed_ = true;
  } else {
    state_ += alpha_ * (x - state_);
  }
  return state_;
}

MedianFilter::MedianFilter(std::size_t window) : window_(window) {
  require<SpecError>(window >= 1 && window % 2 == 1,
                     "window must be odd and >= 1");
}

double MedianFilter::push(double x) {
  buf_.push_back(x);
  if (buf_.size() > window_) buf_.pop_front();
  std::vector<double> tmp(buf_.begin(), buf_.end());
  const std::size_t mid = tmp.size() / 2;
  std::nth_element(tmp.begin(), tmp.begin() + static_cast<long>(mid),
                   tmp.end());
  return tmp[mid];
}

}  // namespace biosens::readout
