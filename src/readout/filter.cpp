#include "readout/filter.hpp"

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

}  // namespace biosens::readout
