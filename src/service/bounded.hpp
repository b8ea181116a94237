// Bounded growth primitives — the only queue/buffer growth allowed in
// src/service/.
//
// A service that must stay up under overload can never let a queue grow
// without bound: every buffer either has a capacity and a rejection
// path, or it is a bug. The biosens-lint `service-discipline` check
// enforces this mechanically by banning raw push_back/push_front/push
// (and detached threads) everywhere under src/service/ EXCEPT this
// header — so any growth in the service layer is forced through one of
// these capacity-checked helpers, and the admission-control story
// (docs/service.md) cannot silently rot.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

namespace biosens::service {

/// A deque with a hard capacity: growth returns false instead of
/// allocating past the bound. FIFO: push at the back, pop at the front.
template <class T>
class BoundedDeque {
 public:
  explicit BoundedDeque(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool try_push_back(T value) {
    if (items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    return true;
  }

  /// Requires !empty().
  [[nodiscard]] T pop_front() {
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  std::deque<T> items_;
};

/// Capacity-checked vector append: false (and no growth) at the bound.
/// The service's session record streams grow through this, so even the
/// per-session result history has an explicit ceiling.
template <class T>
[[nodiscard]] bool bounded_append(std::vector<T>& values,
                                  std::size_t capacity, T value) {
  if (values.size() >= capacity) return false;
  values.push_back(std::move(value));
  return true;
}

}  // namespace biosens::service
