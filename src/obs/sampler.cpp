#include "obs/sampler.hpp"

#include <utility>

namespace biosens::obs {
namespace {

constexpr double kMicrosPerSecond = 1e6;
/// maybe_sample() rate limit: at most one passive sample per period.
constexpr double kMinPeriodS = 0.25;

double per_second(std::uint64_t newer, std::uint64_t older, double dt) {
  if (dt <= 0.0 || newer <= older) return 0.0;
  return static_cast<double>(newer - older) / dt;
}

}  // namespace

MetricsSampler::MetricsSampler(Source source) : source_(std::move(source)) {
  ring_.reserve(kSamplerWindow);
}

void MetricsSampler::sample_now() {
  const double now_s = epoch_.elapsed_seconds();
  std::lock_guard<std::mutex> lock(mutex_);
  sample_locked(now_s);
}

bool MetricsSampler::maybe_sample() {
  const double now_s = epoch_.elapsed_seconds();
  const auto now_us =
      static_cast<std::uint64_t>(now_s * kMicrosPerSecond);
  const std::uint64_t last =
      last_sample_micros_.load(std::memory_order_relaxed);
  constexpr auto period_us =
      static_cast<std::uint64_t>(kMinPeriodS * kMicrosPerSecond);
  if (total_.load(std::memory_order_relaxed) > 0 &&
      now_us < last + period_us) {
    return false;  // the hot-path exit: two relaxed loads, no lock
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // Double-check under the lock: another thread may have sampled while
  // we were acquiring it.
  const std::uint64_t last2 =
      last_sample_micros_.load(std::memory_order_relaxed);
  if (total_.load(std::memory_order_relaxed) > 0 &&
      now_us < last2 + period_us) {
    return false;
  }
  sample_locked(now_s);
  return true;
}

void MetricsSampler::sample_locked(double now_s) {
  MetricsSample sample = source_ ? source_() : MetricsSample{};
  sample.t_s = now_s;
  if (ring_.size() < kSamplerWindow) {
    ring_.push_back(sample);
  } else {
    ring_[next_ % kSamplerWindow] = sample;
  }
  ++next_;
  total_.fetch_add(1, std::memory_order_relaxed);
  last_sample_micros_.store(
      static_cast<std::uint64_t>(now_s * kMicrosPerSecond),
      std::memory_order_relaxed);
}

std::vector<MetricsSample> MetricsSampler::window() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricsSample> out;
  out.reserve(ring_.size());
  if (ring_.size() < kSamplerWindow) {
    out = ring_;
  } else {
    for (std::uint64_t i = next_ - kSamplerWindow; i < next_; ++i) {
      out.push_back(ring_[i % kSamplerWindow]);
    }
  }
  return out;
}

WindowRates MetricsSampler::rates() const {
  const std::vector<MetricsSample> samples = window();
  WindowRates out;
  out.samples = samples.size();
  if (samples.size() < 2) {
    if (!samples.empty()) out.queue_p99_now_s = samples.back().queue_p99_s;
    return out;
  }
  const MetricsSample& oldest = samples.front();
  const MetricsSample& newest = samples.back();
  const double dt = newest.t_s - oldest.t_s;
  out.window_s = dt > 0.0 ? dt : 0.0;
  out.submitted_per_s = per_second(newest.submitted, oldest.submitted, dt);
  out.completed_per_s = per_second(newest.completed, oldest.completed, dt);
  out.failed_per_s = per_second(newest.failed, oldest.failed, dt);
  out.rejected_per_s = per_second(newest.rejected, oldest.rejected, dt);
  const std::uint64_t submitted_delta =
      newest.submitted >= oldest.submitted
          ? newest.submitted - oldest.submitted
          : 0;
  const std::uint64_t rejected_delta =
      newest.rejected >= oldest.rejected ? newest.rejected - oldest.rejected
                                         : 0;
  const std::uint64_t offered = submitted_delta + rejected_delta;
  out.rejection_ratio =
      offered > 0 ? static_cast<double>(rejected_delta) /
                        static_cast<double>(offered)
                  : 0.0;
  out.queue_p99_now_s = newest.queue_p99_s;
  out.queue_p99_trend_s = newest.queue_p99_s - oldest.queue_p99_s;
  return out;
}

}  // namespace biosens::obs
