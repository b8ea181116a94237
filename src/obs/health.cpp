#include "obs/health.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json_util.hpp"
#include "obs/recorder.hpp"

namespace biosens::obs {
namespace {

// The thresholds evaluate_health() applies.
/// Pending / effective capacity at which the queue counts saturated.
constexpr double kQueueDegradedRatio = 0.85;
/// Rejected / offered ratio (since the last quiesce) for SLO burn.
constexpr double kBurnDegradedRatio = 0.05;
constexpr double kBurnUnhealthyRatio = 0.5;
/// Failed / finished ratio for failure burn.
constexpr double kFailureDegradedRatio = 0.25;
constexpr double kFailureUnhealthyRatio = 0.75;
/// Items currently past the watchdog soft deadline.
constexpr std::size_t kWatchdogDegraded = 1;
constexpr std::size_t kWatchdogUnhealthy = 4;

std::string format_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// The one place health reasons are minted (internal linkage, so no
/// other file can call it): records the reason and raises the report's
/// state monotonically.
void add_reason(HealthReport& report, HealthState severity,
                std::string_view code, std::string detail) {
  HealthReason reason;
  reason.severity = severity;
  reason.code = std::string(code);
  reason.detail = std::move(detail);
  report.reasons.push_back(std::move(reason));
  if (static_cast<int>(severity) > static_cast<int>(report.state)) {
    report.state = severity;
  }
}

void append_rates_json(std::string& out, const WindowRates& rates) {
  out += "{\"window_s\":";
  out += format_double(rates.window_s);
  out += ",\"samples\":";
  out += std::to_string(rates.samples);
  out += ",\"submitted_per_s\":";
  out += format_double(rates.submitted_per_s);
  out += ",\"completed_per_s\":";
  out += format_double(rates.completed_per_s);
  out += ",\"failed_per_s\":";
  out += format_double(rates.failed_per_s);
  out += ",\"rejected_per_s\":";
  out += format_double(rates.rejected_per_s);
  out += ",\"rejection_ratio\":";
  out += format_double(rates.rejection_ratio);
  out += ",\"queue_p99_s\":";
  out += format_double(rates.queue_p99_now_s);
  out += ",\"queue_p99_trend_s\":";
  out += format_double(rates.queue_p99_trend_s);
  out += "}";
}

}  // namespace

std::string_view to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kUnhealthy: return "unhealthy";
  }
  return "unknown";
}

bool HealthReport::has_reason(std::string_view code) const {
  for (const HealthReason& reason : reasons) {
    if (reason.code == code) return true;
  }
  return false;
}

std::string HealthReport::to_json() const {
  std::string out;
  out += "{\"state\":\"";
  out += to_string(state);
  out += "\",\"reasons\":[";
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"severity\":\"";
    out += to_string(reasons[i].severity);
    out += "\",\"code\":\"";
    out += json_escape(reasons[i].code);
    out += "\",\"detail\":\"";
    out += json_escape(reasons[i].detail);
    out += "\"}";
  }
  out += "]}";
  return out;
}

HealthReport evaluate_health(const HealthInputs& inputs) {
  HealthReport report;

  if (inputs.draining) {
    add_reason(report, HealthState::kDegraded, "drain",
               "drain in progress: admission closed");
  }

  // Queue saturation: either the queue is visibly near capacity right
  // now, or admission has rejected work since the last quiesce (the
  // baseline resets on drain()/resume(), so a past incident does not
  // poison the state forever).
  if (inputs.queue_utilization >= kQueueDegradedRatio) {
    add_reason(report, HealthState::kDegraded, "queue-saturation",
               "queue utilization " +
                   format_double(inputs.queue_utilization) +
                   " >= " + format_double(kQueueDegradedRatio));
  } else if (inputs.rejected_since_baseline > 0) {
    add_reason(report, HealthState::kDegraded, "queue-saturation",
               std::to_string(inputs.rejected_since_baseline) +
                   " admission rejections since last quiesce");
  }

  // SLO burn: the rejected fraction of offered work since the baseline.
  const std::uint64_t offered =
      inputs.submitted_since_baseline + inputs.rejected_since_baseline;
  if (offered > 0 && inputs.rejected_since_baseline > 0) {
    const double burn =
        static_cast<double>(inputs.rejected_since_baseline) /
        static_cast<double>(offered);
    if (burn >= kBurnUnhealthyRatio) {
      add_reason(report, HealthState::kUnhealthy, "slo-burn",
                 "rejection burn " + format_double(burn) + " >= " +
                     format_double(kBurnUnhealthyRatio));
    } else if (burn >= kBurnDegradedRatio) {
      add_reason(report, HealthState::kDegraded, "slo-burn",
                 "rejection burn " + format_double(burn) + " >= " +
                     format_double(kBurnDegradedRatio));
    }
  }

  // Failure burn: jobs that ran and failed (QC exhaustion, numerics).
  if (inputs.finished > 0 && inputs.failed > 0) {
    const double burn = static_cast<double>(inputs.failed) /
                        static_cast<double>(inputs.finished);
    if (burn >= kFailureUnhealthyRatio) {
      add_reason(report, HealthState::kUnhealthy, "failure-burn",
                 "failure ratio " + format_double(burn) + " >= " +
                     format_double(kFailureUnhealthyRatio));
    } else if (burn >= kFailureDegradedRatio) {
      add_reason(report, HealthState::kDegraded, "failure-burn",
                 "failure ratio " + format_double(burn) + " >= " +
                     format_double(kFailureDegradedRatio));
    }
  }

  if (inputs.watchdog_overdue >= kWatchdogUnhealthy) {
    add_reason(report, HealthState::kUnhealthy, "watchdog",
               std::to_string(inputs.watchdog_overdue) +
                   " items past the soft deadline");
  } else if (inputs.watchdog_overdue >= kWatchdogDegraded) {
    add_reason(report, HealthState::kDegraded, "watchdog",
               std::to_string(inputs.watchdog_overdue) +
                   " items past the soft deadline");
  }

  return report;
}

Watchdog::Watchdog(Options options) : options_(options) {}

std::uint64_t Watchdog::begin(std::string_view label) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() >= options_.max_tracked) return 0;
  Entry entry;
  entry.token = next_token_++;
  entry.label = std::string(label);
  entry.start = std::chrono::steady_clock::now();
  entries_.push_back(std::move(entry));
  return entries_.back().token;
}

void Watchdog::end(std::uint64_t token) {
  if (token == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].token != token) continue;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      entries_[i].start)
            .count();
    if (elapsed > options_.soft_deadline_s) trips_.increment();
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
}

std::vector<Watchdog::Overdue> Watchdog::overdue() const {
  std::vector<Overdue> out;
  if (!enabled()) return out;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& entry : entries_) {
    const double elapsed =
        std::chrono::duration<double>(now - entry.start).count();
    if (elapsed > options_.soft_deadline_s) {
      out.push_back(Overdue{entry.label, elapsed});
    }
  }
  return out;
}

std::size_t Watchdog::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void fill_recorder_stats(IntrospectionReport& report) {
  const FlightRecorder* recorder = FlightRecorder::current();
  if (recorder == nullptr) return;
  report.recorder_installed = true;
  report.recorder_triggered = recorder->triggered();
  report.recorder_dump_written = recorder->auto_dump_written();
  report.recorder_events = recorder->recorded_events();
  report.recorder_overwritten = recorder->overwritten_events();
  report.recorder_triggers = recorder->trigger_count();
}

std::string IntrospectionReport::to_json() const {
  std::string out;
  out += "{\"component\":\"";
  out += json_escape(component);
  out += "\",\"health\":";
  out += health.to_json();
  out += ",\"gauges\":{\"pending\":";
  out += std::to_string(pending);
  out += ",\"in_flight\":";
  out += std::to_string(in_flight);
  out += ",\"open_sessions\":";
  out += std::to_string(open_sessions);
  out += ",\"queue_utilization\":";
  out += format_double(queue_utilization);
  out += "},\"rates\":";
  append_rates_json(out, rates);
  out += ",\"watchdog\":{\"soft_deadline_s\":";
  out += format_double(watchdog_soft_deadline_s);
  out += ",\"overdue\":";
  out += std::to_string(watchdog_overdue);
  out += ",\"trips\":";
  out += std::to_string(watchdog_trips);
  out += "},\"recorder\":{\"installed\":";
  out += recorder_installed ? "true" : "false";
  out += ",\"triggered\":";
  out += recorder_triggered ? "true" : "false";
  out += ",\"dump_written\":";
  out += recorder_dump_written ? "true" : "false";
  out += ",\"events\":";
  out += std::to_string(recorder_events);
  out += ",\"overwritten\":";
  out += std::to_string(recorder_overwritten);
  out += ",\"triggers\":";
  out += std::to_string(recorder_triggers);
  out += "}}";
  return out;
}

}  // namespace biosens::obs
