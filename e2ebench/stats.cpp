#include "stats.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <limits>

namespace e2e {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // Nearest rank: the smallest value with at least q * n values at or
  // below it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double sliced_quantile(const std::vector<double>& values, double q,
                       std::size_t slices) {
  const std::size_t n = values.size();
  slices = std::min(slices, n);
  if (slices <= 1) return quantile(values, q);
  std::vector<double> per_slice;
  for (std::size_t s = 0; s < slices; ++s) {
    const auto first =
        values.begin() + static_cast<std::ptrdiff_t>(s * n / slices);
    const auto last =
        values.begin() + static_cast<std::ptrdiff_t>((s + 1) * n / slices);
    per_slice.push_back(quantile(std::vector<double>(first, last), q));
  }
  return median(std::move(per_slice));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median_slice_rate(const std::vector<double>& work,
                         const std::vector<double>& seconds,
                         std::size_t slices) {
  const std::size_t n = std::min(work.size(), seconds.size());
  slices = std::min(slices, n);
  std::vector<double> rates;
  for (std::size_t s = 0; s < slices; ++s) {
    double w = 0.0;
    double t = 0.0;
    for (std::size_t i = s * n / slices; i < (s + 1) * n / slices; ++i) {
      w += work[i];
      t += seconds[i];
    }
    if (t > 0.0) rates.push_back(w / t);
  }
  return median(std::move(rates));
}

OpenLoopSummary summarize_open_loop(
    const std::vector<OpenLoopRequest>& requests, std::size_t slices) {
  OpenLoopSummary s;
  s.requests = requests.size();
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  latency_ms.reserve(requests.size());
  late_ms.reserve(requests.size());
  for (const OpenLoopRequest& r : requests) {
    late_ms.push_back(1e3 * std::max(0.0, r.sent_s - r.due_s));
    if (r.ok) {
      latency_ms.push_back(1e3 * (r.done_s - r.due_s));
    } else {
      ++s.failed;
      latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
  }
  s.latency_p50_ms = sliced_quantile(latency_ms, 0.50, slices);
  s.latency_p99_ms = sliced_quantile(latency_ms, 0.99, slices);
  s.late_p99_ms = quantile(late_ms, 0.99);
  s.beyond_p99 = static_cast<std::size_t>(
      std::count_if(latency_ms.begin(), latency_ms.end(),
                    [&](double v) { return v > s.latency_p99_ms; }));
  return s;
}

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char first = name.front();
  if (first == '_' || first == '.' || first == '-') return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return name_char(c) || c == '/' || c == '%';
  });
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::array<char, 64> buf{};
  const auto result = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  return std::string(buf.data(), result.ptr);
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace e2e
