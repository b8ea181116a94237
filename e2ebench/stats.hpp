// Pure helpers of the benchmark: percentiles, open-loop latency
// accounting, metric-name rules and JSON number formatting. Kept free
// of biosens types so e2e_selftest can check them in isolation.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Nearest-rank quantile (q in [0, 1]) of `values`; +inf entries sort
/// last, so a failed request counts as missing any latency limit.
/// Returns 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// quantile() taken within each of `slices` consecutive groups of
/// (nearly) equal count, then the median over the groups, so a stall
/// inside one stretch of a run moves one slice, not the result. Equal
/// to quantile() for slices <= 1.
[[nodiscard]] double sliced_quantile(const std::vector<double>& values,
                                     double q, std::size_t slices);

/// Median of `values` (nearest-rank, see quantile()).
[[nodiscard]] double median(std::vector<double> values);

/// Arithmetic mean; 0 for an empty input.
[[nodiscard]] double mean(const std::vector<double>& values);

/// Throughput of a closed loop, robust to one slow stretch: the
/// requests are split in order into `slices` groups of (nearly) equal
/// count, each group's work is divided by its summed time, and the
/// median of those rates is returned. 0 for an empty input.
[[nodiscard]] double median_slice_rate(const std::vector<double>& work,
                                       const std::vector<double>& seconds,
                                       std::size_t slices);

/// One open-loop request: when it was due, when the generator actually
/// sent it, when its result was complete, and whether it succeeded. A
/// rejected or failed request has ok == false; its done_s is ignored.
struct OpenLoopRequest {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool ok = true;
};

struct OpenLoopSummary {
  std::size_t requests = 0;
  std::size_t failed = 0;
  double latency_p50_ms = 0.0;  ///< due -> done
  double latency_p99_ms = 0.0;  ///< +inf when over 1% failed
  double late_p99_ms = 0.0;     ///< due -> sent (generator lateness)
  /// Samples strictly above latency_p99_ms, for judging how many
  /// samples the tail rests on.
  std::size_t beyond_p99 = 0;
};

/// Latency is timed from when each request was due, so a stall also
/// charges the requests queued behind it; failures count as +inf. The
/// latency percentiles are sliced_quantile() over `slices` consecutive
/// stretches of `requests` (in due order); lateness covers the run.
[[nodiscard]] OpenLoopSummary summarize_open_loop(
    const std::vector<OpenLoopRequest>& requests, std::size_t slices = 1);

/// Name rule of BENCHMARK.json: starts with a letter or digit, at most
/// 64 of letters, digits, '_', '.', '-'.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// Unit rule: 1..16 of letters, digits, '_', '/', '%', '.', '-'.
[[nodiscard]] bool valid_unit(std::string_view unit);

/// Shortest round-trip decimal form of a finite double; "null" for a
/// non-finite one.
[[nodiscard]] std::string json_number(double value);

/// JSON string literal with the minimal escapes.
[[nodiscard]] std::string json_string(std::string_view text);

}  // namespace e2e
