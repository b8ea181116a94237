// Prometheus-style text exposition (version 0.0.4): counters, gauges,
// and histograms with cumulative `le` buckets.
//
// PrometheusWriter is the format layer; the service composes the actual
// exposition (SimulationService::prometheus_text renders its SLO
// counters and histograms), and append_layer_metrics adds the per-layer
// latency attribution computed from a flight-recorder dump, for the
// service's --metrics-out or for any traced batch.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/expected.hpp"
#include "obs/instruments.hpp"

namespace biosens::obs {

struct RecorderDump;

/// Appends metric families to a text buffer. # HELP / # TYPE headers
/// are emitted once per family name (repeat calls with the same family
/// and different labels just append samples).
class PrometheusWriter {
 public:
  /// `help` is used the first time a family name is seen.
  void counter(std::string_view family, std::string_view help,
               std::uint64_t value, std::string_view labels = {});
  void gauge(std::string_view family, std::string_view help,
             double value, std::string_view labels = {});
  /// Cumulative buckets up to the last occupied edge plus le="+Inf",
  /// then _sum and _count, all carrying `labels`.
  void histogram(std::string_view family, std::string_view help,
                 const LatencyHistogram& histogram,
                 std::string_view labels = {});

  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  void header(std::string_view family, std::string_view help,
              std::string_view type);
  void sample(std::string_view name, std::string_view labels,
              std::string_view value);

  std::string text_;
  std::string seen_families_;  // ",family," markers
};

/// Inclusive span latency and failures per layer, computed from a
/// dump's span end events. Nested spans each count toward their own
/// layer (a chem span inside an electrochem span adds to both), so
/// layer totals overlap and do not sum to wall time.
struct LayerSpanStats {
  explicit LayerSpanStats(const RecorderDump& dump);

  std::array<LatencyHistogram, kLayerCount> latency{};
  std::array<std::uint64_t, kLayerCount> failures{};
};

/// Per-layer latency histograms and failure counters from a dump
/// (layers with no recorded spans are skipped).
void append_layer_metrics(PrometheusWriter& writer,
                          const RecorderDump& dump);

/// The conventional `biosens_build_info` gauge (value 1, identity in
/// the labels: compiler and C++ standard), so every scrape can be
/// joined against what produced it. Emitted by every exposition the
/// library composes.
void append_build_info(PrometheusWriter& writer);

}  // namespace biosens::obs
