#include "obs/export_prometheus.hpp"

#include <cmath>
#include <cstdio>

#include "obs/recorder.hpp"

namespace biosens::obs {
namespace {

std::string format_double(double v) {
  if (!std::isfinite(v)) return v > 0 ? "+Inf" : (v < 0 ? "-Inf" : "NaN");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Joins two label bodies (no braces): "a=\"x\"" + "le=\"1\"".
std::string merge_labels(std::string_view labels,
                         std::string_view extra) {
  std::string out(labels);
  if (!out.empty() && !extra.empty()) out += ",";
  out += extra;
  return out;
}

}  // namespace

void PrometheusWriter::header(std::string_view family,
                              std::string_view help,
                              std::string_view type) {
  std::string marker = ",";
  marker += family;
  marker += ",";
  if (seen_families_.find(marker) != std::string::npos) return;
  seen_families_ += marker;
  text_ += "# HELP ";
  text_ += family;
  text_ += " ";
  text_ += help;
  text_ += "\n# TYPE ";
  text_ += family;
  text_ += " ";
  text_ += type;
  text_ += "\n";
}

void PrometheusWriter::sample(std::string_view name,
                              std::string_view labels,
                              std::string_view value) {
  text_ += name;
  if (!labels.empty()) {
    text_ += "{";
    text_ += labels;
    text_ += "}";
  }
  text_ += " ";
  text_ += value;
  text_ += "\n";
}

void PrometheusWriter::counter(std::string_view family,
                               std::string_view help, std::uint64_t value,
                               std::string_view labels) {
  header(family, help, "counter");
  sample(family, labels, std::to_string(value));
}

void PrometheusWriter::gauge(std::string_view family,
                             std::string_view help, double value,
                             std::string_view labels) {
  header(family, help, "gauge");
  sample(family, labels, format_double(value));
}

void PrometheusWriter::histogram(std::string_view family,
                                 std::string_view help,
                                 const LatencyHistogram& histogram,
                                 std::string_view labels) {
  header(family, help, "histogram");

  // Cumulative buckets up to the last occupied edge (plus one beyond,
  // so an empty histogram still emits a le="+Inf"-only shape).
  std::size_t last_occupied = 0;
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    if (histogram.bucket_count(b) > 0) last_occupied = b + 1;
  }
  const std::string bucket_name = std::string(family) + "_bucket";
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < last_occupied; ++b) {
    cumulative += histogram.bucket_count(b);
    std::string le = "le=\"";
    le += format_double(LatencyHistogram::bucket_edge(b));
    le += "\"";
    sample(bucket_name, merge_labels(labels, le),
           std::to_string(cumulative));
  }
  sample(bucket_name, merge_labels(labels, "le=\"+Inf\""),
         std::to_string(histogram.count()));
  sample(std::string(family) + "_sum", labels,
         format_double(histogram.total_seconds()));
  sample(std::string(family) + "_count", labels,
         std::to_string(histogram.count()));
}

void append_build_info(PrometheusWriter& writer) {
  std::string labels = "version=\"";
#if defined(BIOSENS_VERSION_STRING)
  labels += BIOSENS_VERSION_STRING;
#else
  labels += "dev";
#endif
  labels += "\",compiler=\"";
#if defined(__clang_major__)
  labels += "clang-" + std::to_string(__clang_major__) + "." +
            std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  labels += "gcc-" + std::to_string(__GNUC__) + "." +
            std::to_string(__GNUC_MINOR__);
#else
  labels += "unknown";
#endif
  labels += "\",cxx_std=\"";
  labels += std::to_string(__cplusplus / 100L % 100L + 2000L);
  labels += "\"";
  writer.gauge("biosens_build_info",
               "Build identity (value is always 1; identity is in the "
               "labels)",
               1.0, labels);
}

LayerSpanStats::LayerSpanStats(const RecorderDump& dump) {
  for (const RecorderEvent& ev : dump.events) {
    const auto index = static_cast<std::size_t>(ev.event.layer);
    if (ev.event.phase != EventPhase::kEnd || index >= kLayerCount) continue;
    latency[index].record(static_cast<double>(ev.dur_ns) * 1e-9);
    if (ev.event.failed) ++failures[index];
  }
}

void append_layer_metrics(PrometheusWriter& writer,
                          const RecorderDump& dump) {
  const LayerSpanStats stats(dump);
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto layer = static_cast<Layer>(i);
    const LatencyHistogram& latency = stats.latency[i];
    if (latency.count() == 0) continue;
    std::string labels = "layer=\"";
    labels += to_string(layer);
    labels += "\"";
    writer.histogram("biosens_layer_span_seconds",
                     "Inclusive span latency per library layer", latency,
                     labels);
    writer.counter("biosens_layer_span_failures_total",
                   "Failed spans per library layer",
                   stats.failures[i], labels);
  }
}

}  // namespace biosens::obs
