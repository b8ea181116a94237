// Observability subsystem: span mechanics over the one event store (the
// flight recorder), histogram edge contract, exporter structure, ring
// accounting, sampler, health model, watchdog, and the central
// non-perturbation guarantee — observing must never change batch
// results.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/platform.hpp"
#include "engine/engine.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_jsonl.hpp"
#include "obs/export_prometheus.hpp"
#include "obs/health.hpp"
#include "obs/instruments.hpp"
#include "obs/recorder.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"

namespace biosens::obs {
namespace {

TEST(LatencyHistogramEdges, BucketEdgesAreStrictlyIncreasing) {
  double previous = 0.0;
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const double edge = LatencyHistogram::bucket_edge(b);
    EXPECT_GT(edge, previous) << "bucket " << b;
    previous = edge;
  }
  EXPECT_NEAR(LatencyHistogram::bucket_edge(0), 1e-6 * 1.54, 1e-6);
  EXPECT_NEAR(
      LatencyHistogram::bucket_edge(LatencyHistogram::kBuckets - 1), 1e3,
      1.0);
}

TEST(LatencyHistogramEdges, EmptyHistogramReportsZeroEverywhere) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
  EXPECT_EQ(h.max_seconds(), 0.0);
  EXPECT_EQ(h.total_seconds(), 0.0);
}

TEST(LatencyHistogramEdges, SingleSampleQuantiles) {
  LatencyHistogram h;
  h.record(0.002);
  // Every q > 0 lands on the single sample's bucket edge; q <= 0 is 0.
  const double edge = h.quantile(1.0);
  EXPECT_GT(edge, 0.002 / 1.6);
  EXPECT_LT(edge, 0.002 * 1.6);
  EXPECT_EQ(h.quantile(0.001), edge);
  EXPECT_EQ(h.quantile(0.5), edge);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(-3.0), 0.0);
  EXPECT_EQ(h.quantile(7.0), edge);  // clamped to q=1
}

TEST(LatencyHistogramEdges, BucketCountsMatchRecordings) {
  LatencyHistogram h;
  h.record(1e-5);
  h.record(1e-5);
  h.record(10.0);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    total += h.bucket_count(b);
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets + 7), 0u);
}

// Walks a Chrome trace line by line (the exporter writes one event per
// line) and checks that on every tid each "E" closes the most recent
// open "B" of the same name, and that no "B" stays open. Returns the
// number of B/E pairs.
std::size_t balanced_pairs(const std::string& json) {
  const auto between = [](const std::string& line, const std::string& from,
                          const std::string& to) {
    const std::size_t a = line.find(from) + from.size();
    return line.substr(a, line.find(to, a) - a);
  };
  std::map<std::string, std::vector<std::string>> open;  // tid -> names
  std::size_t pairs = 0;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    const bool begin = line.find("\"ph\":\"B\"") != std::string::npos;
    const bool end = line.find("\"ph\":\"E\"") != std::string::npos;
    if (!begin && !end) continue;
    std::vector<std::string>& stack =
        open[between(line, "\"tid\":", ",\"ts\"")];
    const std::string name = between(line, "\"name\":\"", "\",\"cat\"");
    if (begin) {
      stack.push_back(name);
      continue;
    }
    if (stack.empty()) {
      ADD_FAILURE() << "E without an open B: " << line;
      continue;
    }
    EXPECT_EQ(stack.back(), name) << "E closes the wrong span: " << line;
    stack.pop_back();
    ++pairs;
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << stack.size() << " open spans on tid "
                               << tid;
  }
  return pairs;
}

TEST(TraceTest, SpansAreNoOpsWithoutARecorder) {
  ASSERT_EQ(FlightRecorder::current(), nullptr);
  {
    ObsSpan span(Layer::kChem, "orphan");
    EXPECT_FALSE(span.enabled());
    span.annotate("ignored");
  }
  instant(Layer::kEngine, "orphan-instant");
  async_end(Layer::kEngine, "orphan-wait", 1,
            std::chrono::steady_clock::now());
  FlightRecorder::trigger_overload("tenant", "nothing listening");
  FlightRecorder::trigger_job_failure("job", "nothing listening");
  // Nothing to assert beyond "did not crash": there is no recorder to
  // accumulate anything into.
}

TEST(TraceTest, RecordsOneEndPerSpanAndLayerLatency) {
  FlightRecorder recorder;
  recorder.install();
  {
    ObsSpan outer(Layer::kCore, "outer");
    ObsSpan inner(Layer::kChem, "inner");
    EXPECT_TRUE(inner.enabled());
  }
  instant(Layer::kEngine, "tick", "note");
  recorder.uninstall();

  const RecorderDump dump = recorder.dump();
  ASSERT_EQ(dump.events.size(), 3u);  // 2 span ends + 1 instant
  EXPECT_EQ(dump.events[0].event.name, "inner");  // inner ends first
  EXPECT_EQ(dump.events[1].event.name, "outer");
  EXPECT_GE(dump.events[1].dur_ns, dump.events[0].dur_ns);
  const LayerSpanStats stats(dump);
  EXPECT_EQ(stats.latency[static_cast<std::size_t>(Layer::kCore)].count(),
            1u);
  EXPECT_EQ(stats.latency[static_cast<std::size_t>(Layer::kChem)].count(),
            1u);
  EXPECT_EQ(
      stats.latency[static_cast<std::size_t>(Layer::kReadout)].count(), 0u);
  EXPECT_EQ(balanced_pairs(chrome_trace_json(dump)), 2u);
}

TEST(TraceTest, FailedSpanCarriesErrorDescription) {
  FlightRecorder recorder;
  recorder.install();
  {
    ObsSpan span(Layer::kAnalysis, "fit");
    span.fail(make_error(ErrorCode::kAnalysis, Layer::kAnalysis,
                         "calibrate", "slope is not positive"));
  }
  recorder.uninstall();

  const RecorderDump dump = recorder.dump();
  ASSERT_EQ(dump.events.size(), 1u);
  const SpanEvent& end = dump.events.back().event;
  EXPECT_EQ(end.phase, EventPhase::kEnd);
  EXPECT_TRUE(end.failed);
  EXPECT_NE(end.detail.find("[analysis/calibrate]"), std::string::npos);
  EXPECT_NE(end.detail.find("slope is not positive"), std::string::npos);
  EXPECT_EQ(
      LayerSpanStats(dump).failures[static_cast<std::size_t>(
          Layer::kAnalysis)],
      1u);
}

TEST(TraceTest, WatchMarksFailureAndPassesValueThrough) {
  FlightRecorder recorder;
  recorder.install();
  {
    ObsSpan span(Layer::kReadout, "stage");
    Expected<int> good = span.watch(Expected<int>(7));
    EXPECT_EQ(good.value(), 7);
    Expected<int> bad = span.watch(Expected<int>(make_error(
        ErrorCode::kNumerics, Layer::kReadout, "acquire", "saturated")));
    EXPECT_FALSE(bad.has_value());
  }
  recorder.uninstall();
  const RecorderDump dump = recorder.dump();
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_TRUE(dump.events[0].event.failed);
}

TEST(TraceTest, ReinstallClearsPreviousEvents) {
  FlightRecorder recorder;
  recorder.install();
  { ObsSpan span(Layer::kCore, "first"); }
  recorder.uninstall();
  EXPECT_EQ(recorder.dump().events.size(), 1u);

  recorder.install();
  recorder.uninstall();
  const RecorderDump dump = recorder.dump();
  EXPECT_TRUE(dump.events.empty());
  EXPECT_EQ(recorder.recorded_events(), 0u);
  EXPECT_EQ(
      LayerSpanStats(dump).latency[static_cast<std::size_t>(Layer::kCore)]
          .count(),
      0u);
}

TEST(ExporterTest, ChromeTraceHasMetadataAndBalancedPairs) {
  FlightRecorder recorder;
  recorder.install();
  const auto submitted = std::chrono::steady_clock::now();
  {
    ObsSpan span(Layer::kElectrochem, "cv-sweep");
    ObsSpan nested(Layer::kChem, "validate \"x\"\n");
  }
  async_end(Layer::kEngine, "queue-wait", 3, submitted);
  recorder.uninstall();

  const std::string json = chrome_trace_json(recorder.dump());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"electrochem\""), std::string::npos);
  // Escaped quote and newline from the span detail.
  EXPECT_NE(json.find("validate \\\"x\\\"\\n"), std::string::npos);
  // The one queue-wait event yields both async halves.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0x3\""), std::string::npos);
  EXPECT_EQ(balanced_pairs(json), 2u);
}

TEST(ExporterTest, WrappedRingAndZeroLengthSpanExportBalancedPairs) {
  FlightRecorderOptions options;
  options.ring_capacity_per_thread = 5;
  FlightRecorder recorder(options);
  recorder.install();
  {
    ObsSpan outer(Layer::kCore, "outer");
    for (int i = 0; i < 3; ++i) {
      ObsSpan middle(Layer::kElectrochem, "middle-" + std::to_string(i));
      ObsSpan inner(Layer::kChem, "inner-" + std::to_string(i));
    }
  }
  recorder.uninstall();

  // Seven span ends went into a five-slot ring: the oldest inner and
  // middle ends are gone while the spans that enclosed them survive.
  RecorderDump dump = recorder.dump();
  EXPECT_EQ(dump.recorded, 7u);
  EXPECT_EQ(dump.overwritten, 2u);
  ASSERT_EQ(dump.events.size(), 5u);
  EXPECT_EQ(dump.events.front().event.name, "inner-1");
  EXPECT_EQ(dump.events.back().event.name, "outer");

  // Zero-length spans on the same track, one where a span begins and
  // one where a span ends, as a coarse clock would record them.
  const RecorderEvent& middle = dump.events[3];  // "middle-2"
  ASSERT_EQ(middle.event.name, "middle-2");
  for (const std::uint64_t ts :
       {middle.event.ts_ns - middle.dur_ns, middle.event.ts_ns}) {
    RecorderEvent zero = middle;
    zero.event.name = "zero";
    zero.event.ts_ns = ts;
    zero.dur_ns = 0;
    dump.events.push_back(zero);
  }
  EXPECT_EQ(balanced_pairs(chrome_trace_json(dump)), 7u);
}

TEST(ExporterTest, JsonlEmitsOneLinePerEvent) {
  FlightRecorder recorder;
  recorder.install();
  { ObsSpan span(Layer::kCore, "measure"); }
  instant(Layer::kEngine, "sim-cache-hit");
  recorder.uninstall();

  const RecorderDump dump = recorder.dump();
  const std::string jsonl = jsonl_events(dump);
  std::size_t lines = 0;
  for (char c : jsonl) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, dump.events.size());
  EXPECT_NE(jsonl.find("{\"tid\":1,"), std::string::npos);
  EXPECT_NE(jsonl.find("\"phase\":\"instant\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"failed\":false"), std::string::npos);
  EXPECT_NE(jsonl.find("\"dur_ns\":"), std::string::npos);
}

TEST(ExporterTest, PrometheusHistogramIsCumulativeWithInfBucket) {
  LatencyHistogram h;
  h.record(1e-5);
  h.record(1e-4);
  h.record(1e-4);

  PrometheusWriter writer;
  writer.histogram("test_seconds", "help text", h, "layer=\"chem\"");
  const std::string text = writer.text();

  EXPECT_NE(text.find("# HELP test_seconds help text"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("test_seconds_sum{layer=\"chem\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_seconds_count{layer=\"chem\"} 3"),
            std::string::npos);

  // Bucket samples must be cumulative: the +Inf value equals count().
  std::uint64_t previous = 0;
  std::size_t pos = 0;
  while ((pos = text.find("test_seconds_bucket", pos)) !=
         std::string::npos) {
    const std::size_t space = text.find(' ', text.find('}', pos));
    const std::uint64_t value = std::stoull(text.substr(space + 1));
    EXPECT_GE(value, previous);
    previous = value;
    pos = space;
  }
  EXPECT_EQ(previous, 3u);
}

TEST(ExporterTest, HelpAndTypeEmittedOncePerFamily) {
  PrometheusWriter writer;
  writer.counter("biosens_failures_total", "failures", 1, "code=\"spec\"");
  writer.counter("biosens_failures_total", "failures", 2,
                 "code=\"numerics\"");
  const std::string text = writer.text();
  EXPECT_EQ(text.find("# HELP biosens_failures_total"),
            text.rfind("# HELP biosens_failures_total"));
  EXPECT_NE(text.find("biosens_failures_total{code=\"numerics\"} 2"),
            std::string::npos);
}

TEST(ExporterTest, BuildInfoGaugeCarriesVersionAndCompiler) {
  PrometheusWriter writer;
  append_build_info(writer);
  const std::string text = writer.text();
  EXPECT_NE(text.find("# HELP biosens_build_info"), std::string::npos);
  EXPECT_NE(text.find("# TYPE biosens_build_info gauge"),
            std::string::npos);
  EXPECT_NE(text.find("biosens_build_info{version="), std::string::npos);
  EXPECT_NE(text.find("compiler="), std::string::npos);
  EXPECT_NE(text.find("cxx_std="), std::string::npos);
  EXPECT_NE(text.find("} 1"), std::string::npos);
}

// -- per-thread rings under contention (8 writers) --------------------

TEST(FlightRecorderStress, EightWritersOverwriteExactly) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 500;
  constexpr std::size_t kCap = 64;

  FlightRecorderOptions options;
  options.ring_capacity_per_thread = kCap;
  FlightRecorder recorder(options);
  recorder.install();
  {
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          instant(Layer::kEngine, "stress-" + std::to_string(t));
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }
  recorder.uninstall();

  // The ring is per thread and its accounting exact: each writer keeps
  // its newest kCap events and overwrites the rest, with nothing lost
  // or double-counted across threads.
  EXPECT_EQ(recorder.recorded_events(), kThreads * kPerThread);
  EXPECT_EQ(recorder.overwritten_events(), kThreads * (kPerThread - kCap));
  const RecorderDump dump = recorder.dump();
  EXPECT_EQ(dump.events.size(), kThreads * kCap);

  // A wrapped store must still export cleanly: one JSONL line per
  // surviving event, and a parsable Chrome trace envelope.
  const std::string jsonl = jsonl_events(dump);
  std::size_t lines = 0;
  for (char c : jsonl) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, dump.events.size());
  const std::string chrome = chrome_trace_json(dump);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(chrome.back(), '\n');
}

// -- flight recorder --------------------------------------------------

TEST(FlightRecorderTest, RecordsSpanEndsAndInstantsWithDurations) {
  FlightRecorder recorder;
  recorder.install();
  {
    ObsSpan span(Layer::kTransport, "crank-step");
  }
  instant(Layer::kEngine, "cache-hit", "warm");
  recorder.uninstall();

  EXPECT_EQ(recorder.recorded_events(), 2u);
  const RecorderDump dump = recorder.dump();
  ASSERT_EQ(dump.events.size(), 2u);
  EXPECT_EQ(dump.events[0].event.name, "crank-step");
  EXPECT_EQ(dump.events[0].event.phase, EventPhase::kEnd);
  EXPECT_EQ(dump.events[1].event.name, "cache-hit");
  EXPECT_EQ(dump.events[1].event.phase, EventPhase::kInstant);
  EXPECT_EQ(dump.events[1].dur_ns, 0u);
  EXPECT_EQ(dump.reason, "manual");
  const std::string json = dump.to_json();
  EXPECT_NE(json.find("\"name\":\"crank-step\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"instant\""), std::string::npos);
}

TEST(FlightRecorderTest, RingOverwritesOldestWithExactAccounting) {
  FlightRecorderOptions options;
  options.ring_capacity_per_thread = 8;
  FlightRecorder recorder(options);
  recorder.install();
  for (int i = 0; i < 20; ++i) {
    instant(Layer::kCore, "tick-" + std::to_string(i));
  }
  recorder.uninstall();

  EXPECT_EQ(recorder.recorded_events(), 20u);
  EXPECT_EQ(recorder.overwritten_events(), 12u);
  const RecorderDump dump = recorder.dump();
  ASSERT_EQ(dump.events.size(), 8u);
  // The survivors are exactly the newest eight, still in time order.
  EXPECT_EQ(dump.events.front().event.name, "tick-12");
  EXPECT_EQ(dump.events.back().event.name, "tick-19");
  for (std::size_t i = 1; i < dump.events.size(); ++i) {
    EXPECT_GE(dump.events[i].event.ts_ns, dump.events[i - 1].event.ts_ns);
  }
}

TEST(FlightRecorderTest, ScopedContextAttributesAndNests) {
  FlightRecorder recorder;
  recorder.install();
  {
    FlightRecorder::ScopedContext outer("tenant-a", 7);
    instant(Layer::kService, "outer-event");
    {
      FlightRecorder::ScopedContext inner("tenant-b", 9);
      instant(Layer::kService, "inner-event");
    }
    instant(Layer::kService, "outer-again");
  }
  instant(Layer::kService, "unattributed");
  recorder.uninstall();

  const RecorderDump dump = recorder.dump("manual", "tenant-a");
  ASSERT_EQ(dump.events.size(), 4u);
  EXPECT_EQ(dump.events[0].tenant, "tenant-a");
  EXPECT_EQ(dump.events[0].session_id, 7u);
  EXPECT_EQ(dump.events[1].tenant, "tenant-b");
  EXPECT_EQ(dump.events[1].session_id, 9u);
  EXPECT_EQ(dump.events[2].tenant, "tenant-a");
  EXPECT_EQ(dump.events[3].tenant, "");
  // The tenant tail keeps only tenant-a's events.
  ASSERT_EQ(dump.tenant_tail.size(), 2u);
  EXPECT_EQ(dump.tenant_tail[0].event.name, "outer-event");
  EXPECT_EQ(dump.tenant_tail[1].event.name, "outer-again");
}

TEST(FlightRecorderTest, FirstTriggerLatchesAndAutoDumps) {
  const std::string path = "/tmp/biosens_test_recorder_dump.json";
  std::remove(path.c_str());
  FlightRecorderOptions options;
  options.auto_dump_path = path;
  FlightRecorder recorder(options);
  recorder.install();
  {
    FlightRecorder::ScopedContext tenant("clinic-x", 3);
    instant(Layer::kService, "pre-incident");
    FlightRecorder::trigger_overload("clinic-x", "queue full");
  }
  FlightRecorder::trigger_overload("clinic-y", "second incident");
  recorder.uninstall();

  EXPECT_TRUE(recorder.triggered());
  EXPECT_EQ(recorder.trigger_count(), 2u);
  // The first trigger wins: the latched dump names clinic-x.
  const RecorderDump first = recorder.first_trigger_dump();
  EXPECT_EQ(first.reason, "overloaded");
  EXPECT_EQ(first.tenant, "clinic-x");
  EXPECT_FALSE(first.tenant_tail.empty());
  for (const RecorderEvent& ev : first.tenant_tail) {
    EXPECT_EQ(ev.tenant, "clinic-x");
  }
  // And it was written to disk.
  EXPECT_TRUE(first.auto_dump_written);
  EXPECT_TRUE(recorder.auto_dump_written());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"reason\":\"overloaded\""),
            std::string::npos);
  EXPECT_NE(buffer.str().find("\"tenant\":\"clinic-x\""),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, AutoDumpReportsAnUnwritablePath) {
  FlightRecorderOptions options;
  options.auto_dump_path =
      ::testing::TempDir() + "biosens-missing-dir/flight.json";
  FlightRecorder recorder(options);
  recorder.install();
  FlightRecorder::trigger_overload("clinic-x", "queue full");
  IntrospectionReport report;
  fill_recorder_stats(report);
  recorder.uninstall();

  // The trigger still latches; only the file is missing, and both the
  // latched dump and the introspection report say so.
  EXPECT_TRUE(recorder.triggered());
  EXPECT_FALSE(recorder.first_trigger_dump().auto_dump_written);
  EXPECT_FALSE(recorder.auto_dump_written());
  EXPECT_TRUE(report.recorder_triggered);
  EXPECT_FALSE(report.recorder_dump_written);
  EXPECT_NE(report.to_json().find("\"dump_written\":false"),
            std::string::npos);
}

TEST(FlightRecorderTest, DisabledTriggerKindsOnlyCount) {
  FlightRecorderOptions options;
  options.trigger_on_job_failure = false;
  FlightRecorder recorder(options);
  recorder.install();
  FlightRecorder::trigger_job_failure("job-1", "transient fault");
  // A disabled trigger kind is a complete no-op: no latch, no count.
  EXPECT_FALSE(recorder.triggered());
  EXPECT_EQ(recorder.trigger_count(), 0u);
  FlightRecorder::trigger_overload("tenant-z", "queue full");
  EXPECT_TRUE(recorder.triggered());
  EXPECT_EQ(recorder.trigger_count(), 1u);
  EXPECT_EQ(recorder.first_trigger_dump().reason, "overloaded");
  recorder.uninstall();
}

TEST(FlightRecorderTest, EngineJobFailureTriggersTheRecorder) {
  FlightRecorder recorder;
  recorder.install();
  engine::Engine engine;  // serial
  std::vector<engine::JobSpec> jobs(1);
  jobs[0].name = "doomed";
  jobs[0].body = [](engine::JobContext&) -> Expected<bool> {
    return make_error(ErrorCode::kNumerics, Layer::kEngine, "doomed",
                      "synthetic fault");
  };
  engine::BatchOptions options;
  options.retry.max_attempts = 1;
  (void)engine.run(jobs, options);
  recorder.uninstall();

  EXPECT_TRUE(recorder.triggered());
  const RecorderDump dump = recorder.first_trigger_dump();
  EXPECT_EQ(dump.reason, "job-failure");
  EXPECT_EQ(dump.tenant, "doomed");
  EXPECT_FALSE(dump.tenant_tail.empty());
}

// -- metrics sampler --------------------------------------------------

TEST(MetricsSamplerTest, RatesComeFromWindowDeltas) {
  std::uint64_t submitted = 0, rejected = 0;
  double p99 = 0.001;
  MetricsSampler sampler([&] {
    MetricsSample s;
    s.submitted = submitted;
    s.completed = submitted;
    s.rejected = rejected;
    s.queue_p99_s = p99;
    return s;
  });
  sampler.sample_now();
  submitted = 8;
  rejected = 2;
  p99 = 0.004;
  sampler.sample_now();

  const WindowRates rates = sampler.rates();
  EXPECT_EQ(rates.samples, 2u);
  EXPECT_GT(rates.window_s, 0.0);
  EXPECT_NEAR(rates.rejection_ratio, 0.2, 1e-12);
  EXPECT_NEAR(rates.queue_p99_now_s, 0.004, 1e-12);
  EXPECT_NEAR(rates.queue_p99_trend_s, 0.003, 1e-12);
  EXPECT_GT(rates.submitted_per_s, 0.0);
}

TEST(MetricsSamplerTest, WindowEvictsOldestSamples) {
  std::uint64_t submitted = 0;
  MetricsSampler sampler([&] {
    MetricsSample s;
    s.submitted = submitted;
    return s;
  });
  constexpr std::uint64_t kTaken = kSamplerWindow + 2;
  for (submitted = 1; submitted <= kTaken; ++submitted) sampler.sample_now();
  // sample_count() is the lifetime total; the ring keeps the newest
  // kSamplerWindow, so the two oldest are gone.
  EXPECT_EQ(sampler.sample_count(), kTaken);
  ASSERT_EQ(sampler.window().size(), kSamplerWindow);
  EXPECT_EQ(sampler.window().front().submitted, 3u);
  EXPECT_EQ(sampler.window().back().submitted, kTaken);
}

// -- health model -----------------------------------------------------

TEST(HealthModelTest, QuietInputsAreHealthy) {
  const HealthReport report = evaluate_health(HealthInputs{});
  EXPECT_EQ(report.state, HealthState::kHealthy);
  EXPECT_TRUE(report.reasons.empty());
  EXPECT_NE(report.to_json().find("\"state\":\"healthy\""),
            std::string::npos);
}

TEST(HealthModelTest, DrainAndRejectionsDegrade) {
  HealthInputs inputs;
  inputs.draining = true;
  inputs.rejected_since_baseline = 3;
  inputs.submitted_since_baseline = 100;
  const HealthReport report = evaluate_health(inputs);
  EXPECT_EQ(report.state, HealthState::kDegraded);
  EXPECT_TRUE(report.has_reason("drain"));
  EXPECT_TRUE(report.has_reason("queue-saturation"));
  EXPECT_FALSE(report.has_reason("watchdog"));
}

TEST(HealthModelTest, QueueUtilizationAloneDegrades) {
  HealthInputs inputs;
  inputs.queue_utilization = 0.9;
  const HealthReport report = evaluate_health(inputs);
  EXPECT_EQ(report.state, HealthState::kDegraded);
  EXPECT_TRUE(report.has_reason("queue-saturation"));
}

TEST(HealthModelTest, HeavyBurnIsUnhealthy) {
  HealthInputs inputs;
  inputs.rejected_since_baseline = 60;
  inputs.submitted_since_baseline = 40;
  EXPECT_EQ(evaluate_health(inputs).state, HealthState::kUnhealthy);

  HealthInputs failures;
  failures.failed = 9;
  failures.finished = 10;
  const HealthReport report = evaluate_health(failures);
  EXPECT_EQ(report.state, HealthState::kUnhealthy);
  EXPECT_TRUE(report.has_reason("failure-burn"));
}

TEST(HealthModelTest, WatchdogThresholdsEscalate) {
  HealthInputs inputs;
  inputs.watchdog_overdue = 1;
  EXPECT_EQ(evaluate_health(inputs).state, HealthState::kDegraded);
  inputs.watchdog_overdue = 4;
  const HealthReport report = evaluate_health(inputs);
  EXPECT_EQ(report.state, HealthState::kUnhealthy);
  EXPECT_TRUE(report.has_reason("watchdog"));
}

// -- watchdog ---------------------------------------------------------

TEST(WatchdogTest, DisabledWatchdogHandsOutNullTokens) {
  Watchdog watchdog(WatchdogOptions{0.0, 16});
  EXPECT_FALSE(watchdog.enabled());
  const std::uint64_t token = watchdog.begin("ignored");
  EXPECT_EQ(token, 0u);
  watchdog.end(token);  // no-op, no crash
  EXPECT_EQ(watchdog.in_flight(), 0u);
  EXPECT_TRUE(watchdog.overdue().empty());
}

TEST(WatchdogTest, OverdueWorkIsListedAndTripsOnCompletion) {
  Watchdog watchdog(WatchdogOptions{1e-9, 16});
  const std::uint64_t token = watchdog.begin("slow-measurement");
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::vector<Watchdog::Overdue> overdue = watchdog.overdue();
  ASSERT_EQ(overdue.size(), 1u);
  EXPECT_EQ(overdue[0].label, "slow-measurement");
  EXPECT_GT(overdue[0].elapsed_s, 0.0);
  EXPECT_EQ(watchdog.in_flight(), 1u);
  watchdog.end(token);
  EXPECT_EQ(watchdog.trips(), 1u);
  EXPECT_EQ(watchdog.in_flight(), 0u);
  {
    Watchdog::Scoped guard(watchdog, "scoped-measurement");
    EXPECT_EQ(watchdog.in_flight(), 1u);
  }
  EXPECT_EQ(watchdog.in_flight(), 0u);
}

// -- introspection ----------------------------------------------------

TEST(IntrospectionTest, RecorderStatsSurfaceWhenInstalled) {
  IntrospectionReport cold;
  fill_recorder_stats(cold);
  EXPECT_FALSE(cold.recorder_installed);

  FlightRecorder recorder;
  recorder.install();
  instant(Layer::kCore, "blip");
  IntrospectionReport warm;
  fill_recorder_stats(warm);
  recorder.uninstall();
  EXPECT_TRUE(warm.recorder_installed);
  EXPECT_EQ(warm.recorder_events, 1u);
  EXPECT_FALSE(warm.recorder_triggered);
}

// -- non-perturbation: recorder edition -------------------------------

TEST(FlightRecorderTest, RecorderDoesNotPerturbEngineResults) {
  core::MeasurementOptions poc;
  poc.chrono.duration = Time::seconds(2.0);
  poc.chrono.dt = Time::milliseconds(100.0);
  poc.chrono.grid_nodes = 24;
  poc.voltammetry.points_per_sweep = 40;
  core::Platform platform;
  platform.add_sensor(core::try_entry("MWCNT/Nafion + GOD (this work)").value(),
                      poc);
  Rng rng(77);
  core::ProtocolOptions protocol;
  protocol.blank_repeats = 4;
  protocol.replicates = 1;
  platform.try_calibrate_all(rng, protocol).value();

  std::vector<chem::Sample> cohort;
  for (int i = 0; i < 4; ++i) {
    chem::Sample s = chem::blank_sample();
    s.set("glucose", Concentration::milli_molar(0.2 + 0.1 * i));
    cohort.push_back(std::move(s));
  }
  core::PanelBatchOptions batch;
  batch.seed = 99;

  const auto fingerprint = [](const std::vector<core::PanelReport>& rs) {
    std::string out;
    char cell[64];
    for (const core::PanelReport& report : rs) {
      for (const core::AssayResult& r : report.results) {
        std::snprintf(cell, sizeof(cell), "%.17g;", r.response_a);
        out += cell;
      }
    }
    return out;
  };

  engine::Engine bare;
  const std::string reference =
      fingerprint(platform.run_panel_batch(cohort, bare, batch).reports);

  FlightRecorder recorder;
  recorder.install();
  engine::Engine observed;
  const std::string recorded =
      fingerprint(platform.run_panel_batch(cohort, observed, batch).reports);
  recorder.uninstall();
  EXPECT_GT(recorder.recorded_events(), 0u);
  EXPECT_EQ(recorded, reference);
}

}  // namespace
}  // namespace biosens::obs

namespace biosens::core {
namespace {

Platform small_platform() {
  Platform p;
  p.add_sensor(try_entry("MWCNT/Nafion + GOD (this work)").value());
  return p;
}

std::string fingerprint(const std::vector<PanelReport>& reports) {
  std::string out;
  char cell[64];
  for (const PanelReport& report : reports) {
    for (const AssayResult& r : report.results) {
      std::snprintf(cell, sizeof(cell), "%.17g|%.17g;", r.response_a,
                    r.estimated.milli_molar());
      out += cell;
    }
    out += '\n';
  }
  return out;
}

std::vector<chem::Sample> glucose_samples(std::size_t count) {
  std::vector<chem::Sample> samples;
  Rng levels(77);
  for (std::size_t i = 0; i < count; ++i) {
    chem::Sample s = chem::blank_sample();
    s.set("glucose", Concentration::milli_molar(levels.uniform(0.2, 0.8)));
    samples.push_back(std::move(s));
  }
  return samples;
}

class TracedBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    platform_ = small_platform();
    ProtocolOptions o;
    o.blank_repeats = 8;
    o.replicates = 1;
    Rng rng(2012);
    platform_.try_calibrate_all(rng, o).value();
    samples_ = glucose_samples(6);
  }

  Platform platform_;
  std::vector<chem::Sample> samples_;
};

TEST_F(TracedBatch, TracingDoesNotPerturbResults) {
  PanelBatchOptions options;
  options.seed = 99;

  engine::Engine untraced;
  const std::string baseline =
      fingerprint(platform_.run_panel_batch(samples_, untraced, options)
                      .reports);

  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    obs::FlightRecorderOptions trace_sized;
    trace_sized.ring_capacity_per_thread = std::size_t{1} << 20;
    obs::FlightRecorder recorder(trace_sized);
    engine::EngineOptions eo;
    eo.workers = workers;
    engine::Engine traced(eo);
    recorder.install();
    const std::string fp = fingerprint(
        platform_.run_panel_batch(samples_, traced, options).reports);
    recorder.uninstall();
    EXPECT_EQ(fp, baseline) << "tracing perturbed results at " << workers
                            << " workers";

    // The trace covers every instrumented layer of the glucose pipeline,
    // and each job's queue wait is one async-end event.
    const obs::RecorderDump dump = recorder.dump();
    EXPECT_EQ(dump.overwritten, 0u);
    const obs::LayerSpanStats stats(dump);
    for (const Layer layer :
         {Layer::kChem, Layer::kTransport, Layer::kElectrochem,
          Layer::kReadout, Layer::kCore, Layer::kEngine}) {
      EXPECT_GT(stats.latency[static_cast<std::size_t>(layer)].count(), 0u)
          << "no spans recorded for layer " << to_string(layer) << " at "
          << workers << " workers";
    }
    std::size_t queue_waits = 0;
    for (const obs::RecorderEvent& ev : dump.events) {
      if (ev.event.phase == obs::EventPhase::kAsyncEnd &&
          ev.event.name == "queue-wait") {
        ++queue_waits;
      }
    }
    EXPECT_EQ(queue_waits, samples_.size());
  }
}

TEST_F(TracedBatch, QueueWaitIsRecordedIndependentlyOfTracing) {
  engine::Engine engine(engine::EngineOptions{.workers = 2});
  const core::PanelBatchResult result =
      platform_.run_panel_batch(samples_, engine, {});
  EXPECT_EQ(result.jobs.size(), samples_.size());
  const engine::MetricsSnapshot s = engine.snapshot();
  EXPECT_EQ(engine.metrics().queue_wait.count(), samples_.size());
  EXPECT_GE(s.queue_p95_s, s.queue_p50_s);
  EXPECT_GE(s.queue_max_s, s.queue_p99_s);
}

TEST(MetricsGuards, ZeroWallClockYieldsFiniteRates) {
  engine::MetricsRegistry metrics;
  metrics.jobs_succeeded.increment(10);
  metrics.add_busy_seconds(1.0);
  for (const double wall : {0.0, 1e-12, -1.0}) {
    const engine::MetricsSnapshot s = metrics.snapshot(wall);
    EXPECT_EQ(s.utilization(), 0.0) << "wall=" << wall;
  }
}

}  // namespace
}  // namespace biosens::core
