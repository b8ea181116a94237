// e2e_selftest: checks of the benchmark's own machinery — metric-name
// validity, open-loop lateness accounting, slice medians, ledger
// arithmetic, and the replay's bit-equality failure path. Exits
// nonzero on any failure.
//
//   .bench_build/e2ebench/e2e_selftest
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/catalog.hpp"
#include "core/sensor.hpp"
#include "ledger.hpp"
#include "metrics.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest line %d: FAILED %s\n", line, what);
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-9; }

void test_quantiles() {
  const std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT(e2e::quantile(v, 0.5) == 3);
  EXPECT(e2e::quantile(v, 0.0) == 1);
  EXPECT(e2e::quantile(v, 1.0) == 5);
  EXPECT(e2e::quantile({}, 0.5) == 0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT(e2e::quantile(hundred, 0.99) == 99);
  hundred.back() = std::numeric_limits<double>::infinity();
  EXPECT(e2e::quantile(hundred, 0.99) == 99);
  EXPECT(std::isinf(e2e::quantile(hundred, 1.0)));
}

void test_open_loop_lateness() {
  // 1000 requests due every ms; the generator stalls for 50 ms before
  // request 100, so requests 100..149 are sent late. Service time is
  // 2 ms after sending. Latency counts from the due time.
  std::vector<e2e::OpenLoopRequest> reqs;
  for (int i = 0; i < 1000; ++i) {
    e2e::OpenLoopRequest r;
    r.due_s = 1e-3 * i;
    r.sent_s = (i >= 100 && i < 150) ? 0.150 : r.due_s;
    r.done_s = r.sent_s + 2e-3;
    reqs.push_back(r);
  }
  const e2e::OpenLoopSummary s = e2e::summarize_open_loop(reqs);
  EXPECT(s.requests == 1000);
  EXPECT(s.failed == 0);
  EXPECT(near(s.latency_p50_ms, 2.0));
  // The stall's victims took 52 ms down to 3 ms; nearest-rank p99 is
  // the 990th value, 42 ms, with ten worse (52..43 ms) beyond it. The
  // generator itself ran 50 ms down to 1 ms late: p99 40 ms.
  EXPECT(near(s.latency_p99_ms, 42.0));
  EXPECT(s.beyond_p99 == 10);
  EXPECT(near(s.late_p99_ms, 40.0));

  // A rejected request misses any limit: with 2% failed, p99 is +inf.
  for (int i = 0; i < 20; ++i) reqs[static_cast<std::size_t>(i)].ok = false;
  const e2e::OpenLoopSummary f = e2e::summarize_open_loop(reqs);
  EXPECT(f.failed == 20);
  EXPECT(std::isinf(f.latency_p99_ms));
  EXPECT(near(f.latency_p50_ms, 2.0));

  // Sliced: the stall sits in the first of five slices of 200, so the
  // other slices' p99 (2 ms) carry the median; lateness stays whole-run.
  for (int i = 0; i < 20; ++i) reqs[static_cast<std::size_t>(i)].ok = true;
  const e2e::OpenLoopSummary sliced = e2e::summarize_open_loop(reqs, 5);
  EXPECT(near(sliced.latency_p99_ms, 2.0));
  EXPECT(near(sliced.latency_p50_ms, 2.0));
  EXPECT(near(sliced.late_p99_ms, 40.0));
  EXPECT(near(e2e::sliced_quantile({1, 2, 3, 4, 100}, 0.5, 1), 3.0));
  EXPECT(near(e2e::sliced_quantile({1, 9, 2, 9, 3, 9}, 0.0, 3), 2.0));

  // A generator that is never late reports zero lateness.
  std::vector<e2e::OpenLoopRequest> punctual(10);
  for (int i = 0; i < 10; ++i) {
    punctual[static_cast<std::size_t>(i)].due_s = i;
    punctual[static_cast<std::size_t>(i)].sent_s = i;
    punctual[static_cast<std::size_t>(i)].done_s = i + 0.5;
  }
  EXPECT(e2e::summarize_open_loop(punctual).late_p99_ms == 0.0);
}

void test_metric_names() {
  std::set<std::string> names;
  bool has_setup = false;
  for (const e2e::MetricDef& m : e2e::kEndToEnd) {
    EXPECT(e2e::valid_metric_name(m.name));
    EXPECT(e2e::valid_unit(m.unit));
    EXPECT(m.bound > 0.0 && m.bound <= 0.25);
    EXPECT(names.insert(std::string(m.name)).second);
    if (m.name == "setup_s") {
      has_setup = m.unit == "s" && m.better == e2e::Better::kLower;
    }
  }
  EXPECT(has_setup);
  EXPECT(!e2e::kPerLayer.empty() && e2e::kPerLayer.size() <= 128);
  for (const e2e::MetricDef& m : e2e::kPerLayer) {
    EXPECT(e2e::valid_metric_name(m.name));
    EXPECT(e2e::valid_unit(m.unit));
    EXPECT(m.bound < 0.0);
    EXPECT(names.insert(std::string(m.name)).second);
  }
  for (const e2e::WorkloadDef& w : e2e::kWorkloads) {
    EXPECT(e2e::valid_metric_name(w.name));
    EXPECT(names.insert(std::string(w.name)).second);
    EXPECT(w.why.size() + 2 + w.shape.size() <= 200);
  }
  EXPECT(!e2e::valid_metric_name(""));
  EXPECT(!e2e::valid_metric_name("_hidden"));
  EXPECT(!e2e::valid_metric_name("has space"));
  EXPECT(!e2e::valid_metric_name(std::string(65, 'a')));
  EXPECT(e2e::valid_metric_name(std::string(64, 'a')));
  EXPECT(e2e::valid_metric_name("9lives.x-y_z"));
  EXPECT(!e2e::valid_unit(""));
  EXPECT(!e2e::valid_unit("micro seconds"));
  EXPECT(e2e::valid_unit("1/s"));
  EXPECT(e2e::valid_unit("%"));
}

void test_json() {
  EXPECT(e2e::json_number(0.5) == "0.5");
  EXPECT(e2e::json_number(std::numeric_limits<double>::infinity()) == "null");
  EXPECT(e2e::json_string("a\"b") == "\"a\\\"b\"");
}

void test_slice_rate() {
  // Nine batches of 40 measurements at 0.1 s and one stalled for 2 s:
  // the median of five slices ignores the stall, the whole-run rate not.
  std::vector<double> work(10, 40.0);
  std::vector<double> seconds(10, 0.1);
  seconds.back() = 2.0;
  EXPECT(near(e2e::median_slice_rate(work, seconds, 5), 400.0));
  EXPECT(near(e2e::median_slice_rate(work, seconds, 1), 400.0 / 2.9));
  EXPECT(near(e2e::median_slice_rate({8.0}, {2.0}, 9), 4.0));
  EXPECT(e2e::median_slice_rate({}, {}, 9) == 0.0);
}

void test_ledger_row() {
  e2e::LedgerRow row;
  row.measure_us = 100.0;
  row.layer_us = {1.0, 2.0, 80.0, 0.0, 10.0, 2.0};
  EXPECT(near(row.layers_us(), 95.0));
  EXPECT(near(row.unattributed_us(), 5.0));
  EXPECT(near(row.unattributed_pct(), 5.0));
  EXPECT(std::string(row.dominant_layer()) == "electrochem.sim");
}

void test_replay_bit_equality() {
  EXPECT(!e2e::same_bits(0.0, -0.0));
  EXPECT(e2e::same_bits(1.5, 1.5));
  EXPECT(!e2e::same_bits(1.0, std::nextafter(1.0, 2.0)));

  // A real sensor: the FET replays cheaply. The reported response comes
  // from try_measure on the same stream, so the replay must match it.
  auto entry = biosens::core::try_entry("CNT-BA FET");
  EXPECT(entry.has_value());
  if (!entry) return;
  const biosens::core::MeasurementOptions options{};
  const biosens::core::BiosensorModel sensor(entry.value().spec, options);
  const biosens::chem::Sample sample = biosens::chem::calibration_sample(
      "glucose", biosens::Concentration::milli_molar(0.8));
  e2e::ReplayItem item;
  item.sensor = &sensor;
  item.sample = sample;
  item.rng = biosens::Rng(42);
  biosens::Rng rng = item.rng;
  auto m = sensor.try_measure(sample, rng);
  EXPECT(m.has_value());
  if (!m) return;
  item.reported_response_a = m.value().response_a;

  e2e::Tracer tracer;
  e2e::ReplayOptions replay;
  replay.rounds = 2;
  const e2e::Ledger ok = e2e::run_ledger({item}, options, nullptr, tracer,
                                         replay);
  EXPECT(ok.mismatches == 0);
  EXPECT(ok.all.items == 1);
  EXPECT(ok.all.layer_us[3] > 0.0);  // fet.transduce ran
  EXPECT(std::string(ok.by_family.at(e2e::Family::kFet).dominant_layer()) !=
         "electrochem.sim");

  // The failure path: a replay whose response differs by one bit, and a
  // workload report that disagrees with try_measure, are both caught.
  replay.inject_fault = true;
  const e2e::Ledger faulted =
      e2e::run_ledger({item}, options, nullptr, tracer, replay);
  EXPECT(faulted.mismatches == 1);
  EXPECT(faulted.first_mismatch.find("differs") != std::string::npos);

  replay.inject_fault = false;
  item.reported_response_a = std::nextafter(item.reported_response_a, 1.0);
  const e2e::Ledger misreported =
      e2e::run_ledger({item}, options, nullptr, tracer, replay);
  EXPECT(misreported.mismatches == 2);  // both rounds
}

}  // namespace

int main() {
  test_quantiles();
  test_open_loop_lateness();
  test_metric_names();
  test_json();
  test_slice_rate();
  test_ledger_row();
  test_replay_bit_equality();
  if (g_failures > 0) {
    std::fprintf(stderr, "e2e_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("e2e_selftest: all checks passed\n");
  return 0;
}
