// The benchmark's metric and workload table — the single source the
// benchmark prints from and BENCHMARK.json is generated from
// (`python3 e2ebench/run.py --write-manifest`).
#pragma once

#include <array>
#include <string_view>

namespace e2e {

enum class Better { kLower, kHigher };

/// One reported metric. End-to-end metrics carry the regression bound
/// (a share of the parent's median); per-layer metrics have none.
struct MetricDef {
  std::string_view name;
  std::string_view unit;
  Better better;
  double bound;  ///< < 0 for per-layer metrics
};

// Timing bounds are the largest allowed: on the shared 4-core box the
// benchmark was sized on, single-thread speed drifts by 10-15% between
// runs tens of seconds apart (no CPU steal shows; the same seed reads
// 390 and 537 measurements/s on cohort_cold), which sets the run-to-run
// spread of every time metric.
inline constexpr std::array<MetricDef, 5> kEndToEnd{{
    {"meas_per_s", "1/s", Better::kHigher, 0.25},
    {"latency_p50_ms", "ms", Better::kLower, 0.25},
    {"latency_p99_ms", "ms", Better::kLower, 0.25},
    {"setup_s", "s", Better::kLower, 0.25},
    {"peak_rss_mb", "MB", Better::kLower, 0.10},
}};

inline constexpr std::array<MetricDef, 23> kPerLayer{{
    {"electrochem.sim_us", "us", Better::kLower, -1},
    {"transport.node_steps", "count", Better::kLower, -1},
    {"engine.batch_lanes", "count", Better::kHigher, -1},
    {"engine.batch_factorizations", "count", Better::kLower, -1},
    {"readout.acquire_us", "us", Better::kLower, -1},
    {"analysis.reduce_us", "us", Better::kLower, -1},
    {"fet.transduce_us", "us", Better::kLower, -1},
    {"engine.cache_hit_ratio", "ratio", Better::kHigher, -1},
    {"engine.cache_lookups", "count", Better::kHigher, -1},
    {"engine.cache_key_us", "us", Better::kLower, -1},
    {"engine.cache_lookup_us", "us", Better::kLower, -1},
    {"engine.utilization", "ratio", Better::kHigher, -1},
    {"engine.queue_wait_ms_p99", "ms", Better::kLower, -1},
    {"core.measure_us", "us", Better::kLower, -1},
    {"core.unattributed_us", "us", Better::kLower, -1},
    {"ledger.unattributed_pct", "%", Better::kLower, -1},
    {"replay.items", "count", Better::kHigher, -1},
    {"service.submit_us", "us", Better::kLower, -1},
    {"service.queue_wait_ms_p99", "ms", Better::kLower, -1},
    {"service.exec_ms_p50", "ms", Better::kLower, -1},
    {"core.calibrate_s", "s", Better::kLower, -1},
    {"gen.late_p99_ms", "ms", Better::kLower, -1},
    {"obs.trace_overhead_pct", "%", Better::kLower, -1},
}};

/// One workload: its name, why it was chosen, and its load shape. The
/// manifest's one-line `why` is "<why>; <shape>".
struct WorkloadDef {
  std::string_view name;
  std::string_view why;
  std::string_view shape;
};

inline constexpr std::array<WorkloadDef, 3> kWorkloads{{
    {"cohort_cold",
     "distinct patients on a 5-sensor panel, sim cache off: electrochem, "
     "transport and cohort prefill do the work",
     "closed loop, 1 client, batches of 8 patients, 3 engine workers"},
    {"cohort_warm",
     "same panel over 36 repeated compositions, warm sim cache: readout, "
     "analysis, keying and dispatch dominate",
     "closed loop, 1 client, batches of 64 patients, 3 engine workers"},
    {"poc_sessions",
     "patient sessions on GOD, FET and CV sensors through the service: "
     "admission, fair scheduling, per-session order",
     "open loop, Poisson 200 readings/s over 24 sessions, 3 service workers"},
}};

}  // namespace e2e
