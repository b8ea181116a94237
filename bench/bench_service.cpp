// Service throughput: sustained measurement rate and queue-wait SLOs of
// the resident SimulationService hosting 10k+ concurrent patient
// sessions, at 1 / 4 / 8 workers.
//
// The workload is the steady state a deployed point-of-care backend
// sees: 10,000 open sessions spread over 16 tenants, half interactive
// and half bulk, each streaming a few measurements per round. The bench
// reports sustained jobs/sec (submission through drain) and the p50/p99
// queue wait per run, and asserts the service's determinism contract:
// the final session snapshots must be byte-identical across every
// worker count — scheduling may change *when* a measurement runs, never
// *what* it computes (docs/service.md). The bench exits nonzero on any
// divergence.
//
// BIOSENS_SMOKE=1 runs a reduced configuration (CI gate): fewer
// sessions and rounds, google-benchmark timings skipped. The
// service_jobs_per_sec line it prints is the CI regression gate input;
// the JSON printed at the end is the committed BENCH_service.json
// baseline format.
#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/instruments.hpp"
#include "service/service.hpp"

namespace {

using namespace biosens;

constexpr std::size_t kTenants = 16;
constexpr std::size_t kSnapshotProbe = 64;  ///< sessions byte-compared

/// Cheap deterministic measurement body: a drifting glucose level with
/// per-measurement sensor noise. Arithmetic is intentionally light so
/// the bench measures the *service* (queues, fairness, dispatch), not
/// the simulation kernels.
service::SessionBody make_body() {
  return [](service::SessionContext& c) -> Expected<double> {
    double& drift = c.state[0];
    drift += 0.01 * c.session_rng.normal();
    return 5.2 + drift + 0.4 * std::sin(c.sim_time_s * 1e-3) +
           c.rng.normal(0.0, 0.05);
  };
}

struct LoadResult {
  double wall_s = 0.0;
  double jobs_per_sec = 0.0;
  double p50_wait_us = 0.0;
  double p99_wait_us = 0.0;
  std::uint64_t completed = 0;
  std::vector<std::string> probe_snapshots;
};

LoadResult run_load(std::size_t workers, std::size_t sessions,
                    std::size_t rounds) {
  service::ServiceOptions options;
  options.workers = workers;
  // Sized so admission never rejects: this bench measures sustained
  // throughput, not the backpressure path (tests cover that).
  options.max_pending_per_session = rounds + 1;
  options.max_pending_per_tenant = 1u << 20;
  options.max_pending_total = 1u << 20;
  service::SimulationService svc(options);

  std::vector<service::SessionId> ids(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    service::SessionOptions s;
    s.tenant = "tenant-" + std::to_string(i % kTenants);
    s.priority = (i % 2 == 0) ? service::PriorityClass::kInteractive
                              : service::PriorityClass::kBulk;
    s.seed = 9000 + i;
    s.body = make_body();
    s.initial_state = {0.0};
    auto opened = svc.try_open_session(std::move(s));
    if (!opened.has_value()) {
      std::fprintf(stderr, "open_session failed: %s\n",
                   opened.error().describe().c_str());
      std::exit(1);
    }
    ids[i] = opened.value();
  }

  const obs::Stopwatch watch;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < sessions; ++i) {
      auto submitted = svc.try_submit_measurement(ids[i]);
      if (!submitted.has_value()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     submitted.error().describe().c_str());
        std::exit(1);
      }
    }
  }
  svc.drain();
  LoadResult result;
  result.wall_s = watch.elapsed_seconds();
  result.completed = static_cast<std::uint64_t>(sessions) * rounds;
  result.jobs_per_sec =
      static_cast<double>(result.completed) / result.wall_s;

  // Queue wait across both classes, weighted by recording count.
  const obs::LatencyHistogram& interactive =
      svc.slo(service::PriorityClass::kInteractive).queue_wait;
  result.p50_wait_us = interactive.quantile(0.50) * 1e6;
  result.p99_wait_us = interactive.quantile(0.99) * 1e6;

  result.probe_snapshots.reserve(kSnapshotProbe);
  for (std::size_t i = 0; i < kSnapshotProbe && i < sessions; ++i) {
    auto snapshot = svc.try_snapshot(ids[i]);
    if (!snapshot.has_value()) {
      std::fprintf(stderr, "snapshot failed: %s\n",
                   snapshot.error().describe().c_str());
      std::exit(1);
    }
    result.probe_snapshots.push_back(snapshot.value().encode());
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("BIOSENS_SMOKE") != nullptr;
  biosens::bench::print_banner(
      "Simulation service — sustained throughput and queue-wait SLOs",
      smoke ? "reduced CI smoke configuration"
            : "10k concurrent sessions, 16 tenants, 1/4/8 workers");

  const std::size_t sessions = smoke ? 1024 : 10000;
  const std::size_t rounds = smoke ? 2 : 4;
  const std::size_t worker_counts[] = {1, 4, 8};

  std::printf(
      "\n%zu sessions over %zu tenants, %zu measurements each "
      "(%zu jobs per run):\n"
      "  %-8s %12s %14s %14s\n",
      sessions, kTenants, rounds, sessions * rounds, "workers", "jobs/s",
      "p50 wait [us]", "p99 wait [us]");

  std::vector<LoadResult> results;
  for (const std::size_t workers : worker_counts) {
    results.push_back(run_load(workers, sessions, rounds));
    const LoadResult& r = results.back();
    std::printf("  %-8zu %12.0f %14.1f %14.1f\n", workers, r.jobs_per_sec,
                r.p50_wait_us, r.p99_wait_us);
  }

  bool deterministic = true;
  for (std::size_t w = 1; w < results.size(); ++w) {
    if (results[w].probe_snapshots != results[0].probe_snapshots) {
      deterministic = false;
      std::fprintf(stderr,
                   "BYTE-IDENTITY VIOLATION: session snapshots at %zu "
                   "workers diverge from the 1-worker reference\n",
                   worker_counts[w]);
    }
  }
  std::printf(
      "byte-identity: %zu probe snapshots identical across 1/4/8 workers "
      "... %s\n",
      std::size_t{kSnapshotProbe}, deterministic ? "OK" : "VIOLATION");

  // CI regression-gate line (ci/check.sh perf stage): sustained rate at
  // 4 workers, the deployment configuration.
  std::printf("service_jobs_per_sec=%.0f\n", results[1].jobs_per_sec);

  std::string json = "{\n";
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "  \"sessions\": %zu, \"tenants\": %zu, \"rounds\": %zu,\n",
                sessions, kTenants, rounds);
  json += buffer;
  json += "  \"workers\": {\n";
  for (std::size_t w = 0; w < results.size(); ++w) {
    const LoadResult& r = results[w];
    std::snprintf(buffer, sizeof(buffer),
                  "    \"%zu\": {\"jobs_per_sec\": %.0f, "
                  "\"p50_wait_us\": %.1f, \"p99_wait_us\": %.1f}%s\n",
                  worker_counts[w], r.jobs_per_sec, r.p50_wait_us,
                  r.p99_wait_us, w + 1 < results.size() ? "," : "");
    json += buffer;
  }
  json += "  },\n";
  json += std::string("  \"deterministic\": ") +
          (deterministic ? "true" : "false") + ",\n";
  json += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + "\n}\n";
  std::printf("\n%s", json.c_str());

  const char* dir = std::getenv("BIOSENS_EXPORT_DIR");
  if (dir != nullptr) {
    const std::string path = std::string(dir) + "/BENCH_service.json";
    biosens::Table::write_file(path, json);
    std::printf("(exported %s)\n", path.c_str());
  }

  if (!deterministic) return 1;
  if (smoke) return 0;
  return biosens::bench::run_timings(argc, argv);
}
