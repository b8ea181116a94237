// The per-layer ledger: benchmark-side spans, self-time accounting, and
// the layer-by-layer replay of a measurement.
//
// The benchmark adds no tracing to the library. Instead it records its
// own spans around its calls into each layer's public functions, and
// replays a fixed subset of a workload's measurements layer by layer:
// the same chain of public calls BiosensorModel::try_measure makes
// (simulation, autoranged acquisition, reduction), on the same sample,
// rng stream and cache. The replayed response must equal try_measure's
// bit for bit, or the ledger is describing some other computation.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "chem/solution.hpp"
#include "common/expected.hpp"
#include "common/rng.hpp"
#include "core/sensor.hpp"
#include "engine/sim_cache.hpp"

namespace e2e {

using SpanId = std::int64_t;
inline constexpr SpanId kNoParent = -1;

/// One finished span. `name` points at a string literal.
struct Span {
  const char* name = "";
  SpanId parent = kNoParent;
  std::uint64_t request = 0;  ///< batch, reading or replay-item id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store, written out when the run ends. Thread-safe:
/// session bodies record from the service's workers.
class Tracer {
 public:
  [[nodiscard]] static std::int64_t now_ns();

  /// Opens a span and returns its id; close it with end().
  SpanId begin(const char* name, SpanId parent, std::uint64_t request);
  void end(SpanId id);

  /// Records a span whose interval was measured elsewhere.
  void add(const char* name, SpanId parent, std::uint64_t request,
           std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes one JSON object per span (name, id, parent, request,
  /// start/duration in ns). Returns false when the file cannot be
  /// written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span; a null tracer makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, SpanId parent = kNoParent,
             std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, parent, request)
                              : kNoParent) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] SpanId id() const { return id_; }

 private:
  Tracer* tracer_;
  SpanId id_;
};

/// Transduction family of a sensor, which fixes the replay's layers.
enum class Family { kChrono, kCv, kFet };

[[nodiscard]] std::string_view to_string(Family family);

/// The family of a catalog sensor; a spec error for techniques the
/// replay does not cover (DPV, potentiometry).
[[nodiscard]] biosens::Expected<Family> family_of(
    const biosens::core::BiosensorModel& sensor);

/// Work counted while replaying.
struct ReplayCounts {
  std::uint64_t sims = 0;        ///< electrochem simulations run
  std::uint64_t node_steps = 0;  ///< Crank-Nicolson steps x grid nodes
  std::uint64_t lookups = 0;     ///< sim-cache lookups
  std::uint64_t hits = 0;
};

/// Replays one measurement layer by layer through public functions,
/// recording a span per layer call under `parent`:
///   engine.cache_key / engine.cache_lookup (when `cache` is non-null),
///   electrochem.sim (Cell + Chronoamperometry/VoltammetrySim::try_run),
///   fet.transduce (transfer curve, operating current, noisy hold),
///   readout.acquire (SignalChain::try_for_full_scale, try_create,
///   try_acquire), analysis.reduce (try_tail_mean_a /
///   try_find_cathodic_peak).
/// `options` must be the MeasurementOptions the sensor was built with.
/// Consumes `rng` exactly as try_measure does; never writes the cache.
[[nodiscard]] biosens::Expected<double> replay_response(
    const biosens::core::BiosensorModel& sensor,
    const biosens::core::MeasurementOptions& options,
    const biosens::chem::Sample& sample, biosens::Rng& rng,
    biosens::engine::SimCache* cache, Tracer& tracer, SpanId parent,
    std::uint64_t request, ReplayCounts& counts);

/// Bit-for-bit equality of two responses (0.0 and -0.0 differ; NaNs
/// compare by payload).
[[nodiscard]] bool same_bits(double a, double b);

/// One measurement to replay: the sensor, its input, the rng state the
/// workload measured it with, and the response the workload reported.
struct ReplayItem {
  const biosens::core::BiosensorModel* sensor = nullptr;
  biosens::chem::Sample sample;
  biosens::Rng rng;
  double reported_response_a = 0.0;
};

/// The replay's layer spans, in the order the ledger prints them.
inline constexpr std::array<const char*, 6> kLedgerLayers{
    "engine.cache_key", "engine.cache_lookup", "electrochem.sim",
    "fet.transduce",    "readout.acquire",     "analysis.reduce"};

/// Mean self time per replayed measurement, for one family or for all.
struct LedgerRow {
  std::uint64_t items = 0;
  double measure_us = 0.0;  ///< try_measure as a whole
  std::array<double, kLedgerLayers.size()> layer_us{};
  [[nodiscard]] double layers_us() const;
  /// What try_measure spends outside the replayed layers.
  [[nodiscard]] double unattributed_us() const {
    return measure_us - layers_us();
  }
  /// |unattributed| as a percentage of measure_us.
  [[nodiscard]] double unattributed_pct() const;
  [[nodiscard]] const char* dominant_layer() const;
};

struct Ledger {
  LedgerRow all;
  std::map<Family, LedgerRow> by_family;
  ReplayCounts counts;
  double key_probe_us = 0.0;  ///< simulation_key cost, cache or not
  std::size_t mismatches = 0;
  std::string first_mismatch;
};

/// How far the replayed layers may miss core.measure_us before the
/// ledger counts as open: |unattributed| <= this share of measure_us
/// over all replayed measurements (the per-family rows are printed).
inline constexpr double kLedgerBoundPct = 15.0;

struct ReplayOptions {
  /// Rounds per item; the first warms caches and sets the counts, the
  /// rest are timed (a single round is timed too).
  std::size_t rounds = 3;
  bool inject_fault = false;  ///< flip one bit of the first replay
};

/// Times try_measure and the replay of every item, `rounds` times each
/// (alternating which goes first), checks the replay's response equals
/// both try_measure's and the workload's report bit for bit, and
/// aggregates self times into the ledger.
[[nodiscard]] Ledger run_ledger(const std::vector<ReplayItem>& items,
                                const biosens::core::MeasurementOptions&
                                    options,
                                biosens::engine::SimCache* cache,
                                Tracer& tracer, const ReplayOptions& replay);

}  // namespace e2e
