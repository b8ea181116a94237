// Patient sessions: the stateful, resumable measurement streams the
// simulation service hosts.
//
// A session is one patient's ongoing interaction with the platform: a
// tenant (clinic, ward, study) opens it, streams measurement requests
// into it over time, advances its simulated clock between visits, and
// eventually closes it to collect the full result stream. Sessions are
// *deterministic*: the result stream is a pure function of (seed, body,
// submitted request sequence), independent of worker count and
// scheduling — measurement i draws from the child stream
// root.child(i), and the session-sequential stream advances in strict
// submission order because the service executes one measurement of a
// session at a time (docs/service.md).
//
// Sessions are also *resumable*: SessionSnapshot captures everything
// the stream's future depends on — user state vector, the sequential
// RNG's exact position, the simulated clock, the completed record
// stream — as bit-exact KV text. A restored session continues
// byte-identically to one that was never interrupted (CTest-enforced).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "common/rng.hpp"

namespace biosens::service {

/// Opaque session handle, unique within one service instance.
using SessionId = std::uint64_t;

/// Scheduling class of everything a session submits. Interactive is
/// point-of-care work (a clinician waiting on a reading); bulk is
/// retrospective re-simulation, parameter sweeps, cohort studies. A
/// free worker always takes runnable interactive work before bulk.
enum class PriorityClass {
  kInteractive,
  kBulk,
};

inline constexpr std::size_t kPriorityClassCount = 2;

[[nodiscard]] constexpr std::string_view to_string(PriorityClass cls) {
  switch (cls) {
    case PriorityClass::kInteractive: return "interactive";
    case PriorityClass::kBulk: return "bulk";
  }
  return "unknown";
}

[[nodiscard]] Expected<PriorityClass> try_parse_priority(
    std::string_view text);

/// Everything a measurement body may read and mutate. The service hands
/// one of these to the session body per executed measurement; `rng` is
/// the measurement's own child stream (pure function of seed + index),
/// `session_rng` and `state` persist across the session's lifetime and
/// evolve in submission order.
struct SessionContext {
  SessionId session = 0;
  std::uint64_t index = 0;    ///< measurement index within the session
  double sim_time_s = 0.0;    ///< session clock at submission time
  Rng rng;                    ///< per-measurement stream: root.child(index)
  Rng& session_rng;           ///< sequential stream, snapshot-serialized
  std::vector<double>& state; ///< persistent per-session user state
};

/// One measurement the session body runs. Returns the measurement value
/// or a structured error (recorded, counted, and annotated on the
/// span — a failed measurement never kills the session).
using SessionBody = std::function<Expected<double>(SessionContext&)>;

/// One completed measurement in a session's result stream.
struct MeasurementRecord {
  std::uint64_t index = 0;
  double sim_time_s = 0.0;
  double value = 0.0;  ///< 0.0 when !ok (the error was counted instead)
  bool ok = true;

  [[nodiscard]] bool operator==(const MeasurementRecord&) const = default;
};

/// Parameters for open_session / restore.
struct SessionOptions {
  std::string tenant = "default";  ///< whitespace/quote-free identifier
  PriorityClass priority = PriorityClass::kInteractive;
  std::uint64_t seed = 0x5e5510995e551099ULL;
  SessionBody body;                ///< required
  std::vector<double> initial_state;
};

/// What close_session returns: identity plus the full ordered stream.
struct SessionSummary {
  SessionId id = 0;
  std::string tenant;
  PriorityClass priority = PriorityClass::kInteractive;
  std::uint64_t completed = 0;  ///< records with ok == true
  std::uint64_t failed = 0;     ///< records with ok == false
  std::vector<MeasurementRecord> stream;  ///< ordered by index
};

/// A quiesced session, serialized. encode()/try_decode() round-trip
/// byte-identically (doubles travel as raw IEEE-754 bit patterns); the
/// body is NOT captured — restore supplies it again, so snapshots stay
/// plain text and code upgrades are possible across a restart.
struct SessionSnapshot {
  std::string tenant;
  PriorityClass priority = PriorityClass::kInteractive;
  std::uint64_t seed = 0;
  std::uint64_t next_index = 0;  ///< first measurement index after restore
  double sim_time_s = 0.0;
  RngState session_rng;          ///< exact sequential-stream position
  std::vector<double> state;
  std::vector<MeasurementRecord> records;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;

  /// Bit-exact KV text (common/serialize.hpp), versioned first line.
  [[nodiscard]] std::string encode() const;

  /// Structured kSpec errors on truncation, reordering, version or
  /// checks-sum mismatches — a corrupt snapshot never restores quietly.
  [[nodiscard]] static Expected<SessionSnapshot> try_decode(
      std::string_view text);
};

}  // namespace biosens::service
