// Typed job descriptions for the batch engine.
//
// A job is one schedulable unit of simulated instrument work: a full
// panel assay on one sample, one patient's simulated therapy course, one
// sensor's calibration sweep. The engine itself is agnostic to what the
// body computes; the instrument-affinity key is the one scheduling fact
// a job carries. core/ provides the factories that wrap Platform and
// workload calls into JobSpecs.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>

#include "common/expected.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace biosens::engine {

/// Jobs with this affinity (the default) run fully concurrently.
inline constexpr std::size_t kNoAffinity =
    std::numeric_limits<std::size_t>::max();

/// Execution context handed to a job body. The rng is the attempt's
/// private deterministic stream: `root.child(job_index).child(attempt)`.
/// Identical regardless of worker count or completion order.
struct JobContext {
  std::size_t index = 0;    ///< position of the job in its batch
  std::size_t attempt = 0;  ///< 0-based measurement attempt
  Rng rng;
};

/// One measurement attempt. Returns true when the result passes QC;
/// false requests a re-measurement under the batch's retry policy. A
/// structured error (Expected holding an ErrorInfo) marks the attempt
/// failed: the engine records it on the JobReport and in the per-code
/// failure counters, retries it only when ErrorInfo::retryable() says
/// the fault is transient, and never lets it abort the rest of the
/// batch. Bodies should not throw — a stray exception is caught at the
/// engine boundary and converted via ErrorInfo::from_exception().
using JobBody = std::function<Expected<bool>(JobContext&)>;

/// A schedulable unit of work.
struct JobSpec {
  std::string name;
  JobBody body;
  /// Jobs sharing an affinity key are serialized: they contend for one
  /// physical instrument (the chip's five working electrodes share a
  /// single counter/reference, so one chip runs one panel at a time).
  std::size_t affinity = kNoAffinity;
};

/// Per-job execution record, in batch (input) order.
struct JobReport {
  std::size_t index = 0;
  std::string name;
  std::size_t attempts = 0;
  bool accepted = false;  ///< final attempt passed QC
  /// Structured failure of the *final* attempt (empty when the job was
  /// accepted, or when it merely exhausted QC retries without a fault).
  std::optional<ErrorInfo> error;
  double wall_seconds = 0.0;  ///< real execution time across attempts
  Time simulated_backoff = Time::seconds(0.0);
};

}  // namespace biosens::engine
