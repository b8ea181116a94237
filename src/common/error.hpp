// Error taxonomy for the biosens library.
//
// Fallible operations report failure as values (Expected<T> carrying an
// ErrorInfo — see common/expected.hpp and docs/errors.md). The exception
// classes below remain for require<E>() preconditions and for
// Expected::value(), which rematerializes the matching class here (via
// ErrorInfo::raise()) when a caller asks for an absent value.
// Recoverable "no result" cases use std::optional.
#pragma once

#include <stdexcept>
#include <string>

namespace biosens {

/// Base class for all biosens errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A sensor/platform specification violates the compositional rules
/// (e.g. pairing an oxidase probe with cyclic voltammetry).
class SpecError : public Error {
 public:
  explicit SpecError(const std::string& what) : Error(what) {}
};

/// A numerical routine received invalid input or failed to converge.
class NumericsError : public Error {
 public:
  explicit NumericsError(const std::string& what) : Error(what) {}
};

/// A measurement/analysis step could not produce a meaningful result
/// (e.g. calibration with fewer than two points).
class AnalysisError : public Error {
 public:
  explicit AnalysisError(const std::string& what) : Error(what) {}
};

/// Admission control rejected the request: a tenant queue or the worker
/// pool is saturated. Transient by definition — retry after the hint
/// carried on the structured ErrorInfo (ErrorCode::kOverloaded).
class OverloadedError : public Error {
 public:
  explicit OverloadedError(const std::string& what) : Error(what) {}
};

/// Throws E with `what` when `condition` is false. Used to validate
/// preconditions at public API boundaries (I.5).
template <class E = Error>
inline void require(bool condition, const std::string& what) {
  if (!condition) throw E(what);
}

}  // namespace biosens
