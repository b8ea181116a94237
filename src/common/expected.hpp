// Exception-free fallible results: Expected<T> and the structured
// ErrorInfo it carries.
//
// The library's internal layers (chem -> transport -> electrode ->
// electrochem -> readout -> analysis -> core -> engine) report failure
// as a *value*: an Expected<T> either holds the result or an ErrorInfo
// naming the error class, the originating layer, the stage that failed,
// and a context chain accumulated on the way out (ctx()). Each fallible
// operation has one entry point, its try_* function; a caller that wants
// an exception instead calls value() on the result. See docs/errors.md
// for the taxonomy, the retryability rules, and the layer-boundary
// convention.
//
// This header and common/error.hpp are the only places in src/ allowed
// to contain a throw statement (enforced by ci/check.sh lint).
#pragma once

#include <exception>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace biosens {

/// Error classes, mirroring the exception taxonomy of common/error.hpp
/// one-to-one plus the engine's QC soft-fail (which was never an
/// exception: a rejected measurement is a result, not a crash) and the
/// service's admission rejection (backpressure is a result too: the
/// caller is told to retry later, nothing crashed).
enum class ErrorCode {
  kSpec,        ///< specification violates the compositional rules
  kNumerics,    ///< numerical routine got invalid input / did not converge
  kAnalysis,    ///< step could not produce a meaningful result
  kQcReject,    ///< measurement completed but failed quality control
  kOverloaded,  ///< admission control rejected: queue/tenant saturated
  kInternal,    ///< anything else (foreign exception, logic error)
};

inline constexpr std::size_t kErrorCodeCount = 6;

/// The library layer an error originated in. Shared by the error
/// taxonomy and the observability subsystem (src/obs/): a failed span is
/// annotated with the same layer its ErrorInfo names, so error paths and
/// latency attribution speak one vocabulary.
enum class Layer {
  kCommon,
  kChem,
  kTransport,
  kElectrode,
  kElectrochem,
  kReadout,
  kAnalysis,
  kClassify,
  kCore,
  kEngine,
  kService,
  kFet,  ///< field-effect transduction backend (appended: values are stable)
};

inline constexpr std::size_t kLayerCount = 12;

[[nodiscard]] constexpr std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kSpec: return "spec";
    case ErrorCode::kNumerics: return "numerics";
    case ErrorCode::kAnalysis: return "analysis";
    case ErrorCode::kQcReject: return "qc-reject";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

[[nodiscard]] constexpr std::string_view to_string(Layer layer) {
  switch (layer) {
    case Layer::kCommon: return "common";
    case Layer::kChem: return "chem";
    case Layer::kTransport: return "transport";
    case Layer::kElectrode: return "electrode";
    case Layer::kElectrochem: return "electrochem";
    case Layer::kReadout: return "readout";
    case Layer::kAnalysis: return "analysis";
    case Layer::kClassify: return "classify";
    case Layer::kCore: return "core";
    case Layer::kEngine: return "engine";
    case Layer::kService: return "service";
    case Layer::kFet: return "fet";
  }
  return "unknown";
}

/// A structured failure: what went wrong, where, and on the way through
/// which callers. Cheap to move, printable, and classifiable — the
/// engine's retry policy and failure counters key off it.
struct ErrorInfo {
  ErrorCode code = ErrorCode::kInternal;
  Layer layer = Layer::kCommon;
  /// The operation that failed, e.g. "tail_mean_a" or "assemble cell".
  std::string stage;
  std::string message;
  /// Caller context, innermost first; built by ctx() wrapping.
  std::vector<std::string> context;
  /// Backpressure hint (kOverloaded only): how long the rejected caller
  /// should wait before retrying. 0 = no hint.
  double retry_after_s = 0.0;

  /// A transient failure worth re-measuring: numerical trouble on noisy
  /// data, a QC rejection, or an admission rejection (the queue will
  /// eventually have room). Spec violations and analysis misuse are
  /// deterministic — retrying them burns budget for nothing.
  [[nodiscard]] bool retryable() const {
    return code == ErrorCode::kNumerics || code == ErrorCode::kQcReject ||
           code == ErrorCode::kOverloaded;
  }

  /// One-line rendering: "[layer/stage] code: message (via: a <- b)".
  [[nodiscard]] std::string describe() const {
    std::string out = "[";
    out += to_string(layer);
    out += "/";
    out += stage;
    out += "] ";
    out += to_string(code);
    out += ": ";
    out += message;
    if (!context.empty()) {
      out += " (via: ";
      for (std::size_t i = 0; i < context.size(); ++i) {
        if (i > 0) out += " <- ";
        out += context[i];
      }
      out += ")";
    }
    return out;
  }

  /// Rematerializes the matching exception class — Expected::value() on
  /// an absent value only; internal code never calls this.
  [[noreturn]] void raise() const {
    const std::string what = describe();
    switch (code) {
      case ErrorCode::kSpec: throw SpecError(what);
      case ErrorCode::kNumerics: throw NumericsError(what);
      case ErrorCode::kAnalysis: throw AnalysisError(what);
      case ErrorCode::kQcReject: throw AnalysisError(what);
      case ErrorCode::kOverloaded: throw OverloadedError(what);
      case ErrorCode::kInternal: break;
    }
    throw Error(what);
  }

  /// Classifies a caught exception back into the taxonomy (the adapter
  /// for third-party code that still throws into the engine).
  [[nodiscard]] static ErrorInfo from_exception(const std::exception& e,
                                                Layer layer,
                                                std::string_view stage) {
    ErrorInfo info;
    info.layer = layer;
    info.stage = std::string(stage);
    info.message = e.what();
    if (dynamic_cast<const SpecError*>(&e) != nullptr) {
      info.code = ErrorCode::kSpec;
    } else if (dynamic_cast<const NumericsError*>(&e) != nullptr) {
      info.code = ErrorCode::kNumerics;
    } else if (dynamic_cast<const AnalysisError*>(&e) != nullptr) {
      info.code = ErrorCode::kAnalysis;
    } else if (dynamic_cast<const OverloadedError*>(&e) != nullptr) {
      info.code = ErrorCode::kOverloaded;
    } else {
      info.code = ErrorCode::kInternal;
    }
    return info;
  }
};

/// Builds an ErrorInfo in one expression (the Expected-returning analog
/// of `throw E(message)`).
[[nodiscard]] inline ErrorInfo make_error(ErrorCode code, Layer layer,
                                          std::string_view stage,
                                          std::string message) {
  ErrorInfo info;
  info.code = code;
  info.layer = layer;
  info.stage = std::string(stage);
  info.message = std::move(message);
  return info;
}

/// A value or a structured error. Implicitly constructible from both, so
/// `return result;` and `return make_error(...);` both work, and a job
/// body declared to return Expected<bool> still accepts plain booleans.
template <class T>
class [[nodiscard]] Expected {
 public:
  using value_type = T;

  Expected(T value) : data_(std::in_place_index<0>, std::move(value)) {}
  Expected(ErrorInfo error)
      : data_(std::in_place_index<1>, std::move(error)) {}

  [[nodiscard]] bool has_value() const { return data_.index() == 0; }
  explicit operator bool() const { return has_value(); }

  /// The value; raises the stored error's exception when absent.
  [[nodiscard]] const T& value() const& {
    if (!has_value()) std::get<1>(data_).raise();
    return std::get<0>(data_);
  }
  [[nodiscard]] T& value() & {
    if (!has_value()) std::get<1>(data_).raise();
    return std::get<0>(data_);
  }
  [[nodiscard]] T&& value() && {
    if (!has_value()) std::get<1>(data_).raise();
    return std::get<0>(std::move(data_));
  }

  /// Unchecked access: the caller has already tested has_value(). This
  /// is the accessor BIOSENS_HOT code must use after its error branch —
  /// value() rematerializes the stored error as an exception, which the
  /// hot-path-transitive analyzer bans on hot call paths.
  [[nodiscard]] const T& operator*() const& { return std::get<0>(data_); }
  [[nodiscard]] T& operator*() & { return std::get<0>(data_); }
  [[nodiscard]] T&& operator*() && { return std::get<0>(std::move(data_)); }

  [[nodiscard]] T value_or(T fallback) const& {
    return has_value() ? std::get<0>(data_) : std::move(fallback);
  }

  /// The error; must not be called on a success.
  [[nodiscard]] const ErrorInfo& error() const { return std::get<1>(data_); }
  [[nodiscard]] ErrorInfo& error() { return std::get<1>(data_); }

  /// Applies `f` to the value; passes the error through unchanged.
  template <class F>
  [[nodiscard]] auto map(F&& f) const& -> Expected<decltype(f(
      std::declval<const T&>()))> {
    if (!has_value()) return std::get<1>(data_);
    return std::forward<F>(f)(std::get<0>(data_));
  }

  /// Chains a fallible step: `f` returns an Expected itself.
  template <class F>
  [[nodiscard]] auto and_then(F&& f) const& -> decltype(f(
      std::declval<const T&>())) {
    if (!has_value()) return std::get<1>(data_);
    return std::forward<F>(f)(std::get<0>(data_));
  }

 private:
  std::variant<T, ErrorInfo> data_;
};

/// Fallible operations with no result payload.
template <>
class [[nodiscard]] Expected<void> {
 public:
  using value_type = void;

  Expected() = default;  ///< success
  Expected(ErrorInfo error) : error_(std::move(error)), failed_(true) {}

  [[nodiscard]] bool has_value() const { return !failed_; }
  explicit operator bool() const { return has_value(); }

  void value() const {
    if (failed_) error_.raise();
  }

  [[nodiscard]] const ErrorInfo& error() const { return error_; }
  [[nodiscard]] ErrorInfo& error() { return error_; }

  template <class F>
  [[nodiscard]] auto and_then(F&& f) const -> decltype(f()) {
    if (failed_) return error_;
    return std::forward<F>(f)();
  }

 private:
  ErrorInfo error_{};
  bool failed_ = false;
};

/// Success value for Expected<void> chains.
[[nodiscard]] inline Expected<void> ok() { return Expected<void>{}; }

/// The Expected analog of require<E>(): success when `condition` holds,
/// a structured error otherwise.
[[nodiscard]] inline Expected<void> check(bool condition, ErrorCode code,
                                          Layer layer,
                                          std::string_view stage,
                                          std::string_view message) {
  if (condition) return Expected<void>{};
  return Expected<void>(make_error(code, layer, stage,
                                   std::string(message)));
}

/// Wraps a fallible call with caller context: on failure the stage name
/// is appended to the error's context chain (innermost first), so the
/// surfaced error reads "[chem/kinetics] ... (via: measure GOD <-
/// assay panel)". On success the value passes through untouched.
template <class T>
[[nodiscard]] Expected<T> ctx(std::string_view stage, Expected<T> e) {
  if (!e.has_value()) e.error().context.emplace_back(stage);
  return e;
}

}  // namespace biosens

/// Statement form of check() for try_* bodies: returns a structured
/// error from the enclosing Expected-returning function when
/// `condition` is false (the exception-free analog of require<E>()).
#define BIOSENS_EXPECT(condition, code, layer, stage, message)           \
  do {                                                                   \
    if (!(condition)) {                                                  \
      return ::biosens::make_error((code), (layer), (stage), (message)); \
    }                                                                    \
  } while (false)
