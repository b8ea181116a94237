// Small numerical kernels shared by the simulators and the analysis layer.
//
// Everything here is deliberately dependency-free: a tridiagonal solver
// for the Crank-Nicolson diffusion step, grid/integration helpers, and
// monotone 1-D interpolation.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"

namespace biosens {

/// Reusable Thomas-algorithm factorization of a tridiagonal matrix.
///
/// The forward elimination (the pivots and normalized super-diagonal)
/// depends only on the matrix, not on the right-hand side, so a solver
/// that steps the same Crank-Nicolson matrix thousands of times can
/// factor once and then run solve() — one division, one multiply-add
/// forward and one multiply-add backward per node, with zero heap
/// allocation. solve() reproduces solve_tridiagonal() bit-for-bit: the
/// arithmetic (including the per-node division by the stored pivot) is
/// the textbook sequence, merely split at the matrix/rhs boundary.
class TridiagonalFactorization {
 public:
  /// Factors A (lower: n-1, diag: n, upper: n-1 entries). Throws
  /// NumericsError on size mismatch or a numerically singular pivot.
  void factor(std::span<const double> lower, std::span<const double> diag,
              std::span<const double> upper) {
    const std::size_t n = diag.size();
    require<NumericsError>(n >= 1, "tridiagonal system must be non-empty");
    require<NumericsError>(lower.size() == n - 1 && upper.size() == n - 1,
                           "tridiagonal system size mismatch");
    lower_.assign(lower.begin(), lower.end());
    c_prime_.assign(n, 0.0);
    pivot_.assign(n, 0.0);

    double pivot = diag[0];
    require<NumericsError>(std::abs(pivot) > 1e-300,
                           "singular tridiagonal pivot");
    pivot_[0] = pivot;
    c_prime_[0] = (n > 1) ? upper[0] / pivot : 0.0;
    for (std::size_t i = 1; i < n; ++i) {
      pivot = diag[i] - lower[i - 1] * c_prime_[i - 1];
      require<NumericsError>(std::abs(pivot) > 1e-300,
                             "singular tridiagonal pivot");
      pivot_[i] = pivot;
      if (i < n - 1) c_prime_[i] = upper[i] / pivot;
    }
  }

  /// Solves A*x = rhs with the stored factorization. `x` must have the
  /// factored size; `x` and `rhs` may alias. Requires factor() first.
  BIOSENS_HOT void solve(std::span<const double> rhs,
                         std::span<double> x) const {
    const std::size_t n = pivot_.size();
    require<NumericsError>(n >= 1, "solve() before factor()");
    require<NumericsError>(rhs.size() == n && x.size() == n,
                           "tridiagonal rhs size mismatch");
    x[0] = rhs[0] / pivot_[0];
    for (std::size_t i = 1; i < n; ++i) {
      x[i] = (rhs[i] - lower_[i - 1] * x[i - 1]) / pivot_[i];
    }
    for (std::size_t i = n - 1; i-- > 0;) {
      x[i] -= c_prime_[i] * x[i + 1];
    }
  }

  [[nodiscard]] bool factored() const { return !pivot_.empty(); }

 private:
  std::vector<double> lower_;    ///< copied sub-diagonal (rhs pass needs it)
  std::vector<double> c_prime_;  ///< normalized super-diagonal
  std::vector<double> pivot_;    ///< eliminated diagonal pivots
};

/// Solves a tridiagonal linear system A*x = d with the Thomas algorithm.
///
/// `lower` has n-1 entries (sub-diagonal), `diag` has n entries, `upper`
/// has n-1 entries (super-diagonal), `rhs` has n entries. Returns x.
/// Throws NumericsError on size mismatch or a (numerically) singular pivot.
/// O(n) time, O(n) scratch. One-shot convenience over
/// TridiagonalFactorization — repeated solves of one matrix should factor
/// once and reuse it.
[[nodiscard]] std::vector<double> solve_tridiagonal(
    std::span<const double> lower, std::span<const double> diag,
    std::span<const double> upper, std::span<const double> rhs);

/// `n` evenly spaced values from `lo` to `hi` inclusive. Requires n >= 2.
[[nodiscard]] std::vector<double> linspace(double lo, double hi,
                                           std::size_t n);

/// Trapezoidal integral of samples `y` over matching abscissae `x`.
[[nodiscard]] double trapezoid(std::span<const double> x,
                               std::span<const double> y);

/// Linear interpolation of (xs, ys) at query point `x`. `xs` must be
/// strictly increasing; queries outside the range clamp to the endpoints.
[[nodiscard]] double interp1(std::span<const double> xs,
                             std::span<const double> ys, double x);

/// Finds a root of `f` in [lo, hi] by bisection. Requires a sign change;
/// refines until the bracket is below `tol` or `max_iter` halvings.
/// Templated on the callable so the per-iteration evaluation inlines —
/// no std::function indirection or heap allocation on solver hot paths.
template <typename F>
[[nodiscard]] BIOSENS_HOT double bisect(F&& f, double lo, double hi,
                                        double tol = 1e-12,
                                        int max_iter = 200) {
  require<NumericsError>(lo < hi, "bisect: invalid bracket");
  double flo = f(lo);
  const double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  require<NumericsError>(flo * fhi < 0.0,
                         "bisect: no sign change over bracket");
  for (int i = 0; i < max_iter && (hi - lo) > tol; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (fmid == 0.0) return mid;
    if (flo * fmid < 0.0) {
      hi = mid;
    } else {
      lo = mid;
      flo = fmid;
    }
  }
  return 0.5 * (lo + hi);
}

/// True when |a - b| <= atol + rtol*max(|a|,|b|).
[[nodiscard]] bool approx_equal(double a, double b, double rtol = 1e-9,
                                double atol = 0.0);

/// Solves the small dense system A*x = b by Gaussian elimination with
/// partial pivoting (A given row-major, n x n). Throws NumericsError on
/// size mismatch or a singular matrix. Intended for the few-by-few
/// systems of panel deconvolution.
[[nodiscard]] std::vector<double> solve_dense(
    std::vector<std::vector<double>> a, std::vector<double> b);

}  // namespace biosens
