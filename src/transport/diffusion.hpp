// One-dimensional finite-difference diffusion solver.
//
// Models analyte transport from the bulk solution to the electrode plane
// (x = 0) in a semi-infinite cell. The spatial discretization is a uniform
// grid; time stepping is Crank-Nicolson (unconditionally stable, second
// order) with the nonlinear surface-reaction flux resolved by fixed-point
// iteration within each step.
//
// Hot-path design: the Crank-Nicolson matrix depends only on (D, dt, dx)
// and the boundary mode, none of which change between steps of one run,
// so its Thomas-algorithm forward elimination is factored once and reused
// (invalidated automatically when dt, the boundary mode, or an affine
// sink rate changes). A reactive step is linear in the applied surface
// flux J: its post-step profile is u - (2 dt/dx) J g, with u the solve
// at J = 0 (one per step) and g = A^-1 e0 (one per factorization), so
// the fixed-point iteration runs on the surface value alone
// (solve_surface_flux). The surface-flux callable is a template
// parameter, so that loop inlines the Michaelis-Menten evaluation. No
// step allocates.
//
// Boundary conditions:
//  - x = 0 (electrode): either a concentration clamp (diffusion-limited
//    electrolysis; used to validate against the Cottrell equation) or a
//    reactive sink whose molar flux depends on the surface concentration
//    (the immobilized-enzyme layer).
//  - x = L (bulk): Dirichlet at the bulk concentration. Choose L large
//    enough that the depletion layer never reaches it
//    (recommended_domain_length).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "common/units.hpp"

namespace biosens::transport {

/// Spatial discretization of the diffusion domain.
struct DiffusionGrid {
  double length_m = 500e-6;  ///< domain depth; must exceed the depletion layer
  std::size_t nodes = 200;   ///< >= 3 grid nodes including both boundaries
};

/// Domain depth that safely contains the depletion layer after `duration`:
/// 6 * sqrt(D * t).
[[nodiscard]] double recommended_domain_length_m(Diffusivity d,
                                                 Time duration);

/// Outcome of one reactive step's surface-flux iteration.
struct SurfaceFluxSolve {
  double flux;  ///< the step's consumption flux [mol m^-2 s^-1]
  double drop;  ///< (2 dt/dx) * last applied flux: profile = u - drop * g
};

/// The reactive step's fixed-point iteration on the scalar surface value
/// c0(J) = max(u0 - (k*J)*g0, 0), k = 2 dt/dx, starting from the flux at
/// the pre-step surface concentration. Damping 0.5, relative tolerance
/// 1e-8, at most 12 iterations. On convergence it returns the updated
/// flux; at the cap, the damped one. `drop` is always k times the last
/// *applied* flux, the product the final c0 was read at. Shared by
/// DiffusionField and DiffusionFieldBatch, so each batch lane runs the
/// exact serial arithmetic.
template <typename FluxFn>
BIOSENS_HOT SurfaceFluxSolve solve_surface_flux(FluxFn&& flux_of_surface,
                                                double pre_step_c0, double u0,
                                                double g0, double k) {
  constexpr int kMaxIterations = 12;
  constexpr double kRelTol = 1e-8;

  double flux = flux_of_surface(pre_step_c0);
  double drop = 0.0;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    drop = k * flux;
    const double updated = flux_of_surface(std::max(u0 - drop * g0, 0.0));
    const double scale = std::max({std::abs(flux), std::abs(updated), 1e-30});
    if (std::abs(updated - flux) <= kRelTol * scale) {
      return {updated, drop};
    }
    // Damped update keeps the iteration contractive even when the
    // Michaelis-Menten flux is steep near full depletion.
    flux = 0.5 * (flux + updated);
  }
  return {flux, drop};
}

/// Evolving 1-D concentration field of a single species.
class DiffusionField {
 public:
  /// Initializes a uniform field at the bulk concentration.
  DiffusionField(Diffusivity d, DiffusionGrid grid, Concentration bulk);

  /// Advances one step with the surface concentration clamped to
  /// `surface` (e.g. zero for diffusion-limited electrolysis). Returns the
  /// inbound molar flux at the electrode [mol m^-2 s^-1], evaluated from
  /// the post-step profile with a second-order one-sided difference.
  double step_clamped_surface(Time dt, Concentration surface);

  /// Advances one step with a reactive surface sink. `flux_of_surface`
  /// maps the surface concentration [mM == mol/m^3] to the consumed molar
  /// flux [mol m^-2 s^-1] (typically Gamma * k_cat * c/(K_M + c)).
  /// Returns the consumption flux solve_surface_flux settles on; the
  /// profile is the one at the last applied flux. One linear solve per
  /// step, and the callable is evaluated once per iteration, inlined.
  template <typename FluxFn>
  BIOSENS_HOT double step_reactive_surface(Time dt, FluxFn&& flux_of_surface) {
    require<NumericsError>(dt.seconds() > 0.0, "time step must be positive");
    const double pre_step_c0 = c_[0];
    prepare_flux_step(dt);
    const SurfaceFluxSolve step = solve_surface_flux(
        flux_of_surface, pre_step_c0, c_[0], g_[0], 2.0 * dt.seconds() / dx_);
    apply_flux_drop(step.drop);
    return step.flux;
  }

  /// Advances one step with an *affine* surface sink
  /// J = rate_m_per_s * c0 - production (heterogeneous first-order
  /// consumption plus a fixed production term). The affine flux is
  /// folded implicitly into the linear system, so arbitrarily stiff
  /// rate constants remain stable — used for the H2O2 intermediate
  /// consumed at the electrode. Returns the consumption flux.
  double step_affine_surface(Time dt, double rate_m_per_s,
                             double production_flux);

  /// Surface (x = 0) concentration.
  [[nodiscard]] Concentration surface_concentration() const;

  /// Full profile, node 0 = electrode, in mM.
  [[nodiscard]] std::span<const double> profile_milli_molar() const {
    return c_;
  }

  [[nodiscard]] const DiffusionGrid& grid() const { return grid_; }
  [[nodiscard]] Concentration bulk() const { return bulk_; }
  [[nodiscard]] double node_spacing_m() const { return dx_; }

  /// Matrix factorizations performed so far — observability for the
  /// factorization cache (one per (dt, boundary mode, sink) change, not
  /// one per step).
  [[nodiscard]] std::uint64_t factorizations() const {
    return factorizations_;
  }

 private:
  /// The electrode-boundary treatments, each with its own matrix row 0.
  enum class Boundary { kNone, kClamped, kFlux, kAffine };

  /// Ensures the cached factorization matches (boundary, dt, sink);
  /// reassembles and refactors only when the key changed. A kFlux
  /// refactor also recomputes g_.
  void ensure_factorization(Boundary boundary, double dt_s, double sink);

  /// Ensures the kFlux factorization and solves the step at zero surface
  /// flux: c_ then holds u, the post-step profile before the surface
  /// flux is applied.
  void prepare_flux_step(Time dt);

  /// Writes the post-step profile max(u - drop * g, 0) over the u that
  /// prepare_flux_step left in c_.
  void apply_flux_drop(double drop);

  /// Second-order one-sided estimate of -D * dc/dx at x = 0 (mol/m^2/s,
  /// positive when material flows into the electrode plane).
  [[nodiscard]] double surface_gradient_flux() const;

  Diffusivity d_;
  DiffusionGrid grid_;
  Concentration bulk_;
  double dx_ = 0.0;
  std::vector<double> c_;  ///< concentration profile in mM
  // Scratch buffers reused across steps to avoid reallocation.
  std::vector<double> lower_, diag_, upper_, rhs_;
  // Cached forward elimination of the Crank-Nicolson matrix, keyed on
  // the boundary mode, dt and (affine only) the sink rate. D and dx are
  // fixed per field, so steps with an unchanged key skip both matrix
  // assembly and elimination.
  TridiagonalFactorization factorization_;
  Boundary cached_boundary_ = Boundary::kNone;
  double cached_dt_s_ = -1.0;
  double cached_sink_ = 0.0;
  std::uint64_t factorizations_ = 0;
  // Response of the kFlux matrix to a unit surface source, A^-1 e0: an
  // applied flux lowers the post-step profile by drop * g_.
  std::vector<double> g_;
};

}  // namespace biosens::transport
