#include "transport/diffusion.hpp"

#include <algorithm>
#include <cmath>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/math.hpp"

namespace biosens::transport {

double recommended_domain_length_m(Diffusivity d, Time duration) {
  require<NumericsError>(duration.seconds() > 0.0,
                         "duration must be positive");
  return 6.0 * std::sqrt(d.m2_per_s() * duration.seconds());
}

DiffusionField::DiffusionField(Diffusivity d, DiffusionGrid grid,
                               Concentration bulk)
    : d_(d), grid_(grid), bulk_(bulk) {
  require<SpecError>(d.m2_per_s() > 0.0, "diffusivity must be positive");
  require<SpecError>(grid.nodes >= 3, "grid needs at least 3 nodes");
  require<SpecError>(grid.length_m > 0.0, "domain length must be positive");
  require<SpecError>(bulk.milli_molar() >= 0.0,
                     "bulk concentration must be non-negative");
  dx_ = grid.length_m / static_cast<double>(grid.nodes - 1);
  c_.assign(grid.nodes, bulk.milli_molar());
  const std::size_t n = grid.nodes;
  lower_.assign(n - 1, 0.0);
  diag_.assign(n, 0.0);
  upper_.assign(n - 1, 0.0);
  rhs_.assign(n, 0.0);
  g_.assign(n, 0.0);
}

Concentration DiffusionField::surface_concentration() const {
  return Concentration::milli_molar(c_[0]);
}

double DiffusionField::surface_gradient_flux() const {
  // Second-order one-sided difference for dc/dx at x = 0; inbound flux is
  // +D * dc/dx (material moves toward the depleted electrode plane).
  const double dcdx = (-3.0 * c_[0] + 4.0 * c_[1] - c_[2]) / (2.0 * dx_);
  return d_.m2_per_s() * dcdx;
}

void DiffusionField::ensure_factorization(Boundary boundary, double dt_s,
                                          double sink) {
  if (factorization_.factored() && cached_boundary_ == boundary &&
      cached_dt_s_ == dt_s && cached_sink_ == sink) {
    return;
  }
  const std::size_t n = c_.size();
  const double lambda = d_.m2_per_s() * dt_s / (dx_ * dx_);
  const double half = 0.5 * lambda;

  // Row 0: the electrode boundary.
  switch (boundary) {
    case Boundary::kClamped:
      diag_[0] = 1.0;
      upper_[0] = 0.0;
      break;
    case Boundary::kFlux:
      diag_[0] = 1.0 + lambda;
      upper_[0] = -lambda;
      break;
    case Boundary::kAffine:
      diag_[0] = 1.0 + lambda + sink;
      upper_[0] = -lambda;
      break;
    case Boundary::kNone:
      require<NumericsError>(false, "invalid boundary mode");
      break;
  }

  // Interior rows: Crank-Nicolson.
  for (std::size_t i = 1; i + 1 < n; ++i) {
    lower_[i - 1] = -half;
    diag_[i] = 1.0 + lambda;
    upper_[i] = -half;
  }

  // Row n-1: bulk Dirichlet.
  lower_[n - 2] = 0.0;
  diag_[n - 1] = 1.0;

  factorization_.factor(lower_, diag_, upper_);
  if (boundary == Boundary::kFlux) {
    std::fill(g_.begin(), g_.end(), 0.0);
    g_[0] = 1.0;
    factorization_.solve(g_, g_);
  }
  cached_boundary_ = boundary;
  cached_dt_s_ = dt_s;
  cached_sink_ = sink;
  ++factorizations_;
}

void DiffusionField::prepare_flux_step(Time dt) {
  const double dt_s = dt.seconds();
  ensure_factorization(Boundary::kFlux, dt_s, 0.0);

  const std::size_t n = c_.size();
  const double lambda = d_.m2_per_s() * dt_s / (dx_ * dx_);
  const double half = 0.5 * lambda;

  // Row 0 without its flux term: the step is linear in the flux, which
  // apply_flux_drop subtracts afterwards along g_.
  rhs_[0] = c_[0] * (1.0 - lambda) + lambda * c_[1];
  for (std::size_t i = 1; i + 1 < n; ++i) {
    rhs_[i] = half * c_[i - 1] + (1.0 - lambda) * c_[i] + half * c_[i + 1];
  }
  rhs_[n - 1] = bulk_.milli_molar();
  factorization_.solve(rhs_, c_);
}

BIOSENS_HOT void DiffusionField::apply_flux_drop(double drop) {
  const std::size_t n = c_.size();
  // Clamping also absorbs round-off negatives near a hard sink.
  for (std::size_t i = 0; i < n; ++i) {
    c_[i] = std::max(c_[i] - drop * g_[i], 0.0);
  }
}

BIOSENS_HOT double DiffusionField::step_clamped_surface(Time dt,
                                                        Concentration surface) {
  require<NumericsError>(dt.seconds() > 0.0, "time step must be positive");
  const std::size_t n = c_.size();
  const double dt_s = dt.seconds();
  ensure_factorization(Boundary::kClamped, dt_s, 0.0);
  const double lambda = d_.m2_per_s() * dt_s / (dx_ * dx_);
  const double half = 0.5 * lambda;

  rhs_[0] = surface.milli_molar();
  for (std::size_t i = 1; i + 1 < n; ++i) {
    rhs_[i] = half * c_[i - 1] + (1.0 - lambda) * c_[i] + half * c_[i + 1];
  }
  rhs_[n - 1] = bulk_.milli_molar();

  factorization_.solve(rhs_, c_);
  for (double& v : c_) v = std::max(v, 0.0);
  return surface_gradient_flux();
}

BIOSENS_HOT double DiffusionField::step_affine_surface(
    Time dt, double rate_m_per_s, double production_flux) {
  require<NumericsError>(dt.seconds() > 0.0, "time step must be positive");
  require<NumericsError>(rate_m_per_s >= 0.0,
                         "surface rate must be non-negative");
  const std::size_t n = c_.size();
  const double dt_s = dt.seconds();
  const double lambda = d_.m2_per_s() * dt_s / (dx_ * dx_);
  const double half = 0.5 * lambda;
  const double sink = 2.0 * rate_m_per_s * dt_s / dx_;
  ensure_factorization(Boundary::kAffine, dt_s, sink);

  // Row 0: half-cell balance with the affine flux treated implicitly:
  // c0'(1 + lambda + sink) - lambda c1' =
  //   c0 (1 - lambda) + lambda c1 + 2 dt/dx * production.
  rhs_[0] = c_[0] * (1.0 - lambda) + lambda * c_[1] +
            2.0 * production_flux * dt_s / dx_;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    rhs_[i] = half * c_[i - 1] + (1.0 - lambda) * c_[i] + half * c_[i + 1];
  }
  rhs_[n - 1] = bulk_.milli_molar();

  factorization_.solve(rhs_, c_);
  for (double& v : c_) v = std::max(v, 0.0);
  return rate_m_per_s * c_[0] - production_flux;
}

}  // namespace biosens::transport
