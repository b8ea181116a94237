#include "transport/diffusion_batch.hpp"

#include <algorithm>
#include <cmath>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/math.hpp"

namespace biosens::transport {

DiffusionFieldBatch::DiffusionFieldBatch(Diffusivity d, DiffusionGrid grid,
                                         std::span<const Concentration> bulks)
    : d_(d), grid_(grid), lanes_(bulks.size()) {
  require<SpecError>(d.m2_per_s() > 0.0, "diffusivity must be positive");
  require<SpecError>(grid.nodes >= 3, "grid needs at least 3 nodes");
  require<SpecError>(grid.length_m > 0.0, "domain length must be positive");
  require<SpecError>(lanes_ >= 1, "batch needs at least one lane");
  dx_ = grid.length_m / static_cast<double>(grid.nodes - 1);
  const std::size_t n = grid.nodes;
  bulk_mm_.resize(lanes_);
  c_.assign(n * lanes_, 0.0);
  for (std::size_t k = 0; k < lanes_; ++k) {
    require<SpecError>(bulks[k].milli_molar() >= 0.0,
                       "bulk concentration must be non-negative");
    bulk_mm_[k] = bulks[k].milli_molar();
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < lanes_; ++k) c_[i * lanes_ + k] = bulk_mm_[k];
  }
  lower_.assign(n - 1, 0.0);
  diag_.assign(n, 0.0);
  upper_.assign(n - 1, 0.0);
  rhs_.assign(n * lanes_, 0.0);
  g_.assign(n, 0.0);
  pre_step_c0_.assign(lanes_, 0.0);
  drop_.assign(lanes_, 0.0);
}

void DiffusionFieldBatch::reset(std::span<const Concentration> bulks) {
  require<SpecError>(bulks.size() == lanes_, "batch reset lane count mismatch");
  for (std::size_t k = 0; k < lanes_; ++k) {
    require<SpecError>(bulks[k].milli_molar() >= 0.0,
                       "bulk concentration must be non-negative");
    bulk_mm_[k] = bulks[k].milli_molar();
  }
  const std::size_t n = grid_.nodes;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < lanes_; ++k) c_[i * lanes_ + k] = bulk_mm_[k];
  }
}

Concentration DiffusionFieldBatch::surface_concentration(
    std::size_t lane) const {
  require<NumericsError>(lane < lanes_, "lane out of range");
  return Concentration::milli_molar(c_[lane]);
}

std::vector<double> DiffusionFieldBatch::profile_milli_molar(
    std::size_t lane) const {
  require<NumericsError>(lane < lanes_, "lane out of range");
  const std::size_t n = grid_.nodes;
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = c_[i * lanes_ + lane];
  return out;
}

Concentration DiffusionFieldBatch::bulk(std::size_t lane) const {
  require<NumericsError>(lane < lanes_, "lane out of range");
  return Concentration::milli_molar(bulk_mm_[lane]);
}

double DiffusionFieldBatch::surface_gradient_flux(std::size_t lane) const {
  // Identical second-order one-sided difference to the serial field,
  // read from the interleaved layout.
  const double dcdx = (-3.0 * c_[lane] + 4.0 * c_[lanes_ + lane] -
                       c_[2 * lanes_ + lane]) /
                      (2.0 * dx_);
  return d_.m2_per_s() * dcdx;
}

void DiffusionFieldBatch::ensure_factorization(Boundary boundary, double dt_s,
                                               double sink) {
  if (factorization_.factored() && cached_boundary_ == boundary &&
      cached_dt_s_ == dt_s && cached_sink_ == sink) {
    return;
  }
  const std::size_t n = grid_.nodes;
  const double lambda = d_.m2_per_s() * dt_s / (dx_ * dx_);
  const double half = 0.5 * lambda;

  // Row 0: the electrode boundary (shared by every lane).
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
  ++factorizations_;  // ONE for the whole batch; serial pays K of these
}

void DiffusionFieldBatch::assemble_interior_rhs(double lambda) {
  const std::size_t n = grid_.nodes;
  const double half = 0.5 * lambda;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double* cm = c_.data() + (i - 1) * lanes_;
    const double* ci = c_.data() + i * lanes_;
    const double* cp = c_.data() + (i + 1) * lanes_;
    double* ri = rhs_.data() + i * lanes_;
    for (std::size_t k = 0; k < lanes_; ++k) {
      // Same expression shape as the serial stepper — bit-identity.
      ri[k] = half * cm[k] + (1.0 - lambda) * ci[k] + half * cp[k];
    }
  }
  double* rl = rhs_.data() + (n - 1) * lanes_;
  for (std::size_t k = 0; k < lanes_; ++k) rl[k] = bulk_mm_[k];
}

void DiffusionFieldBatch::prepare_flux_step(Time dt) {
  const double dt_s = dt.seconds();
  ensure_factorization(Boundary::kFlux, dt_s, 0.0);

  const double lambda = d_.m2_per_s() * dt_s / (dx_ * dx_);
  for (std::size_t k = 0; k < lanes_; ++k) {
    rhs_[k] = c_[k] * (1.0 - lambda) + lambda * c_[lanes_ + k];
  }
  assemble_interior_rhs(lambda);
  factorization_.solve_many(rhs_, c_, lanes_);
}

BIOSENS_HOT void DiffusionFieldBatch::apply_flux_drops() {
  const std::size_t n = grid_.nodes;
  for (std::size_t i = 0; i < n; ++i) {
    double* ci = c_.data() + i * lanes_;
    for (std::size_t k = 0; k < lanes_; ++k) {
      // The serial field's expression, lane by lane — bit-identity.
      ci[k] = std::max(ci[k] - drop_[k] * g_[i], 0.0);
    }
  }
}

BIOSENS_HOT void DiffusionFieldBatch::step_clamped_surface(
    Time dt, Concentration surface, std::span<double> flux_out) {
  require<NumericsError>(dt.seconds() > 0.0, "time step must be positive");
  require<NumericsError>(flux_out.size() == lanes_, "flux_out size mismatch");
  const double dt_s = dt.seconds();
  ensure_factorization(Boundary::kClamped, dt_s, 0.0);
  const double lambda = d_.m2_per_s() * dt_s / (dx_ * dx_);

  for (std::size_t k = 0; k < lanes_; ++k) rhs_[k] = surface.milli_molar();
  assemble_interior_rhs(lambda);

  factorization_.solve_many(rhs_, c_, lanes_);
  for (double& v : c_) v = std::max(v, 0.0);
  for (std::size_t k = 0; k < lanes_; ++k) {
    flux_out[k] = surface_gradient_flux(k);
  }
}

BIOSENS_HOT void DiffusionFieldBatch::step_affine_surface(
    Time dt, double rate_m_per_s, std::span<const double> production_flux,
    std::span<double> flux_out) {
  require<NumericsError>(dt.seconds() > 0.0, "time step must be positive");
  require<NumericsError>(rate_m_per_s >= 0.0,
                         "surface rate must be non-negative");
  require<NumericsError>(production_flux.size() == lanes_,
                         "production_flux size mismatch");
  require<NumericsError>(flux_out.size() == lanes_, "flux_out size mismatch");
  const double dt_s = dt.seconds();
  const double lambda = d_.m2_per_s() * dt_s / (dx_ * dx_);
  const double sink = 2.0 * rate_m_per_s * dt_s / dx_;
  ensure_factorization(Boundary::kAffine, dt_s, sink);

  // Row 0 per lane: half-cell balance with the affine flux implicit,
  // exactly as in DiffusionField::step_affine_surface.
  for (std::size_t k = 0; k < lanes_; ++k) {
    rhs_[k] = c_[k] * (1.0 - lambda) + lambda * c_[lanes_ + k] +
              2.0 * production_flux[k] * dt_s / dx_;
  }
  assemble_interior_rhs(lambda);

  factorization_.solve_many(rhs_, c_, lanes_);
  for (double& v : c_) v = std::max(v, 0.0);
  for (std::size_t k = 0; k < lanes_; ++k) {
    flux_out[k] = rate_m_per_s * c_[k] - production_flux[k];
  }
}

}  // namespace biosens::transport
