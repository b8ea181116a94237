// Batched structure-of-arrays diffusion solver: K same-topology fields
// stepped in lockstep.
//
// A cohort workload presents the same sensor physics over and over:
// every patient's chronoamperometric run solves the same Crank-Nicolson
// matrix — only the concentration state differs. DiffusionFieldBatch
// holds K fields whose (D, grid, dt, boundary mode) agree as one
// interleaved SoA block (node-major: node i of lane k at `i*K + k`),
// factors the shared matrix ONCE, and advances every lane per step
// through TridiagonalFactorization::solve_many — cache-blocked stripes,
// SIMD-friendly inner loops (docs/performance.md, "Cohort batching").
//
// Identity contract: each lane's profile and flux history is
// bit-identical to an independent DiffusionField stepped through the
// same schedule. The per-lane arithmetic is the exact serial sequence: a
// reactive step solves every lane once at zero surface flux
// (solve_many, per lane bit-identical to solve), then runs each lane's
// scalar iteration through the serial stepper's own solve_surface_flux
// against one shared g = A^-1 e0, and writes each lane's profile from
// its own last applied flux. No lane waits on another.
// tests/test_diffusion_batch.cpp pins this for K in {1,3,8,17} across
// mixed boundary schedules.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "common/units.hpp"
#include "transport/diffusion.hpp"

namespace biosens::transport {

/// K evolving 1-D concentration fields of one species, lockstepped.
class DiffusionFieldBatch {
 public:
  /// Initializes `bulks.size()` lanes, each uniform at its own bulk
  /// concentration. All lanes share (D, grid) — the lockstep
  /// compatibility contract.
  DiffusionFieldBatch(Diffusivity d, DiffusionGrid grid,
                      std::span<const Concentration> bulks);

  [[nodiscard]] std::size_t lanes() const { return lanes_; }

  /// Lockstep counterpart of DiffusionField::step_clamped_surface: one
  /// step with every lane's surface clamped to `surface`. Writes each
  /// lane's inbound molar flux [mol m^-2 s^-1] into `flux_out`
  /// (size lanes()).
  void step_clamped_surface(Time dt, Concentration surface,
                            std::span<double> flux_out);

  /// Lockstep counterpart of DiffusionField::step_reactive_surface.
  /// `flux_of_surface(lane, c0_mm)` maps a lane's surface concentration
  /// to its consumed molar flux; it is evaluated once per lane per
  /// fixed-point iteration, inlined. Per-lane fluxes land in `flux_out`
  /// (size lanes()). One batched solve per step; each lane then runs
  /// solve_surface_flux, the serial stepper's own iteration.
  template <typename FluxFn>
  BIOSENS_HOT void step_reactive_surface(Time dt, FluxFn&& flux_of_surface,
                                         std::span<double> flux_out) {
    require<NumericsError>(dt.seconds() > 0.0, "time step must be positive");
    require<NumericsError>(flux_out.size() == lanes_,
                           "flux_out size mismatch");
    for (std::size_t k = 0; k < lanes_; ++k) pre_step_c0_[k] = c_[k];
    prepare_flux_step(dt);

    const double drop_per_flux = 2.0 * dt.seconds() / dx_;
    for (std::size_t k = 0; k < lanes_; ++k) {
      const SurfaceFluxSolve step = solve_surface_flux(
          [&](double c0) { return flux_of_surface(k, c0); }, pre_step_c0_[k],
          c_[k], g_[0], drop_per_flux);
      flux_out[k] = step.flux;
      drop_[k] = step.drop;
    }
    apply_flux_drops();
  }

  /// Lockstep counterpart of DiffusionField::step_affine_surface:
  /// J_k = rate * c0_k - production_k, with the (shared) rate folded
  /// implicitly into the matrix and the per-lane production term on the
  /// right-hand side. Writes each lane's consumption flux to
  /// `flux_out` (both spans size lanes()).
  void step_affine_surface(Time dt, double rate_m_per_s,
                           std::span<const double> production_flux,
                           std::span<double> flux_out);

  /// Surface (x = 0) concentration of one lane.
  [[nodiscard]] Concentration surface_concentration(std::size_t lane) const;

  /// Copy of one lane's full profile, node 0 = electrode, in mM (the
  /// SoA block stores lanes interleaved; extraction is a cold path).
  [[nodiscard]] std::vector<double> profile_milli_molar(
      std::size_t lane) const;

  /// Resets every lane to a (possibly new) uniform bulk concentration.
  void reset(std::span<const Concentration> bulks);

  [[nodiscard]] const DiffusionGrid& grid() const { return grid_; }
  [[nodiscard]] Concentration bulk(std::size_t lane) const;
  [[nodiscard]] double node_spacing_m() const { return dx_; }

  /// Shared-matrix factorizations performed so far: one per
  /// (dt, boundary mode, sink) change for the WHOLE batch — the serial
  /// path pays K of them for the same schedule. Mirrored into engine
  /// metrics by the cohort prefill (engine/cohort.hpp).
  [[nodiscard]] std::uint64_t factorizations() const {
    return factorizations_;
  }

 private:
  enum class Boundary { kNone, kClamped, kFlux, kAffine };

  /// Shared-matrix twin of DiffusionField::ensure_factorization.
  void ensure_factorization(Boundary boundary, double dt_s, double sink);

  /// Ensures the kFlux factorization and solves every lane at zero
  /// surface flux: c_ then holds each lane's u.
  void prepare_flux_step(Time dt);

  /// Writes each lane's post-step profile max(u - drop_[k] * g, 0) over
  /// the u that prepare_flux_step left in c_.
  BIOSENS_HOT void apply_flux_drops();

  /// Interior + bulk right-hand-side rows from the current profiles
  /// (shared by the clamped and affine steps).
  void assemble_interior_rhs(double lambda);

  [[nodiscard]] double surface_gradient_flux(std::size_t lane) const;

  Diffusivity d_;
  DiffusionGrid grid_;
  std::size_t lanes_ = 0;
  double dx_ = 0.0;
  std::vector<double> bulk_mm_;  ///< per-lane bulk concentration [mM]
  std::vector<double> c_;        ///< SoA profiles, node-major interleaved
  // Scratch reused across steps — no hot-path allocation.
  std::vector<double> lower_, diag_, upper_;
  std::vector<double> rhs_;          ///< SoA right-hand side block
  std::vector<double> g_;            ///< shared kFlux response A^-1 e0
  std::vector<double> pre_step_c0_;  ///< pre-step surface concentrations
  std::vector<double> drop_;         ///< per-lane (2 dt/dx) * applied flux
  TridiagonalFactorization factorization_;
  Boundary cached_boundary_ = Boundary::kNone;
  double cached_dt_s_ = -1.0;
  double cached_sink_ = 0.0;
  std::uint64_t factorizations_ = 0;
};

}  // namespace biosens::transport
