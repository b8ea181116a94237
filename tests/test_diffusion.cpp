// Crank-Nicolson diffusion solver validated against analytic transport.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "transport/analytic.hpp"
#include "transport/diffusion.hpp"

namespace biosens::transport {
namespace {

constexpr double kD = 1e-9;  // m^2/s, small-molecule scale

TEST(Diffusion, CottrellAgreement) {
  // Diffusion-limited electrolysis: simulated flux vs Cottrell equation.
  const Diffusivity d = Diffusivity::m2_per_s(kD);
  const Concentration bulk = Concentration::milli_molar(1.0);
  DiffusionGrid grid;
  grid.length_m = recommended_domain_length_m(d, Time::seconds(10.0));
  grid.nodes = 400;
  DiffusionField field(d, grid, bulk);

  const Time dt = Time::milliseconds(5.0);
  double t = 0.0;
  for (int k = 0; k < 2000; ++k) {
    const double flux = field.step_clamped_surface(dt, Concentration{});
    t += dt.seconds();
    if (t > 1.0) {
      const double analytic =
          try_cottrell_current_density(1, d, bulk, Time::seconds(t)).value()
              .amps_per_m2() /
          96485.33212;  // back to molar flux
      EXPECT_NEAR(flux, analytic, 0.03 * analytic)
          << "at t = " << t << " s";
    }
  }
}

TEST(Diffusion, SteadyStateAcrossNernstLayer) {
  // Clamped surface with a short domain = the stirred-cell limit;
  // the steady flux must be D * c_bulk / delta.
  const Diffusivity d = Diffusivity::m2_per_s(kD);
  const Concentration bulk = Concentration::milli_molar(2.0);
  const double delta = 25e-6;
  DiffusionGrid grid{delta, 100};
  DiffusionField field(d, grid, bulk);

  double flux = 0.0;
  for (int k = 0; k < 4000; ++k) {
    flux = field.step_clamped_surface(Time::milliseconds(5.0),
                                      Concentration{});
  }
  const double expected = kD * 2.0 / delta;
  EXPECT_NEAR(flux, expected, 0.01 * expected);
}

TEST(Diffusion, ReactiveSurfaceMatchesAnalyticBalance) {
  // Michaelis-Menten surface sink in a stirred cell: the steady state
  // solves D (cb - c0)/delta = A c0 / (K + c0).
  const Diffusivity d = Diffusivity::m2_per_s(kD);
  const Concentration bulk = Concentration::milli_molar(1.0);
  const double delta = 25e-6;
  const double a_flux = 5e-6;   // mol m^-2 s^-1 max
  const double km = 2.0;        // mM

  DiffusionGrid grid{delta, 100};
  DiffusionField field(d, grid, bulk);
  const auto sink = [&](double c0) { return a_flux * c0 / (km + c0); };

  double flux = 0.0;
  for (int k = 0; k < 4000; ++k) {
    flux = field.step_reactive_surface(Time::milliseconds(5.0), sink);
  }

  // Analytic balance via direct solve of the quadratic.
  // D/delta (cb - c0) = A c0/(K+c0)
  const double m = kD / delta;
  // m cb K + m cb c0 - m K c0 - m c0^2 = A c0
  // m c0^2 + (A + mK - m cb) c0 - m cb K = 0
  const double b = a_flux + m * km - m * 1.0;
  const double c0 =
      (-b + std::sqrt(b * b + 4.0 * m * m * 1.0 * km)) / (2.0 * m);
  const double expected = a_flux * c0 / (km + c0);
  EXPECT_NEAR(flux, expected, 0.01 * expected);
}

TEST(Diffusion, ZeroBulkGivesZeroFlux) {
  DiffusionField field(Diffusivity::m2_per_s(kD), DiffusionGrid{25e-6, 50},
                       Concentration{});
  const auto sink = [](double c0) { return 1e-6 * c0 / (1.0 + c0); };
  for (int k = 0; k < 100; ++k) {
    EXPECT_NEAR(field.step_reactive_surface(Time::milliseconds(5.0), sink),
                0.0, 1e-15);
  }
  EXPECT_DOUBLE_EQ(field.surface_concentration().milli_molar(), 0.0);
}

TEST(Diffusion, ProfileStaysWithinPhysicalBounds) {
  const Concentration bulk = Concentration::milli_molar(3.0);
  DiffusionField field(Diffusivity::m2_per_s(kD), DiffusionGrid{25e-6, 80},
                       bulk);
  const auto sink = [](double c0) { return 1e-5 * c0 / (0.5 + c0); };
  for (int k = 0; k < 500; ++k) {
    field.step_reactive_surface(Time::milliseconds(10.0), sink);
    for (double c : field.profile_milli_molar()) {
      ASSERT_GE(c, 0.0);
      ASSERT_LE(c, 3.0 + 1e-9);
    }
  }
  // Surface is depleted relative to bulk, profile is monotone outward.
  const auto profile = field.profile_milli_molar();
  EXPECT_LT(profile.front(), profile.back());
}

TEST(Diffusion, LinearReactiveSinkMatchesAffineStep) {
  // A first-order sink J = kappa * c0 is the affine step with rate kappa
  // and no production, which folds the sink into the matrix. The
  // reactive step must solve the same system, including after the dt
  // switch refactors the matrix halfway.
  for (const double kappa : {4e-6, 4e-5, 4e-4}) {
    const DiffusionGrid grid{25e-6, 80};
    const Concentration bulk = Concentration::milli_molar(1.0);
    DiffusionField reactive(Diffusivity::m2_per_s(kD), grid, bulk);
    DiffusionField affine(Diffusivity::m2_per_s(kD), grid, bulk);
    const auto sink = [kappa](double c) { return kappa * c; };
    for (int k = 0; k < 2000; ++k) {
      const Time dt = Time::milliseconds(k < 1000 ? 5.0 : 10.0);
      const double flux = reactive.step_reactive_surface(dt, sink);
      const double reference = affine.step_affine_surface(dt, kappa, 0.0);
      ASSERT_NEAR(flux, reference, 1e-4 * std::abs(reference))
          << "kappa " << kappa << " step " << k;
      const auto profile = reactive.profile_milli_molar();
      const auto expected = affine.profile_milli_molar();
      for (std::size_t i = 0; i < profile.size(); ++i) {
        ASSERT_NEAR(profile[i], expected[i], 1e-5)
            << "kappa " << kappa << " step " << k << " node " << i;
      }
    }
  }
}

TEST(Diffusion, RecommendedDomainContainsDepletionLayer) {
  const Diffusivity d = Diffusivity::m2_per_s(kD);
  const double len = recommended_domain_length_m(d, Time::seconds(30.0));
  EXPECT_NEAR(len, 6.0 * std::sqrt(kD * 30.0), 1e-12);
}

TEST(Diffusion, RejectsInvalidConstruction) {
  EXPECT_THROW(DiffusionField(Diffusivity::m2_per_s(0.0),
                              DiffusionGrid{25e-6, 50},
                              Concentration::milli_molar(1.0)),
               SpecError);
  EXPECT_THROW(DiffusionField(Diffusivity::m2_per_s(kD),
                              DiffusionGrid{25e-6, 2},
                              Concentration::milli_molar(1.0)),
               SpecError);
  EXPECT_THROW(DiffusionField(Diffusivity::m2_per_s(kD),
                              DiffusionGrid{0.0, 50},
                              Concentration::milli_molar(1.0)),
               SpecError);
}

// Property: grid refinement converges (steady flux changes < 1% when the
// grid doubles).
class DiffusionConvergence : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(DiffusionConvergence, SteadyFluxGridIndependent) {
  const std::size_t nodes = GetParam();
  const auto steady = [&](std::size_t n) {
    DiffusionField field(Diffusivity::m2_per_s(kD),
                         DiffusionGrid{25e-6, n},
                         Concentration::milli_molar(1.0));
    const auto sink = [](double c0) { return 3e-6 * c0 / (1.5 + c0); };
    double flux = 0.0;
    for (int k = 0; k < 2000; ++k) {
      flux = field.step_reactive_surface(Time::milliseconds(5.0), sink);
    }
    return flux;
  };
  const double coarse = steady(nodes);
  const double fine = steady(nodes * 2);
  EXPECT_NEAR(coarse, fine, 0.01 * std::abs(fine));
}

INSTANTIATE_TEST_SUITE_P(Grids, DiffusionConvergence,
                         ::testing::Values(40, 80, 160));

}  // namespace
}  // namespace biosens::transport
