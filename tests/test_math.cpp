// Numerical kernels: tridiagonal solve, grids, integration,
// interpolation, root finding.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"

namespace biosens {
namespace {

TEST(Tridiagonal, SolvesKnownSystem) {
  // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3].
  const std::vector<double> lower = {1.0, 1.0};
  const std::vector<double> diag = {2.0, 2.0, 2.0};
  const std::vector<double> upper = {1.0, 1.0};
  const std::vector<double> rhs = {4.0, 8.0, 8.0};
  const auto x = solve_tridiagonal(lower, diag, upper, rhs);
  ASSERT_EQ(x.size(), 3u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Tridiagonal, SingleElement) {
  const auto x = solve_tridiagonal({}, std::vector<double>{4.0}, {},
                                   std::vector<double>{8.0});
  ASSERT_EQ(x.size(), 1u);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(Tridiagonal, RejectsSizeMismatch) {
  EXPECT_THROW(solve_tridiagonal(std::vector<double>{1.0},
                                 std::vector<double>{1.0, 1.0},
                                 std::vector<double>{1.0, 1.0},
                                 std::vector<double>{1.0, 1.0}),
               NumericsError);
}

TEST(Tridiagonal, RejectsSingular) {
  EXPECT_THROW(solve_tridiagonal({}, std::vector<double>{0.0}, {},
                                 std::vector<double>{1.0}),
               NumericsError);
}

// Property: residual of random diagonally dominant systems is ~0.
class TridiagonalProperty : public ::testing::TestWithParam<int> {};

TEST_P(TridiagonalProperty, ResidualVanishes) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 977u);
  std::vector<double> lower(n - 1), diag(n), upper(n - 1), rhs(n);
  for (int i = 0; i < n - 1; ++i) {
    lower[i] = rng.uniform(-1.0, 1.0);
    upper[i] = rng.uniform(-1.0, 1.0);
  }
  for (int i = 0; i < n; ++i) {
    diag[i] = 3.0 + rng.uniform(0.0, 1.0);  // dominant
    rhs[i] = rng.uniform(-5.0, 5.0);
  }
  const auto x = solve_tridiagonal(lower, diag, upper, rhs);
  for (int i = 0; i < n; ++i) {
    double ax = diag[i] * x[i];
    if (i > 0) ax += lower[i - 1] * x[i - 1];
    if (i + 1 < n) ax += upper[i] * x[i + 1];
    EXPECT_NEAR(ax, rhs[i], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TridiagonalProperty,
                         ::testing::Values(2, 3, 5, 17, 64, 257));

TEST(Linspace, EndpointsAndSpacing) {
  const auto g = linspace(0.0, 1.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 1.0);
  EXPECT_DOUBLE_EQ(g[2], 0.5);
}

TEST(Linspace, RejectsDegenerate) {
  EXPECT_THROW(linspace(0.0, 1.0, 1), NumericsError);
}

TEST(Trapezoid, IntegratesLineExactly) {
  const auto x = linspace(0.0, 2.0, 11);
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = 3.0 * x[i] + 1.0;
  // integral of 3x+1 over [0,2] = 6 + 2 = 8, exact for trapezoid.
  EXPECT_NEAR(trapezoid(x, y), 8.0, 1e-12);
}

TEST(Trapezoid, QuadraticConverges) {
  const auto x = linspace(0.0, 1.0, 1001);
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] * x[i];
  EXPECT_NEAR(trapezoid(x, y), 1.0 / 3.0, 1e-6);
}

TEST(Interp1, InterpolatesAndClamps) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const std::vector<double> ys = {0.0, 10.0, 40.0};
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 1.5), 25.0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, -1.0), 0.0);   // clamp low
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 3.0), 40.0);   // clamp high
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 1.0), 10.0);   // exact node
}

TEST(Bisect, FindsRootOfCubic) {
  const auto f = [](double x) { return x * x * x - 2.0; };
  EXPECT_NEAR(bisect(f, 0.0, 2.0), std::cbrt(2.0), 1e-10);
}

TEST(Bisect, RejectsNoSignChange) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_THROW(bisect(f, -1.0, 1.0), NumericsError);
}

TEST(Bisect, AcceptsRootAtBracketEdge) {
  const auto f = [](double x) { return x; };
  EXPECT_DOUBLE_EQ(bisect(f, 0.0, 1.0), 0.0);
}

TEST(ApproxEqual, RelativeAndAbsolute) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(0.0, 1e-12, 1e-9, 1e-9));
  EXPECT_FALSE(approx_equal(0.0, 1e-6, 1e-9, 1e-9));
}

}  // namespace
}  // namespace biosens
