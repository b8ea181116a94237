// Trace containers and readout property sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "common/expected.hpp"
#include "electrochem/trace.hpp"
#include "readout/chain.hpp"

namespace biosens {
namespace {

using electrochem::TimeSeries;
using electrochem::Voltammogram;

TEST(TimeSeriesContainer, PushAndTailMean) {
  TimeSeries t;
  EXPECT_TRUE(t.empty());
  for (int i = 1; i <= 10; ++i) t.push(0.1 * i, static_cast<double>(i));
  EXPECT_EQ(t.size(), 10u);
  // Tail 20% = last 2 samples: mean(9, 10) = 9.5.
  EXPECT_DOUBLE_EQ(t.try_tail_mean_a(0.2).value(), 9.5);
  // Full-trace mean.
  EXPECT_DOUBLE_EQ(t.try_tail_mean_a(1.0).value(), 5.5);
}

TEST(TimeSeriesContainer, TinyFractionFallsBackToLastSample) {
  TimeSeries t;
  for (int i = 1; i <= 5; ++i) t.push(0.1 * i, static_cast<double>(i));
  EXPECT_DOUBLE_EQ(t.try_tail_mean_a(1e-6).value(), 5.0);
}

TEST(TimeSeriesContainer, TailMeanValidation) {
  TimeSeries empty;
  TimeSeries t;
  t.push(0.0, 1.0);
  for (const auto& tail : {empty.try_tail_mean_a(0.1), t.try_tail_mean_a(0.0),
                           t.try_tail_mean_a(1.5)}) {
    ASSERT_FALSE(tail.has_value());
    EXPECT_EQ(tail.error().code, ErrorCode::kAnalysis);
  }
}

TEST(VoltammogramContainer, PushTracksBranches) {
  Voltammogram vg;
  for (int i = 0; i < 10; ++i) vg.push(0.1 * i, 1e-6 * i);
  vg.turning_index = 5;
  EXPECT_EQ(vg.size(), 10u);
  EXPECT_FALSE(vg.empty());
  EXPECT_DOUBLE_EQ(vg.potential_v[3], 0.3);
}

// Property: autorange picks monotonically decreasing gain as the
// expected signal grows, and the signal always fits inside 60% of rail.
class AutorangeSweep : public ::testing::TestWithParam<double> {};

TEST_P(AutorangeSweep, SignalFitsWithHeadroom) {
  const double amps = GetParam();
  const readout::ChainConfig config =
      readout::SignalChain::try_for_full_scale(Current::amps(amps)).value();
  const double v = amps * config.tia.feedback().ohms();
  EXPECT_LE(v, 0.6 * 1.2 + 1e-12);
  // And the next decade up would overflow the headroom (unless already
  // at the maximum gain).
  if (config.tia.feedback().ohms() < 1e8) {
    EXPECT_GT(amps * config.tia.feedback().ohms() * 10.0, 0.6 * 1.2);
  }
}

// Signals inside the instrument's measurable span (<= 72 uA at the
// lowest decade gain).
INSTANTIATE_TEST_SUITE_P(Magnitudes, AutorangeSweep,
                         ::testing::Values(1e-9, 1e-8, 1e-7, 1e-6, 1e-5,
                                           5e-5));

TEST(Autorange, OverLargeSignalsGetTheMinimumGain) {
  // Beyond the measurable span the chain falls back to its lowest gain
  // and the rails clip — the QC layer, not the gain ladder, owns that.
  const readout::ChainConfig config =
      readout::SignalChain::try_for_full_scale(Current::amps(1e-3)).value();
  EXPECT_DOUBLE_EQ(config.tia.feedback().ohms(), 1e4);
}

// Property: reconstruction through the full chain is accurate across
// signal scales when noise is off.
class ChainFidelity : public ::testing::TestWithParam<double> {};

TEST_P(ChainFidelity, CleanSignalReconstructedWithinHalfPercent) {
  const double amps = GetParam();
  const readout::SignalChain chain =
      readout::SignalChain::try_for_full_scale(Current::amps(2.0 * amps))
          .and_then(readout::SignalChain::try_create)
          .value();
  readout::NoiseSpec quiet;
  quiet.electrode_lf_rms = Current{};
  quiet.white_density_a_per_sqrt_hz = 0.0;
  quiet.include_shot = false;

  TimeSeries ideal;
  for (int i = 1; i <= 200; ++i) ideal.push(0.025 * i, amps);
  Rng rng(3);
  const TimeSeries out = chain.try_acquire(ideal, quiet, rng).value();
  EXPECT_NEAR(out.try_tail_mean_a(0.25).value(), amps, 0.005 * amps);
}

INSTANTIATE_TEST_SUITE_P(Scales, ChainFidelity,
                         ::testing::Values(1e-9, 1e-8, 1e-7, 1e-6, 1e-5));

}  // namespace
}  // namespace biosens
