// Readout chain: TIA, noise generator, ADC, filters, end-to-end
// acquisition fidelity.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "electrochem/trace.hpp"
#include "readout/adc.hpp"
#include "readout/chain.hpp"
#include "readout/filter.hpp"
#include "readout/noise.hpp"
#include "readout/tia.hpp"

namespace biosens::readout {
namespace {

TEST(Tia, GainAndClipping) {
  TransimpedanceAmplifier tia(Resistance::mega_ohms(1.0),
                              Frequency::kilo_hertz(1.0),
                              Potential::volts(1.2));
  EXPECT_DOUBLE_EQ(tia.output(Current::micro_amps(0.5)).volts(), 0.5);
  EXPECT_DOUBLE_EQ(tia.output(Current::micro_amps(5.0)).volts(), 1.2);
  EXPECT_DOUBLE_EQ(tia.output(Current::micro_amps(-5.0)).volts(), -1.2);
  EXPECT_DOUBLE_EQ(tia.full_scale().micro_amps(), 1.2);
}

TEST(Tia, SinglePoleSettles) {
  TransimpedanceAmplifier tia = default_tia();
  // Step of 1 uA sampled well above the corner: settles to 1 V.
  Potential v;
  for (int i = 0; i < 100; ++i) {
    v = tia.filtered_output(Current::micro_amps(1.0),
                            Time::milliseconds(1.0));
  }
  EXPECT_NEAR(v.volts(), 1.0, 1e-3);
  tia.reset();
  EXPECT_NEAR(tia.filtered_output(Current{}, Time::milliseconds(1.0)).volts(),
              0.0, 1e-12);
}

TEST(Tia, JohnsonNoiseDensityMagnitude) {
  // sqrt(4kT/R) at 1 Mohm, 298 K ~ 128 fA/sqrt(Hz).
  TransimpedanceAmplifier tia = default_tia();
  EXPECT_NEAR(tia.johnson_noise_density(), 1.28e-13, 0.05e-13);
}

TEST(Adc, LsbAndCodes) {
  const Adc adc(Potential::volts(1.2), 16);
  EXPECT_NEAR(adc.lsb().volts(), 2.4 / 65536.0, 1e-12);
  EXPECT_EQ(adc.code_for(Potential::volts(0.0)), 0);
  EXPECT_EQ(adc.code_for(Potential::volts(10.0)), 32767);
  EXPECT_EQ(adc.code_for(Potential::volts(-10.0)), -32768);
  // Quantization error bounded by half an LSB inside the range.
  const Potential in = Potential::volts(0.123456);
  EXPECT_NEAR(adc.quantize(in).volts(), in.volts(),
              0.5 * adc.lsb().volts());
}

TEST(Adc, RejectsBadConfig) {
  EXPECT_THROW(Adc(Potential::volts(0.0), 12), SpecError);
  EXPECT_THROW(Adc(Potential::volts(1.0), 1), SpecError);
  EXPECT_THROW(Adc(Potential::volts(1.0), 30), SpecError);
}

TEST(Filters, MovingAverageConvergesOnConstant) {
  MovingAverage f(4);
  double y = 0.0;
  for (int i = 0; i < 10; ++i) y = f.push(2.0);
  EXPECT_DOUBLE_EQ(y, 2.0);
}

TEST(Filters, MovingAverageWindowArithmetic) {
  MovingAverage f(3);
  EXPECT_DOUBLE_EQ(f.push(3.0), 3.0);
  EXPECT_DOUBLE_EQ(f.push(6.0), 4.5);
  EXPECT_DOUBLE_EQ(f.push(9.0), 6.0);
  EXPECT_DOUBLE_EQ(f.push(12.0), 9.0);  // window slid past the 3
}

TEST(Filters, RejectBadWindows) {
  EXPECT_THROW(MovingAverage(0), SpecError);
}

TEST(Noise, StationaryRmsMatchesSpec) {
  NoiseSpec spec;
  spec.electrode_lf_rms = Current::nano_amps(1.0);
  spec.white_density_a_per_sqrt_hz = 0.0;
  spec.include_shot = false;
  NoiseGenerator gen(spec, Frequency::hertz(40.0), Rng(3));
  std::vector<double> xs;
  for (int i = 0; i < 40000; ++i) {
    xs.push_back(gen.next(Current{}).nano_amps());
  }
  EXPECT_NEAR(mean(xs), 0.0, 0.15);
  EXPECT_NEAR(sample_stddev(xs), 1.0, 0.15);
}

TEST(Noise, WhiteRmsFollowsDensity) {
  NoiseSpec spec;
  spec.electrode_lf_rms = Current{};
  spec.white_density_a_per_sqrt_hz = 1e-12;
  spec.include_shot = false;
  NoiseGenerator gen(spec, Frequency::hertz(100.0), Rng(3));
  EXPECT_NEAR(gen.white_rms_a(), 1e-12 * std::sqrt(50.0), 1e-18);
}

TEST(Noise, ShotGrowsWithCurrent) {
  NoiseSpec spec;
  NoiseGenerator gen(spec, Frequency::hertz(100.0), Rng(3));
  EXPECT_GT(gen.shot_rms_a(Current::micro_amps(10.0)),
            gen.shot_rms_a(Current::nano_amps(1.0)));
  EXPECT_DOUBLE_EQ(gen.shot_rms_a(Current{}), 0.0);
}

electrochem::TimeSeries constant_trace(double amps, std::size_t n) {
  electrochem::TimeSeries t;
  for (std::size_t i = 0; i < n; ++i) {
    t.push(0.025 * static_cast<double>(i + 1), amps);
  }
  return t;
}

TEST(Chain, ReconstructsCleanSignal) {
  const SignalChain chain =
      SignalChain::try_for_full_scale(Current::micro_amps(1.0))
          .and_then(SignalChain::try_create)
          .value();
  NoiseSpec quiet;
  quiet.electrode_lf_rms = Current{};
  quiet.white_density_a_per_sqrt_hz = 0.0;
  quiet.include_shot = false;
  Rng rng(1);
  const auto out =
      chain.try_acquire(constant_trace(0.5e-6, 400), quiet, rng).value();
  EXPECT_NEAR(out.try_tail_mean_a(0.25).value(), 0.5e-6, 1e-9);
}

TEST(Chain, NoisyBlankHasExpectedSpread) {
  const SignalChain chain =
      SignalChain::try_for_full_scale(Current::nano_amps(20.0))
          .and_then(SignalChain::try_create)
          .value();
  NoiseSpec spec;
  spec.electrode_lf_rms = Current::nano_amps(1.0);
  Rng rng(7);
  // Repeat blank measurements: the tail means spread by roughly the LF rms.
  std::vector<double> responses;
  for (int i = 0; i < 60; ++i) {
    const auto out =
        chain.try_acquire(constant_trace(0.0, 400), spec, rng).value();
    responses.push_back(out.try_tail_mean_a(0.1).value());
  }
  const double sigma = sample_stddev(responses);
  EXPECT_GT(sigma, 0.3e-9);
  EXPECT_LT(sigma, 2.0e-9);
}

TEST(Chain, FullScaleAutoSelection) {
  // Gain picked so the expected max sits inside 60% of the rail.
  const ChainConfig big =
      SignalChain::try_for_full_scale(Current::amps(1e-4)).value();
  EXPECT_DOUBLE_EQ(big.tia.feedback().ohms(), 1e4);
  const ChainConfig small =
      SignalChain::try_for_full_scale(Current::amps(1e-9)).value();
  EXPECT_DOUBLE_EQ(small.tia.feedback().ohms(), 1e8);
}

TEST(Chain, MeasurementNoiseIncludesQuantization) {
  const SignalChain coarse =
      SignalChain::try_create(
          ChainConfig{TransimpedanceAmplifier(Resistance::ohms(1e4),
                                              Frequency::kilo_hertz(1.0),
                                              Potential::volts(1.2)),
                      Adc(Potential::volts(1.2), 8), 1})
          .value();
  NoiseSpec quiet;
  quiet.electrode_lf_rms = Current{};
  quiet.white_density_a_per_sqrt_hz = 0.0;
  const double floor_a =
      coarse.measurement_noise_rms_a(quiet, Frequency::hertz(40.0));
  // 8-bit, 1.2 V, 10 kohm -> LSB current ~ 0.94 uA; /sqrt(12) ~ 0.27 uA.
  EXPECT_NEAR(floor_a, 0.94e-6 / std::sqrt(12.0), 0.05e-6);
}

TEST(Chain, AcquireRejectsDegenerateTrace) {
  const SignalChain chain =
      SignalChain::try_for_full_scale(Current::micro_amps(1.0))
          .and_then(SignalChain::try_create)
          .value();
  NoiseSpec spec;
  Rng rng(1);
  electrochem::TimeSeries t;
  t.push(0.0, 1e-9);
  const auto acquired = chain.try_acquire(t, spec, rng);
  ASSERT_FALSE(acquired.has_value());
  EXPECT_EQ(acquired.error().code, ErrorCode::kAnalysis);
}

}  // namespace
}  // namespace biosens::readout
