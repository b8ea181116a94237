// Byte-identity pins for the amperometric pipeline: every catalog sensor
// must produce bit-exact the doubles pinned below, so they hold the
// simulation arithmetic (chrono, CV and DPV solves, the calibration
// inverse) and the RNG stream consumption end to end. Any drift is a
// bug, unless a change moves these bytes on purpose: it then re-pins
// them from this test's own printout and states in CHANGES.md how far
// each value moved (docs/determinism.md).
//
// A mismatched row reports its actual and pinned hex, the distance in
// ULP and the relative difference. After each table with a mismatch the
// test prints the whole replacement table as C++ literals, ready to
// paste over the old one.
//
// Coverage: direct measurements (cache off / cold cache / warm cache),
// the platform panel batch at 0, 1 and 8 workers, and the serial assay
// with and without a SimCache.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "chem/solution.hpp"
#include "core/catalog.hpp"
#include "core/platform.hpp"
#include "engine/engine.hpp"
#include "engine/sim_cache.hpp"

namespace biosens::core {
namespace {

[[nodiscard]] std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

[[nodiscard]] double from_bits(std::uint64_t u) {
  double d = 0.0;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

/// A pinned value as the tables spell it: 0, or 0x plus 16 hex digits.
[[nodiscard]] std::string hex(std::uint64_t u) {
  if (u == 0) return "0";
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(u));
  return buf;
}

/// Number of representable doubles between two finite values.
[[nodiscard]] std::uint64_t ulp_distance(std::uint64_t a, std::uint64_t b) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const std::uint64_t mag_a = a & ~kSign;
  const std::uint64_t mag_b = b & ~kSign;
  if ((a & kSign) != (b & kSign)) return mag_a + mag_b;
  return mag_a > mag_b ? mag_a - mag_b : mag_b - mag_a;
}

/// Fails the test on a mismatch with what sizing a re-pin needs: the
/// row, both hex values, their distance in ULP and the relative
/// difference.
void expect_pinned(const std::string& row, double actual,
                   std::uint64_t pinned) {
  const std::uint64_t got = bits(actual);
  if (got == pinned) return;
  const double want = from_bits(pinned);
  ADD_FAILURE() << row << ": actual " << hex(got) << ", pinned "
                << hex(pinned) << ", " << ulp_distance(got, pinned)
                << " ULP, relative "
                << std::abs(actual - want) / std::abs(want);
}

// --- direct measurements: full_catalog() row i, Rng(1234 + i), sample =
// calibration_sample(target, midpoint of the published linear range).
// One hex per sensor: cache off, cache miss and cache hit must agree.
struct DirectGolden {
  std::string_view name;
  std::uint64_t response_bits;
};
constexpr DirectGolden kDirectGolden[] = {
    {"CNT mat + GOD", 0x3e9a1ddb5d3361c6},
    {"MWCNT/Nafion + GOD", 0x3e987da5474cc5a4},
    {"MWCNT + GOD", 0x3eddfba450acc0b7},
    {"MWCNT-BA + GOD", 0x3ec319da1bbfcf13},
    {"MWCNT/Nafion + GOD", 0x3e7463d0c611d8da},
    {"MWCNT/mineral oil + LOD", 0x3e6f3682843a72f5},
    {"Titanate NT + LOD", 0x3e822de73b5a6b82},
    {"MWCNT + sol-gel/LOD", 0x3e85160c5bd8eeca},
    {"N-doped CNT/Nafion + LOD", 0x3ea21f84d592433f},
    {"MWCNT/Nafion + LOD", 0x3e628b2b996b3380},
    {"Nafion + GlOD", 0x3e116cde5373a1af},
    {"Chit + GlOD", 0x3ea62bf7d58f1317},
    {"PU/MWCNT + GlOD/PP", 0x3e8edcf14bf6e849},
    {"MWCNT/Nafion + GlOD", 0x3e25b76831d0b131},
    {"MWCNT + CYP (arachidonic acid)", 0x3ecbd482acd1d1b2},
    {"MWCNT + CYP (cyclophosphamide)", 0x3ea7c696b2c85c3c},
    {"MWCNT + CYP (ifosfamide)", 0x3ec0275c03e361ae},
    {"MWCNT + CYP (Ftorafur)", 0x3ea55c9d3127fcc4},
};

TEST(AmperometricIdentity, DirectMeasurementsMatchGoldenAcrossCacheModes) {
  const auto catalog = full_catalog();
  ASSERT_EQ(catalog.size(), std::size(kDirectGolden));
  engine::SimCache cache{engine::SimCacheOptions{}};
  std::string replacement = "constexpr DirectGolden kDirectGolden[] = {\n";
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const CatalogEntry& e = catalog[i];
    ASSERT_EQ(e.spec.name, kDirectGolden[i].name) << i;
    const BiosensorModel sensor(e.spec);
    const Concentration mid = Concentration::milli_molar(
        0.5 * (e.published.range_low.milli_molar() +
               e.published.range_high.milli_molar()));
    const chem::Sample s = chem::calibration_sample(e.spec.target, mid);
    Rng no_cache(1234 + i), cold(1234 + i), warm(1234 + i);
    const auto m1 = sensor.try_measure(s, no_cache, nullptr);
    const auto m2 = sensor.try_measure(s, cold, &cache);
    const auto m3 = sensor.try_measure(s, warm, &cache);
    ASSERT_TRUE(m1.has_value() && m2.has_value() && m3.has_value())
        << e.spec.name;
    const std::uint64_t pinned = kDirectGolden[i].response_bits;
    expect_pinned(e.spec.name + " (cache off)", m1.value().response_a, pinned);
    expect_pinned(e.spec.name + " (cache miss)", m2.value().response_a,
                  pinned);
    expect_pinned(e.spec.name + " (cache hit)", m3.value().response_a, pinned);
    replacement += "    {\"" + e.spec.name + "\", " +
                   hex(bits(m1.value().response_a)) + "},\n";
  }
  if (HasFailure()) std::cout << replacement << "};\n";
}

// --- panel batch: paper_platform calibrated with Rng(42), six serum
// glucose samples at 0.2 + 0.1 k mM, PanelBatchOptions seed 2012. The
// table is the same at 0, 1 and 8 workers (that is the engine
// determinism contract), so one golden table covers all three runs.
// Rows are (sample, target) -> response / estimate bits.
struct BatchGolden {
  std::string_view target;
  std::uint64_t response_bits;
  std::uint64_t estimated_bits;
};
constexpr BatchGolden kBatchGolden[6][7] = {
    {{"glucose", 0x3e793b4ca99e40ea, 0x3fe4c2195f1caa16},
     {"lactate", 0x3e7092734e701451, 0x3feeae12de40ad08},
     {"glutamate", 0x3e7090c7f507e58d, 0x403b772fe46247e8},
     {"arachidonic acid", 0, 0},
     {"cyclophosphamide", 0x3e8748df813bebf0, 0},
     {"ifosfamide", 0x3e960b88ee7a60e8, 0},
     {"ftorafur", 0x3e75c01c4b7e1020, 0}},
    {{"glucose", 0x3e7d4fb6f77871fd, 0x3fe84335e8cbef4b},
     {"lactate", 0x3e7091dad5c667fb, 0x3feeacf00dc325b9},
     {"glutamate", 0x3e709157d6ab9dcf, 0x403b781f257ba6bb},
     {"arachidonic acid", 0, 0},
     {"cyclophosphamide", 0x3e860c27b82a4c60, 0},
     {"ifosfamide", 0x3e95d1caf6e10a68, 0},
     {"ftorafur", 0x3e6d8f7334592a00, 0}},
    {{"glucose", 0x3e809598136dd735, 0x3feb9369470006b7},
     {"lactate", 0x3e70905849ba808c, 0x3feeaa0ec71c579c},
     {"glutamate", 0x3e708feac42e9899, 0x403b75c015523431},
     {"arachidonic acid", 0, 0},
     {"cyclophosphamide", 0x3e860f068ca18cb0, 0},
     {"ifosfamide", 0x3e96f2ec3bb40e88, 0},
     {"ftorafur", 0x3e7a505485763ce0, 0}},
    {{"glucose", 0x3e828042b07eb871, 0x3feede56653a9898},
     {"lactate", 0x3e7080bbd228ac4e, 0x3fee8c4829ceb2a7},
     {"glutamate", 0x3e708ed397ed1c20, 0x403b73efdbc918ce},
     {"arachidonic acid", 0, 0},
     {"cyclophosphamide", 0x3e863612acf96fa0, 0},
     {"ifosfamide", 0x3e9722ac77037b38, 0},
     {"ftorafur", 0x3e755eb2e283afc0, 0}},
    {{"glucose", 0x3e844ff6377f4837, 0x3ff0fd7847378ec6},
     {"lactate", 0x3e70a43f3165a005, 0x3feed0047c1d9749},
     {"glutamate", 0x3e708fd211fd7ae2, 0x403b7597046a8187},
     {"arachidonic acid", 0, 0},
     {"cyclophosphamide", 0x3e8532f1a9a9f0d0, 0},
     {"ifosfamide", 0x3e972107eec2d1f8, 0},
     {"ftorafur", 0x3e69d0d43a0d1dc0, 0}},
    {{"glucose", 0x3e860cdf6179edf6, 0x3ff27ba172479153},
     {"lactate", 0x3e708360473d8144, 0x3fee915265729b41},
     {"glutamate", 0x3e708f02d68dda89, 0x403b743e6b6e158d},
     {"arachidonic acid", 0, 0},
     {"cyclophosphamide", 0x3e8708fc526e21f0, 0},
     {"ifosfamide", 0x3e95de1a3978f3a0, 0},
     {"ftorafur", 0x3e74ff60aa61d200, 0}},
};

TEST(AmperometricIdentity, PanelBatchMatchesGoldenAtZeroOneEightWorkers) {
  Platform platform = Platform::paper_platform();
  Rng cal_rng(42);
  ASSERT_TRUE(platform.try_calibrate_all(cal_rng).has_value());
  std::vector<chem::Sample> samples;
  for (int k = 0; k < 6; ++k) {
    samples.push_back(chem::serum_sample(
        "glucose", Concentration::milli_molar(0.2 + 0.1 * k)));
  }
  // Printed from the 0-worker run, the serial reference.
  std::string replacement = "constexpr BatchGolden kBatchGolden[6][7] = {\n";
  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    engine::EngineOptions opt;
    opt.workers = workers;
    opt.sim_cache_capacity = workers == 8 ? 256 : 0;
    engine::Engine eng(opt);
    PanelBatchOptions bopt;
    bopt.seed = 2012;
    const auto batch = platform.run_panel_batch(samples, eng, bopt);
    ASSERT_EQ(batch.reports.size(), 6u) << "workers=" << workers;
    for (std::size_t si = 0; si < batch.reports.size(); ++si) {
      const auto& results = batch.reports[si].results;
      ASSERT_EQ(results.size(), 7u) << "workers=" << workers;
      for (std::size_t ri = 0; ri < results.size(); ++ri) {
        const BatchGolden& g = kBatchGolden[si][ri];
        EXPECT_EQ(results[ri].target, g.target);
        const std::string row = "workers=" + std::to_string(workers) +
                                " sample=" + std::to_string(si) +
                                " target=" + std::string(g.target);
        expect_pinned(row + " response", results[ri].response_a,
                      g.response_bits);
        expect_pinned(row + " estimate", results[ri].estimated.milli_molar(),
                      g.estimated_bits);
        if (workers != 0) continue;
        replacement += std::string(ri == 0 ? "    {{" : "     {") + "\"" +
                       results[ri].target + "\", " +
                       hex(bits(results[ri].response_a)) + ", " +
                       hex(bits(results[ri].estimated.milli_molar())) +
                       (ri + 1 < results.size() ? "},\n" : "}},\n");
      }
    }
  }
  if (HasFailure()) std::cout << replacement << "};\n";
}

// --- serial assay: serum glucose 0.45 mM, Rng(7); cache on and off must
// both reproduce the pinned bits.
constexpr DirectGolden kAssayGolden[] = {
    {"glucose", 0x3e818f396e60b0c6},
    {"lactate", 0x3e7085c675672ca9},
    {"glutamate", 0x3e7097574a13ca5b},
    {"arachidonic acid", 0},
    {"cyclophosphamide", 0x3e8724e64db3cca0},
    {"ifosfamide", 0x3e9645eaf93ff930},
    {"ftorafur", 0},
};

TEST(AmperometricIdentity, SerialAssayMatchesGoldenWithAndWithoutCache) {
  Platform platform = Platform::paper_platform();
  Rng cal_rng(42);
  ASSERT_TRUE(platform.try_calibrate_all(cal_rng).has_value());
  const chem::Sample s =
      chem::serum_sample("glucose", Concentration::milli_molar(0.45));
  Rng off(7), on(7);
  engine::SimCache cache{engine::SimCacheOptions{}};
  const auto r1 = platform.try_assay(s, off, nullptr);
  const auto r2 = platform.try_assay(s, on, &cache);
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  ASSERT_EQ(r1.value().results.size(), std::size(kAssayGolden));
  ASSERT_EQ(r2.value().results.size(), std::size(kAssayGolden));
  std::string replacement = "constexpr DirectGolden kAssayGolden[] = {\n";
  for (std::size_t k = 0; k < std::size(kAssayGolden); ++k) {
    const std::string name(kAssayGolden[k].name);
    EXPECT_EQ(r1.value().results[k].target, name);
    expect_pinned(name + " (cache off)", r1.value().results[k].response_a,
                  kAssayGolden[k].response_bits);
    expect_pinned(name + " (cache on)", r2.value().results[k].response_a,
                  kAssayGolden[k].response_bits);
    replacement += "    {\"" + r1.value().results[k].target + "\", " +
                   hex(bits(r1.value().results[k].response_a)) + "},\n";
  }
  if (HasFailure()) std::cout << replacement << "};\n";
}

}  // namespace
}  // namespace biosens::core
