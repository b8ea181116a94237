// Expected<T>/ErrorInfo: monadic plumbing, context-chain formatting,
// and the end-to-end exception-free error path from the chemistry layer
// through the Platform and the batch engine.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "chem/kinetics.hpp"
#include "chem/solution.hpp"
#include "chem/species.hpp"
#include "common/error.hpp"
#include "common/expected.hpp"
#include "core/platform.hpp"
#include "engine/engine.hpp"

namespace biosens {
namespace {

TEST(Expected, HoldsValueOrError) {
  const Expected<int> good(7);
  EXPECT_TRUE(good.has_value());
  EXPECT_TRUE(static_cast<bool>(good));
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(good.value_or(0), 7);

  const Expected<int> bad(
      make_error(ErrorCode::kSpec, Layer::kChem, "kinetics", "k_cat <= 0"));
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(bad.error().code, ErrorCode::kSpec);
  EXPECT_EQ(bad.error().layer, Layer::kChem);
  EXPECT_EQ(bad.error().stage, "kinetics");
}

TEST(Expected, MapTransformsValuesAndPassesErrorsThrough) {
  const Expected<int> good(21);
  const Expected<int> doubled = good.map([](int v) { return 2 * v; });
  EXPECT_EQ(doubled.value(), 42);

  const Expected<int> bad(make_error(ErrorCode::kNumerics, Layer::kAnalysis,
                                     "fit", "singular"));
  const Expected<int> still_bad = bad.map([](int v) { return 2 * v; });
  ASSERT_FALSE(still_bad.has_value());
  EXPECT_EQ(still_bad.error().code, ErrorCode::kNumerics);
  EXPECT_EQ(still_bad.error().message, "singular");
}

TEST(Expected, AndThenChainsFallibleSteps) {
  const auto half = [](int v) -> Expected<int> {
    if (v % 2 != 0) {
      return make_error(ErrorCode::kNumerics, Layer::kCommon, "half",
                        "odd input");
    }
    return v / 2;
  };
  EXPECT_EQ(Expected<int>(8).and_then(half).value(), 4);
  EXPECT_FALSE(Expected<int>(9).and_then(half).has_value());
  // An upstream error short-circuits: the chained step never runs.
  const Expected<int> bad(
      make_error(ErrorCode::kSpec, Layer::kCore, "spec", "bad"));
  EXPECT_EQ(bad.and_then(half).error().stage, "spec");
}

TEST(Expected, ValueRematerializesTheMatchingException) {
  const Expected<int> spec(
      make_error(ErrorCode::kSpec, Layer::kChem, "kinetics", "bad"));
  EXPECT_THROW((void)spec.value(), SpecError);
  const Expected<int> numerics(
      make_error(ErrorCode::kNumerics, Layer::kAnalysis, "fit", "bad"));
  EXPECT_THROW((void)numerics.value(), NumericsError);
  const Expected<int> analysis(
      make_error(ErrorCode::kAnalysis, Layer::kAnalysis, "peaks", "bad"));
  EXPECT_THROW((void)analysis.value(), AnalysisError);
  const Expected<int> internal(
      make_error(ErrorCode::kInternal, Layer::kEngine, "job", "bad"));
  EXPECT_THROW((void)internal.value(), Error);
}

TEST(Expected, VoidSpecializationExpressesPureSuccessOrFailure) {
  const Expected<void> fine = ok();
  EXPECT_TRUE(fine.has_value());
  fine.value();  // does not throw

  const Expected<void> broken = check(false, ErrorCode::kSpec, Layer::kCore,
                                      "spec", "violated");
  EXPECT_FALSE(broken.has_value());
  EXPECT_EQ(broken.error().message, "violated");
  EXPECT_THROW(broken.value(), SpecError);

  // and_then on a success runs the continuation; on a failure skips it.
  bool ran = false;
  (void)fine.and_then([&]() -> Expected<void> {
    ran = true;
    return ok();
  });
  EXPECT_TRUE(ran);
}

TEST(ErrorInfo, DescribeRendersLayerStageCodeAndContextChain) {
  ErrorInfo e = make_error(ErrorCode::kSpec, Layer::kChem, "kinetics",
                           "k_m must be positive");
  EXPECT_EQ(e.describe(), "[chem/kinetics] spec: k_m must be positive");

  Expected<int> wrapped(e);
  wrapped = ctx("synthesize layer", std::move(wrapped));
  wrapped = ctx("measure GOD", std::move(wrapped));
  EXPECT_EQ(wrapped.error().describe(),
            "[chem/kinetics] spec: k_m must be positive "
            "(via: synthesize layer <- measure GOD)");
}

TEST(ErrorInfo, RetryabilityFollowsTheTaxonomy) {
  const auto code_of = [](ErrorCode c) {
    return make_error(c, Layer::kCommon, "s", "m");
  };
  EXPECT_FALSE(code_of(ErrorCode::kSpec).retryable());
  EXPECT_TRUE(code_of(ErrorCode::kNumerics).retryable());
  EXPECT_FALSE(code_of(ErrorCode::kAnalysis).retryable());
  EXPECT_TRUE(code_of(ErrorCode::kQcReject).retryable());
  EXPECT_FALSE(code_of(ErrorCode::kInternal).retryable());
}

TEST(ErrorInfo, FromExceptionClassifiesTheLegacyTaxonomy) {
  const ErrorInfo spec = ErrorInfo::from_exception(SpecError("bad spec"),
                                                   Layer::kEngine, "job-0");
  EXPECT_EQ(spec.code, ErrorCode::kSpec);
  EXPECT_EQ(spec.layer, Layer::kEngine);
  EXPECT_EQ(spec.stage, "job-0");
  EXPECT_EQ(spec.message, "bad spec");
  EXPECT_EQ(ErrorInfo::from_exception(NumericsError("x"), Layer::kEngine,
                                      "j")
                .code,
            ErrorCode::kNumerics);
  EXPECT_EQ(ErrorInfo::from_exception(AnalysisError("x"), Layer::kEngine,
                                      "j")
                .code,
            ErrorCode::kAnalysis);
  EXPECT_EQ(ErrorInfo::from_exception(std::runtime_error("x"),
                                      Layer::kEngine, "j")
                .code,
            ErrorCode::kInternal);
}

TEST(Expected, ChemLayerReportsStructuredErrors) {
  const auto bad = chem::MichaelisMenten::try_create(
      Rate::per_second(-1.0), Concentration::milli_molar(1.0));
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().code, ErrorCode::kSpec);
  EXPECT_EQ(bad.error().layer, Layer::kChem);
  EXPECT_EQ(bad.error().stage, "kinetics");

  const auto unknown = chem::try_species("unobtainium");
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(unknown.error().code, ErrorCode::kSpec);
}

// --- End-to-end: a bad sample propagates chem -> core -> engine as a
// structured per-job error, with no exception crossing any layer
// boundary, identically for every worker count. ---

core::Platform calibrated_single_sensor_platform() {
  core::Platform p;
  p.add_sensor(core::try_entry("MWCNT/Nafion + GOD (this work)").value());
  core::ProtocolOptions quick;
  quick.blank_repeats = 8;
  quick.replicates = 1;
  Rng rng(11);
  const Expected<void> calibrated = p.try_calibrate_all(rng, quick);
  EXPECT_TRUE(calibrated.has_value());
  return p;
}

core::PanelBatchResult run_bad_sample_batch(const core::Platform& platform,
                                            std::size_t workers) {
  std::vector<chem::Sample> samples(2);
  samples[0].set("glucose", Concentration::milli_molar(0.5));
  samples[1].set("unobtainium", Concentration::milli_molar(1.0));

  engine::EngineOptions engine_options;
  engine_options.workers = workers;
  engine::Engine engine(engine_options);
  core::PanelBatchOptions options;
  options.seed = 2012;
  return platform.run_panel_batch(samples, engine, options);
}

TEST(Expected, BadSampleSurfacesAsStructuredJobErrorEndToEnd) {
  const core::Platform platform = calibrated_single_sensor_platform();
  const core::PanelBatchResult result = run_bad_sample_batch(platform, 0);

  ASSERT_EQ(result.jobs.size(), 2u);
  // The good sample's panel is unaffected by its neighbor's failure.
  EXPECT_TRUE(result.jobs[0].accepted);
  EXPECT_FALSE(result.jobs[0].error.has_value());

  // The bad sample's job carries the chem-layer error, stage-attributed
  // and with the full propagation chain, instead of aborting the batch.
  ASSERT_TRUE(result.jobs[1].error.has_value());
  const ErrorInfo& error = *result.jobs[1].error;
  EXPECT_EQ(error.code, ErrorCode::kSpec);
  EXPECT_EQ(error.layer, Layer::kChem);
  EXPECT_EQ(error.stage, "species lookup");
  EXPECT_EQ(error.describe(),
            "[chem/species lookup] spec: unknown species: unobtainium "
            "(via: sample validation <- measure MWCNT/Nafion + GOD <- "
            "assay panel <- panel batch)");
  // A spec fault is deterministic: the engine does not burn the retry
  // budget re-measuring it.
  EXPECT_EQ(result.jobs[1].attempts, 1u);
  EXPECT_FALSE(result.all_accepted());
  ASSERT_NE(result.first_error(), nullptr);
  EXPECT_EQ(result.first_error()->describe(), error.describe());
}

TEST(Expected, StructuredJobErrorIsIdenticalAcrossWorkerCounts) {
  const core::Platform platform = calibrated_single_sensor_platform();
  const core::PanelBatchResult serial = run_bad_sample_batch(platform, 0);
  const core::PanelBatchResult parallel = run_bad_sample_batch(platform, 8);

  ASSERT_TRUE(serial.jobs[1].error.has_value());
  ASSERT_TRUE(parallel.jobs[1].error.has_value());
  EXPECT_EQ(serial.jobs[1].error->describe(),
            parallel.jobs[1].error->describe());
  EXPECT_EQ(serial.jobs[0].accepted, parallel.jobs[0].accepted);
  EXPECT_EQ(serial.jobs[1].attempts, parallel.jobs[1].attempts);
  // The good panel's numbers obey the engine determinism contract too.
  EXPECT_DOUBLE_EQ(serial.reports[0].results[0].response_a,
                   parallel.reports[0].results[0].response_a);
}

}  // namespace
}  // namespace biosens
