// Engine simulation cache: canonical key discipline, LRU mechanics, and
// the byte-identity guarantee — cached and uncached panel batches must
// produce identical bytes at any worker count, because only the
// deterministic pre-noise simulation stage is memoized.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "engine/sim_cache.hpp"

namespace biosens::core {
namespace {

using engine::CacheKey;
using engine::SimCache;
using engine::SimCacheOptions;
using engine::SimCacheStats;

// --- CacheKey canonicalization -------------------------------------

TEST(CacheKey, IdenticalFieldSequencesCollide) {
  CacheKey a, b;
  a.add(1.5).add(std::uint64_t{7}).add(std::string_view("glucose"));
  b.add(1.5).add(std::uint64_t{7}).add(std::string_view("glucose"));
  EXPECT_EQ(a, b);
}

TEST(CacheKey, FieldOrderAndValuesMatter) {
  CacheKey ab, ba;
  ab.add(1.0).add(2.0);
  ba.add(2.0).add(1.0);
  EXPECT_NE(ab, ba);

  CacheKey x, y;
  x.add(0.25);
  y.add(0.75);
  EXPECT_NE(x, y);
}

TEST(CacheKey, StringsAreLengthPrefixed) {
  // Without length prefixes "ab"+"c" and "a"+"bc" would hash the same
  // byte stream.
  CacheKey split_one, split_two;
  split_one.add(std::string_view("ab")).add(std::string_view("c"));
  split_two.add(std::string_view("a")).add(std::string_view("bc"));
  EXPECT_NE(split_one, split_two);
}

TEST(CacheKey, NegativeZeroFoldsIntoPositiveZero) {
  CacheKey pos, neg;
  pos.add(0.0);
  neg.add(-0.0);
  EXPECT_EQ(pos, neg);
}

// --- SimCache LRU mechanics ----------------------------------------

CacheKey key_of(std::uint64_t tag) {
  CacheKey k;
  k.add(tag);
  return k;
}

TEST(SimCache, MissThenHitRoundTripsTheValue) {
  SimCache cache(SimCacheOptions{.capacity = 8, .shards = 2});
  const CacheKey key = key_of(1);
  EXPECT_EQ(cache.find_as<int>(key), nullptr);

  const std::shared_ptr<const int> stored = cache.put<int>(key, 42);
  ASSERT_NE(stored, nullptr);
  const std::shared_ptr<const int> found = cache.find_as<int>(key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 42);

  const SimCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(SimCache, EvictsLeastRecentlyUsedUnderTinyCapacity) {
  // One shard so the LRU order is global and the test deterministic.
  SimCache cache(SimCacheOptions{.capacity = 2, .shards = 1});
  (void)cache.put<int>(key_of(1), 1);
  (void)cache.put<int>(key_of(2), 2);
  // Touch 1 so 2 becomes the least recently used entry.
  ASSERT_NE(cache.find_as<int>(key_of(1)), nullptr);

  (void)cache.put<int>(key_of(3), 3);  // evicts 2

  EXPECT_EQ(cache.find_as<int>(key_of(2)), nullptr);
  EXPECT_NE(cache.find_as<int>(key_of(1)), nullptr);
  EXPECT_NE(cache.find_as<int>(key_of(3)), nullptr);
  const SimCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(SimCache, EvictedValueStaysAliveForExistingReaders) {
  SimCache cache(SimCacheOptions{.capacity = 1, .shards = 1});
  const std::shared_ptr<const int> held = cache.put<int>(key_of(1), 11);
  (void)cache.put<int>(key_of(2), 22);  // evicts key 1
  EXPECT_EQ(cache.find_as<int>(key_of(1)), nullptr);
  EXPECT_EQ(*held, 11);  // the handed-out pointer is still valid
}

TEST(SimCache, ReplacesValueForAnExistingKey) {
  SimCache cache(SimCacheOptions{.capacity = 4, .shards = 1});
  (void)cache.put<int>(key_of(1), 1);
  (void)cache.put<int>(key_of(1), 100);
  const std::shared_ptr<const int> found = cache.find_as<int>(key_of(1));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 100);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SimCache, ClearDropsEntriesButKeepsCounters) {
  SimCache cache(SimCacheOptions{.capacity = 4, .shards = 2});
  (void)cache.put<int>(key_of(1), 1);
  ASSERT_NE(cache.find_as<int>(key_of(1)), nullptr);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.find_as<int>(key_of(1)), nullptr);
}

// --- simulation_key sensitivity ------------------------------------

TEST(SimulationKey, MissesWhenAnySpecFieldChanges) {
  const CatalogEntry base = try_entry("MWCNT/Nafion + GOD (this work)").value();
  const chem::Sample sample =
      chem::calibration_sample("glucose", Concentration::milli_molar(0.5));
  const CacheKey reference = BiosensorModel(base.spec).simulation_key(sample);

  // Recomputing from an identical spec reproduces the key exactly.
  EXPECT_EQ(BiosensorModel(base.spec).simulation_key(sample), reference);

  {
    SensorSpec spec = base.spec;
    spec.name += " v2";
    EXPECT_NE(BiosensorModel(spec).simulation_key(sample), reference);
  }
  {
    SensorSpec spec = base.spec;
    spec.citation = "[99]";
    EXPECT_NE(BiosensorModel(spec).simulation_key(sample), reference);
  }
  {
    SensorSpec spec = base.spec;
    spec.ca_step_potential = Potential::millivolts(600.0);
    EXPECT_NE(BiosensorModel(spec).simulation_key(sample), reference);
  }
  {
    SensorSpec spec = base.spec;
    spec.ca_hold = Time::seconds(20.0);
    EXPECT_NE(BiosensorModel(spec).simulation_key(sample), reference);
  }
  {
    SensorSpec spec = base.spec;
    spec.assembly.loading_monolayers *= 0.5;  // reaches the layer physics
    EXPECT_NE(BiosensorModel(spec).simulation_key(sample), reference);
  }
}

TEST(SimulationKey, MissesWhenVoltammetricProtocolChanges) {
  const CatalogEntry base = try_entry("MWCNT + CYP (cyclophosphamide)").value();
  const chem::Sample sample = chem::calibration_sample(
      "cyclophosphamide", Concentration::micro_molar(40.0));
  const CacheKey reference = BiosensorModel(base.spec).simulation_key(sample);

  {
    SensorSpec spec = base.spec;
    spec.cv_scan_rate = ScanRate::millivolts_per_second(60.0);
    EXPECT_NE(BiosensorModel(spec).simulation_key(sample), reference);
  }
  {
    SensorSpec spec = base.spec;
    spec.cv_start = Potential::millivolts(250.0);
    EXPECT_NE(BiosensorModel(spec).simulation_key(sample), reference);
  }
  {
    SensorSpec spec = base.spec;
    spec.cv_vertex = Potential::millivolts(-550.0);
    EXPECT_NE(BiosensorModel(spec).simulation_key(sample), reference);
  }
}

TEST(SimulationKey, MissesWhenTheSampleChanges) {
  const CatalogEntry base = try_entry("MWCNT/Nafion + GOD (this work)").value();
  const BiosensorModel model(base.spec);
  const chem::Sample sample =
      chem::calibration_sample("glucose", Concentration::milli_molar(0.5));
  const CacheKey reference = model.simulation_key(sample);

  {
    chem::Sample changed = sample;
    changed.set("glucose", Concentration::milli_molar(0.6));
    EXPECT_NE(model.simulation_key(changed), reference);
  }
  {
    chem::Sample changed = sample;
    changed.spike("ascorbic acid", Concentration::micro_molar(50.0));
    EXPECT_NE(model.simulation_key(changed), reference);
  }
  {
    chem::Sample changed = sample;
    changed.set_dissolved_oxygen(Concentration::micro_molar(120.0));
    EXPECT_NE(model.simulation_key(changed), reference);
  }
  {
    chem::Buffer acidic;
    acidic.ph = 6.8;
    chem::Sample changed(acidic);
    changed.set("glucose", Concentration::milli_molar(0.5));
    EXPECT_NE(model.simulation_key(changed), reference);
  }
}

// --- byte-identity of cached panel batches -------------------------

Platform small_platform() {
  Platform p;
  p.add_sensor(try_entry("MWCNT/Nafion + GOD (this work)").value());
  p.add_sensor(try_entry("MWCNT + CYP (cyclophosphamide)").value());
  return p;
}

ProtocolOptions quick_options() {
  ProtocolOptions o;
  o.blank_repeats = 8;
  o.replicates = 1;
  return o;
}

/// Bit-exact textual fingerprint (%.17g round-trips IEEE doubles).
std::string fingerprint(const std::vector<PanelReport>& reports) {
  std::string out;
  char cell[96];
  for (const PanelReport& report : reports) {
    for (const AssayResult& r : report.results) {
      std::snprintf(cell, sizeof(cell), "%s|%.17g|%.17g|%d|%d|%d;",
                    r.target.c_str(), r.response_a,
                    r.estimated.milli_molar(), r.within_linear_range ? 1 : 0,
                    r.above_lod ? 1 : 0, r.qc.accepted ? 1 : 0);
      out += cell;
    }
    out += '\n';
  }
  return out;
}

class SimCachePanels : public ::testing::Test {
 protected:
  void SetUp() override {
    platform_ = small_platform();
    Rng rng(2012);
    platform_.try_calibrate_all(rng, quick_options()).value();

    // Six distinct compositions, each presented twice — so even a cold
    // batch exercises cache hits, like repeated patients in a cohort.
    Rng levels(424242);
    for (std::size_t i = 0; i < 6; ++i) {
      chem::Sample s = chem::blank_sample();
      s.set("glucose", Concentration::milli_molar(levels.uniform(0.1, 0.9)));
      s.set("cyclophosphamide",
            Concentration::micro_molar(levels.uniform(20.0, 60.0)));
      samples_.push_back(s);
      samples_.push_back(std::move(s));
    }
  }

  Platform platform_;
  std::vector<chem::Sample> samples_;
};

TEST_F(SimCachePanels, CachedBatchesAreByteIdenticalAtOneAndEightWorkers) {
  PanelBatchOptions options;
  options.seed = 99;

  engine::Engine uncached;  // serial, no cache: the reference bytes
  const std::string reference =
      fingerprint(platform_.run_panel_batch(samples_, uncached, options)
                      .reports);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    engine::Engine cached(engine::EngineOptions{
        .workers = workers, .sim_cache_capacity = 1024});
    ASSERT_NE(cached.sim_cache(), nullptr);
    const auto run = platform_.run_panel_batch(samples_, cached, options);
    EXPECT_EQ(fingerprint(run.reports), reference)
        << "cached results diverged at " << workers << " workers";

    const engine::SimCacheStats stats = cached.sim_cache()->stats();
    EXPECT_GT(stats.hits, 0u) << "duplicate samples never hit the cache";
    EXPECT_GT(stats.misses, 0u);
    // The engine metrics mirror the cache counters.
    const engine::MetricsSnapshot snap = cached.snapshot();
    EXPECT_EQ(snap.cache_hits, stats.hits);
    EXPECT_EQ(snap.cache_misses, stats.misses);
  }
}

TEST_F(SimCachePanels, WarmRerunHitsEverySimulationAndMatchesColdBytes) {
  PanelBatchOptions options;
  options.seed = 7;
  engine::Engine cached(engine::EngineOptions{.sim_cache_capacity = 1024});

  const auto cold = platform_.run_panel_batch(samples_, cached, options);
  const std::uint64_t cold_misses = cached.sim_cache()->stats().misses;
  ASSERT_GT(cold_misses, 0u);

  const auto warm = platform_.run_panel_batch(samples_, cached, options);
  EXPECT_EQ(fingerprint(warm.reports), fingerprint(cold.reports));
  // Every simulation of the warm rerun was served from the cache.
  EXPECT_EQ(cached.sim_cache()->stats().misses, cold_misses);
}

TEST_F(SimCachePanels, TinyCacheEvictsButNeverChangesBytes) {
  PanelBatchOptions options;
  options.seed = 123;

  engine::Engine uncached;
  const std::string reference =
      fingerprint(platform_.run_panel_batch(samples_, uncached, options)
                      .reports);

  engine::Engine tiny(engine::EngineOptions{.sim_cache_capacity = 2});
  const auto run = platform_.run_panel_batch(samples_, tiny, options);
  EXPECT_EQ(fingerprint(run.reports), reference);
  EXPECT_GT(tiny.sim_cache()->stats().evictions, 0u);
}

}  // namespace
}  // namespace biosens::core
