#include "engine/sim_cache.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "engine/metrics.hpp"
#include "obs/span.hpp"

namespace biosens::engine {

SimCache::SimCache(SimCacheOptions options, MetricsRegistry* metrics)
    : capacity_(std::max<std::size_t>(options.capacity, 1)),
      metrics_(metrics) {
  const std::size_t shard_count =
      std::clamp<std::size_t>(options.shards, 1, capacity_);
  // Ceil division: the shard capacities sum to >= capacity_, so a
  // pathological key distribution can never shrink the cache below its
  // configured size.
  per_shard_capacity_ = (capacity_ + shard_count - 1) / shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SimCache::ValuePtr SimCache::find(const CacheKey& key) {
  Shard& shard = shard_for(key);
  ValuePtr value;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      value = it->second->value;
    }
  }
  if (value) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->cache_hits.increment();
    obs::instant(Layer::kEngine, "sim-cache-hit");
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->cache_misses.increment();
    obs::instant(Layer::kEngine, "sim-cache-miss");
  }
  return value;
}

void SimCache::insert(const CacheKey& key, ValuePtr value) {
  require<SpecError>(static_cast<bool>(value),
                     "cannot cache a null simulation value");
  Shard& shard = shard_for(key);
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Replacement (same key recomputed): refresh value and recency.
      it->second->value = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(value)});
      shard.index.emplace(key, shard.lru.begin());
      while (shard.lru.size() > per_shard_capacity_) {
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
        ++evicted;
      }
    }
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->cache_evictions.increment(evicted);
  }
}

SimCacheStats SimCache::stats() const {
  SimCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    s.entries += shard->index.size();
  }
  return s;
}

void SimCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

}  // namespace biosens::engine
