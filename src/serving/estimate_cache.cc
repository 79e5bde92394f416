#include "src/serving/estimate_cache.h"

#include <algorithm>

namespace resest {

EstimateCache::EstimateCache(EstimateCacheOptions options) {
  const size_t num_shards = std::max<size_t>(1, options.shards);
  const size_t capacity = std::max<size_t>(num_shards, options.capacity);
  shard_capacity_ = (capacity + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

uint64_t EstimateCache::HashKey(const Key& k) {
  uint64_t h = HashFeatureVector(k.features);
  h ^= k.slot_version + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= (static_cast<uint64_t>(k.op) << 8 |
        static_cast<uint64_t>(k.resource)) +
       0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

bool EstimateCache::KeysEqual(const Key& a, const Key& b) {
  return a.slot_version == b.slot_version && a.op == b.op &&
         a.resource == b.resource &&
         FeatureVectorHashEqual(a.features, b.features);
}

EstimateCache::EntryList::iterator EstimateCache::FindLocked(
    Shard& shard, uint64_t hash, const Key& key) {
  auto [lo, hi] = shard.map.equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    if (KeysEqual(it->second->key, key)) return it->second;
  }
  return shard.lru.end();
}

void EstimateCache::EraseLocked(Shard& shard, EntryList::iterator node) {
  const uint64_t hash = HashKey(node->key);
  auto [lo, hi] = shard.map.equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == node) {
      shard.map.erase(it);
      break;
    }
  }
  shard.lru.erase(node);
}

bool EstimateCache::Lookup(const Key& key, double* value) {
  const uint64_t hash = HashKey(key);
  Shard& shard = *shards_[hash % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto node = FindLocked(shard, hash, key);
  if (node == shard.lru.end()) {
    ++shard.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, node);
  *value = node->value;
  ++shard.hits;
  return true;
}

void EstimateCache::Insert(const Key& key, double value) {
  const uint64_t hash = HashKey(key);
  Shard& shard = *shards_[hash % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto node = FindLocked(shard, hash, key);
  if (node != shard.lru.end()) {
    // Estimation is deterministic, so a refresh carries the same value;
    // still update in case two models ever race, and promote to front.
    node->value = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, node);
    return;
  }
  shard.lru.emplace_front(Entry{key, value});
  shard.map.emplace(hash, shard.lru.begin());
  ++shard.insertions;
  if (shard.map.size() > shard_capacity_) {
    EraseLocked(shard, std::prev(shard.lru.end()));
    ++shard.evictions;
  }
}

EstimateCacheStats EstimateCache::stats() const {
  EstimateCacheStats s;
  s.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    EstimateCacheShardStats slice;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      slice.hits = shard->hits;
      slice.misses = shard->misses;
      slice.insertions = shard->insertions;
      slice.evictions = shard->evictions;
      slice.entries = shard->map.size();
    }
    s.hits += slice.hits;
    s.misses += slice.misses;
    s.insertions += slice.insertions;
    s.evictions += slice.evictions;
    s.entries += slice.entries;
    s.shards.push_back(slice);
  }
  return s;
}

}  // namespace resest
