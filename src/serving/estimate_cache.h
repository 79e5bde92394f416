// Sharded, bounded, version-keyed memoization of per-operator estimates.
//
// The paper's deployment sits inside a query optimizer, where the same
// (operator, feature-vector) pair recurs across thousands of candidate
// plans in one optimization session. Model inference is deterministic, so
// the service memoizes it across requests under the key
//   (slot version, operator type, resource, feature vector)
// where the slot version is the registry version at which that (operator,
// resource) model slot last changed (ModelSnapshot::SlotVersion). The key
// is the cache's only invalidation: a publish that changes a slot stamps it
// with a new version, every stale entry of that slot stops matching, and
// the per-shard LRU bound reclaims the dead entries under insertion
// pressure. A dead entry is never touched again, so it only sinks to its
// shard's LRU tail. A delta publish leaves untouched slots' versions alone,
// so their entries keep hitting across the swap. Correctness rests on
// slot versions never being reused for other content within one registry
// (ModelRegistry mints each version once; PublishFromFile adopts a saved
// lineage only when it cannot collide).
//
// Entries hold the exact double produced by
// ResourceEstimator::EstimateFromFeatures, so a hit is bit-identical to
// recomputing. Feature-vector equality is bitwise (see
// FeatureVectorHashEqual): a spurious mismatch costs one miss, while a
// value-based match could alias distinct inputs.
//
// All methods are thread-safe; shards are independently locked so readers
// of different shards never contend.
#ifndef RESEST_SERVING_ESTIMATE_CACHE_H_
#define RESEST_SERVING_ESTIMATE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/features.h"
#include "src/engine/plan.h"

namespace resest {

struct EstimateCacheOptions {
  size_t capacity = 64 * 1024;  ///< Total entries across all shards.
  size_t shards = 16;           ///< Clamped to at least 1.
};

/// Hit fraction of a (hits, misses) counter pair; 0 when nothing was
/// counted. Shared by EstimateCacheStats and ServiceStats.
inline double CacheHitRate(uint64_t hits, uint64_t misses) {
  const uint64_t total = hits + misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

/// One shard's slice of the counters. Feature vectors are spread over
/// shards by hash, so a shard whose traffic dwarfs the others flags a
/// skewed feature distribution (a few hot operator keys) that the LRU
/// bound of that single shard then thrashes on.
struct EstimateCacheShardStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;  ///< Entries dropped by the shard's LRU bound.
  size_t entries = 0;      ///< Current size (point-in-time, not monotonic).

  double HitRate() const { return CacheHitRate(hits, misses); }
};

/// Monotonic counters plus the current entry count, totalled across
/// shards; `shards` holds the per-shard breakdown in shard order.
struct EstimateCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;  ///< Entries dropped by the LRU bound.
  size_t entries = 0;      ///< Current size (point-in-time, not monotonic).
  std::vector<EstimateCacheShardStats> shards;

  double HitRate() const { return CacheHitRate(hits, misses); }
};

/// Thread-safe sharded LRU map from (slot version, op, resource, features)
/// to a memoized per-operator estimate.
class EstimateCache {
 public:
  struct Key {
    uint64_t slot_version = 0;
    OpType op = OpType::kTableScan;
    Resource resource = Resource::kCpu;
    FeatureVector features{};
  };

  explicit EstimateCache(EstimateCacheOptions options = {});

  /// True (and *value set) on a hit; promotes the entry to most-recent.
  bool Lookup(const Key& key, double* value);

  /// Inserts or refreshes an entry, evicting the shard's least-recently-used
  /// entry when the shard is at its bound.
  void Insert(const Key& key, double value);

  EstimateCacheStats stats() const;
  size_t capacity() const { return shard_capacity_ * shards_.size(); }

 private:
  struct Entry {
    Key key;
    double value = 0.0;
  };
  using EntryList = std::list<Entry>;

  static uint64_t HashKey(const Key& k);
  static bool KeysEqual(const Key& a, const Key& b);

  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    EntryList lru;
    /// Keyed by the precomputed key hash (computed once per Lookup/Insert);
    /// hash collisions are resolved by KeysEqual against the list node, so
    /// each full Key is stored exactly once (in the LRU node).
    std::unordered_multimap<uint64_t, EntryList::iterator> map;
    // Counters live with the shard (guarded by `mu`, which Lookup/Insert
    // already hold) so stats can report the per-shard traffic breakdown.
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  /// The list iterator under (hash, key) in this shard, or lru.end().
  static EntryList::iterator FindLocked(Shard& shard, uint64_t hash,
                                        const Key& key);
  /// Unlinks `node` from the hash map, then erases it from the LRU. Caller
  /// holds the shard mutex and accounts the removal.
  static void EraseLocked(Shard& shard, EntryList::iterator node);

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_capacity_;
};

}  // namespace resest

#endif  // RESEST_SERVING_ESTIMATE_CACHE_H_
