// Tests for the cross-request operator-estimate cache: the EstimateCache
// container itself (counters, LRU eviction, version-keyed entries) and its
// integration into EstimationService (bit-identical hits, invalidation when
// a publish hot-swaps the model mid-stream).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/thread_pool.h"
#include "src/core/estimator.h"
#include "src/core/features.h"
#include "src/serving/estimate_cache.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/workload/runner.h"
#include "src/workload/schemas.h"
#include "src/workload/tpch_queries.h"

namespace resest {
namespace {

// ---------------------------------------------------------------------------
// FeatureVector hashing / equality (the cache's key primitives)
// ---------------------------------------------------------------------------

TEST(FeatureVectorHashTest, EqualVectorsHashEqual) {
  FeatureVector a{};
  a.fill(0.0);
  a[0] = 1.5;
  a[3] = -2.25;
  FeatureVector b = a;
  EXPECT_TRUE(FeatureVectorHashEqual(a, b));
  EXPECT_EQ(HashFeatureVector(a), HashFeatureVector(b));
}

TEST(FeatureVectorHashTest, DifferentVectorsHashDifferently) {
  FeatureVector a{};
  a.fill(0.0);
  FeatureVector b = a;
  b[5] = 1.0;
  EXPECT_FALSE(FeatureVectorHashEqual(a, b));
  EXPECT_NE(HashFeatureVector(a), HashFeatureVector(b));
}

TEST(FeatureVectorHashTest, BitwiseSemanticsForZeroAndNan) {
  FeatureVector pos{};
  pos.fill(0.0);
  FeatureVector neg = pos;
  neg[0] = -0.0;
  // -0.0 == +0.0 under operator==, but the bitwise notion keeps equality
  // consistent with the bit-pattern hash: they are distinct keys.
  EXPECT_FALSE(FeatureVectorHashEqual(pos, neg));
  EXPECT_NE(HashFeatureVector(pos), HashFeatureVector(neg));
  // NaN never compares == to itself, but identical NaN bits are one key.
  FeatureVector nan_a{};
  nan_a.fill(0.0);
  nan_a[1] = std::nan("");
  FeatureVector nan_b = nan_a;
  EXPECT_TRUE(FeatureVectorHashEqual(nan_a, nan_b));
  EXPECT_EQ(HashFeatureVector(nan_a), HashFeatureVector(nan_b));
}

// ---------------------------------------------------------------------------
// EstimateCache container semantics
// ---------------------------------------------------------------------------

EstimateCache::Key MakeKey(uint64_t version, double distinguishing_value) {
  EstimateCache::Key key;
  key.slot_version = version;
  key.op = OpType::kHashJoin;
  key.resource = Resource::kCpu;
  key.features.fill(0.0);
  key.features[0] = distinguishing_value;
  return key;
}

TEST(EstimateCacheTest, MissInsertHitCounters) {
  EstimateCache cache;
  double value = 0.0;
  EXPECT_FALSE(cache.Lookup(MakeKey(1, 10.0), &value));
  cache.Insert(MakeKey(1, 10.0), 42.5);
  ASSERT_TRUE(cache.Lookup(MakeKey(1, 10.0), &value));
  EXPECT_EQ(value, 42.5);

  const EstimateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(EstimateCacheTest, VersionIsPartOfTheKey) {
  EstimateCache cache;
  cache.Insert(MakeKey(1, 10.0), 1.0);
  double value = 0.0;
  // Same (op, resource, features) under a new model version: a miss.
  EXPECT_FALSE(cache.Lookup(MakeKey(2, 10.0), &value));
  cache.Insert(MakeKey(2, 10.0), 2.0);
  ASSERT_TRUE(cache.Lookup(MakeKey(1, 10.0), &value));
  EXPECT_EQ(value, 1.0);
  ASSERT_TRUE(cache.Lookup(MakeKey(2, 10.0), &value));
  EXPECT_EQ(value, 2.0);
}

TEST(EstimateCacheTest, EvictsLeastRecentlyUsedUnderBound) {
  EstimateCacheOptions options;
  options.capacity = 3;
  options.shards = 1;  // single shard so the bound is exact
  EstimateCache cache(options);
  cache.Insert(MakeKey(1, 1.0), 1.0);
  cache.Insert(MakeKey(1, 2.0), 2.0);
  cache.Insert(MakeKey(1, 3.0), 3.0);

  double value = 0.0;
  ASSERT_TRUE(cache.Lookup(MakeKey(1, 1.0), &value));  // promote key 1

  cache.Insert(MakeKey(1, 4.0), 4.0);  // bound exceeded: evict LRU (key 2)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_TRUE(cache.Lookup(MakeKey(1, 1.0), &value));
  EXPECT_FALSE(cache.Lookup(MakeKey(1, 2.0), &value));
  EXPECT_TRUE(cache.Lookup(MakeKey(1, 3.0), &value));
  EXPECT_TRUE(cache.Lookup(MakeKey(1, 4.0), &value));
}

TEST(EstimateCacheTest, SingleShardBreakdownMatchesAggregate) {
  EstimateCacheOptions options;
  options.shards = 1;
  EstimateCache cache(options);
  double value = 0.0;
  cache.Lookup(MakeKey(1, 1.0), &value);  // miss
  cache.Insert(MakeKey(1, 1.0), 1.0);
  cache.Lookup(MakeKey(1, 1.0), &value);  // hit

  const EstimateCacheStats stats = cache.stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].hits, stats.hits);
  EXPECT_EQ(stats.shards[0].misses, stats.misses);
  EXPECT_EQ(stats.shards[0].insertions, stats.insertions);
  EXPECT_EQ(stats.shards[0].evictions, stats.evictions);
  EXPECT_EQ(stats.shards[0].entries, stats.entries);
  EXPECT_DOUBLE_EQ(stats.shards[0].HitRate(), stats.HitRate());
}

TEST(EstimateCacheTest, PerShardCountersSumToAggregate) {
  EstimateCacheOptions options;
  options.shards = 4;
  EstimateCache cache(options);
  double value = 0.0;
  for (int i = 0; i < 64; ++i) {
    const auto key = MakeKey(1, static_cast<double>(i));
    cache.Lookup(key, &value);  // miss
    cache.Insert(key, static_cast<double>(i));
    cache.Lookup(key, &value);  // hit
  }

  const EstimateCacheStats stats = cache.stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  uint64_t hits = 0, misses = 0, insertions = 0, evictions = 0;
  size_t entries = 0, populated_shards = 0;
  for (const EstimateCacheShardStats& shard : stats.shards) {
    hits += shard.hits;
    misses += shard.misses;
    insertions += shard.insertions;
    evictions += shard.evictions;
    entries += shard.entries;
    if (shard.entries > 0) ++populated_shards;
  }
  EXPECT_EQ(hits, stats.hits);
  EXPECT_EQ(misses, stats.misses);
  EXPECT_EQ(insertions, stats.insertions);
  EXPECT_EQ(evictions, stats.evictions);
  EXPECT_EQ(entries, stats.entries);
  // 64 distinct feature vectors hash across shards: more than one shard
  // sees traffic (the point of the breakdown is spotting when they don't).
  EXPECT_GT(populated_shards, 1u);
}

TEST(EstimateCacheTest, SkewedKeyTrafficLandsOnOneShard) {
  EstimateCacheOptions options;
  options.shards = 8;
  EstimateCache cache(options);
  // A single hot key — the skewed-feature-distribution scenario the
  // per-shard counters exist to expose.
  cache.Insert(MakeKey(1, 42.0), 7.0);
  double value = 0.0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cache.Lookup(MakeKey(1, 42.0), &value));
  }

  const EstimateCacheStats stats = cache.stats();
  ASSERT_EQ(stats.shards.size(), 8u);
  size_t shards_with_hits = 0;
  uint64_t max_shard_hits = 0;
  for (const EstimateCacheShardStats& shard : stats.shards) {
    if (shard.hits > 0) ++shards_with_hits;
    max_shard_hits = std::max(max_shard_hits, shard.hits);
  }
  EXPECT_EQ(shards_with_hits, 1u);
  EXPECT_EQ(max_shard_hits, 100u);
  EXPECT_EQ(stats.hits, 100u);
}

TEST(EstimateCacheTest, DeadVersionEntriesCostNothingAfterASwap) {
  // Slot-version keying is the cache's only invalidation: entries of a
  // replaced version never hit and are never touched again, so they sink
  // below every live entry and the LRU bound evicts them first. A cache
  // that served version 1 must therefore answer a version-2 trace with the
  // same hits and misses, shard by shard, as a fresh cache fed that trace.
  EstimateCacheOptions options;
  options.capacity = 64;
  options.shards = 4;
  EstimateCache used(options);
  EstimateCache fresh(options);
  double value = 0.0;
  for (int i = 0; i < 4 * 64; ++i) {
    used.Insert(MakeKey(1, static_cast<double>(i)), 1.0);
    ASSERT_TRUE(used.Lookup(MakeKey(1, static_cast<double>(i)), &value));
  }
  const EstimateCacheStats before = used.stats();
  ASSERT_EQ(before.entries, used.capacity());

  // Version-2 trace, several times the capacity, over a key range 1.5x the
  // capacity: hits, misses and live-entry evictions all occur.
  std::mt19937_64 rng(11);
  for (int step = 0; step < 16 * 64; ++step) {
    const auto key = MakeKey(2, static_cast<double>(rng() % 96));
    for (EstimateCache* cache : {&used, &fresh}) {
      if (!cache->Lookup(key, &value)) cache->Insert(key, 2.0);
    }
  }

  const EstimateCacheStats after = used.stats();
  const EstimateCacheStats baseline = fresh.stats();
  ASSERT_EQ(after.shards.size(), baseline.shards.size());
  for (size_t s = 0; s < after.shards.size(); ++s) {
    EXPECT_EQ(after.shards[s].hits - before.shards[s].hits,
              baseline.shards[s].hits)
        << "shard " << s;
    EXPECT_EQ(after.shards[s].misses - before.shards[s].misses,
              baseline.shards[s].misses)
        << "shard " << s;
    EXPECT_EQ(after.shards[s].entries, baseline.shards[s].entries)
        << "shard " << s;
  }
  EXPECT_GT(baseline.hits, 0u);
  EXPECT_GT(baseline.misses, 0u);
  EXPECT_GT(baseline.evictions, 0u);
  // Every version-1 entry is gone: the bound reclaimed them all.
  for (int i = 0; i < 4 * 64; ++i) {
    EXPECT_FALSE(used.Lookup(MakeKey(1, static_cast<double>(i)), &value));
  }
}

// ---------------------------------------------------------------------------
// Service integration: one small trained model pair (the second model is
// deliberately different so a hot-swap visibly changes estimates).
// ---------------------------------------------------------------------------

class ServiceCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = GenerateDatabase(TpchSchema(), 0.5, 1.0, 42).release();
    Rng rng(7);
    auto queries = GenerateTpchWorkload(50, &rng, db_);
    workload_ = new std::vector<ExecutedQuery>(RunWorkload(db_, queries));
    TrainOptions options;
    options.mart.num_trees = 30;
    model_a_ = new ResourceEstimator(
        ResourceEstimator::Train(*workload_, options));
    options.mart.num_trees = 12;  // different model => different estimates
    model_b_ = new ResourceEstimator(
        ResourceEstimator::Train(*workload_, options));
  }
  static void TearDownTestSuite() {
    delete model_b_;
    model_b_ = nullptr;
    delete model_a_;
    model_a_ = nullptr;
    delete workload_;
    workload_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static std::shared_ptr<const ResourceEstimator> Shared(
      const ResourceEstimator* est) {
    return std::shared_ptr<const ResourceEstimator>(est, [](const auto*) {});
  }

  static std::vector<EstimateRequest> Requests(Resource resource) {
    std::vector<EstimateRequest> requests;
    for (const auto& eq : *workload_) {
      requests.push_back({&eq.plan, eq.database, resource});
    }
    return requests;
  }

  static Database* db_;
  static std::vector<ExecutedQuery>* workload_;
  static ResourceEstimator* model_a_;
  static ResourceEstimator* model_b_;
};

Database* ServiceCacheTest::db_ = nullptr;
std::vector<ExecutedQuery>* ServiceCacheTest::workload_ = nullptr;
ResourceEstimator* ServiceCacheTest::model_a_ = nullptr;
ResourceEstimator* ServiceCacheTest::model_b_ = nullptr;

TEST_F(ServiceCacheTest, HitsAreBitIdenticalToMissesAndSerial) {
  ModelRegistry registry;
  registry.Publish("default", Shared(model_a_));
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  const auto requests = Requests(Resource::kCpu);
  const auto cold = service.EstimateBatch(requests);  // all misses
  const ServiceStats after_cold = service.stats();
  EXPECT_GT(after_cold.cache_misses, 0u);

  const auto warm = service.EstimateBatch(requests);  // all hits
  const ServiceStats after_warm = service.stats();
  EXPECT_GT(after_warm.cache_hits, after_cold.cache_hits);
  // The repeat pass is served entirely from the cache: no new misses.
  EXPECT_EQ(after_warm.cache_misses, after_cold.cache_misses);

  ASSERT_EQ(cold.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(cold[i].ok());
    ASSERT_TRUE(warm[i].ok());
    const double serial = model_a_->EstimateQuery(
        *requests[i].plan, *requests[i].database, Resource::kCpu);
    EXPECT_EQ(cold[i].value, serial) << "cold request " << i;
    EXPECT_EQ(warm[i].value, serial) << "warm request " << i;
  }
}

TEST_F(ServiceCacheTest, PlanAndOperatorPayloadSharingARowStayCorrect) {
  // Identity dedup never merges a plan request with an operator request, so
  // one cold batch holding a plan and its first trained operator's feature
  // row predicts that row twice in one chunk sweep. Both answers must match
  // serial, and the second Insert must refresh the first's entry rather
  // than add one.
  ModelRegistry registry;
  registry.Publish("default", Shared(model_a_));
  ThreadPool pool(2);
  EstimationService service(&registry, &pool);

  const Resource resource = Resource::kCpu;
  const EstimateRequest plan_request = Requests(resource)[0];
  EstimateRequest op_request;
  bool found = false;
  ForEachPlanOperator(*plan_request.plan, [&](const PlanNode& node,
                                              const PlanNode* parent) {
    if (found || model_a_->ModelsFor(node.type, resource) == nullptr) return;
    op_request = EstimateRequest::ForOperator(
        node.type,
        ExtractFeatures(node, parent, *plan_request.database,
                        model_a_->mode()),
        resource);
    found = true;
  });
  ASSERT_TRUE(found) << "plan has no trained operator";

  const auto results = service.EstimateBatch({plan_request, op_request});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(results[0].value,
            model_a_->EstimateQuery(*plan_request.plan,
                                    *plan_request.database, resource));
  EXPECT_EQ(results[1].value,
            model_a_->EstimateFromFeatures(op_request.op, op_request.features,
                                           resource));
  const EstimateCacheStats cache = service.cache_stats();
  EXPECT_GT(cache.entries, 0u);
  EXPECT_EQ(cache.insertions, cache.entries);
}

TEST_F(ServiceCacheTest, DisabledCacheMatchesEnabledCache) {
  ModelRegistry registry;
  registry.Publish("default", Shared(model_a_));
  ThreadPool pool(4);
  ServiceOptions no_cache;
  no_cache.enable_cache = false;
  EstimationService cached(&registry, &pool);
  EstimationService uncached(&registry, &pool, no_cache);

  const auto requests = Requests(Resource::kIo);
  const auto with = cached.EstimateBatch(requests);
  const auto without = uncached.EstimateBatch(requests);
  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].value, without[i].value);
  }
  EXPECT_EQ(uncached.stats().cache_hits, 0u);
  EXPECT_EQ(uncached.stats().cache_misses, 0u);
}

TEST_F(ServiceCacheTest, EvictionUnderTinyBoundStaysCorrect) {
  ModelRegistry registry;
  registry.Publish("default", Shared(model_a_));
  ThreadPool pool(2);
  ServiceOptions options;
  options.cache_capacity = 8;  // far fewer slots than distinct operators
  options.cache_shards = 1;
  EstimationService service(&registry, &pool, options);

  const auto requests = Requests(Resource::kCpu);
  service.EstimateBatch(requests);
  service.EstimateBatch(requests);
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LE(stats.cache_entries, 8u);

  // Thrashing changes performance, never values.
  const auto results = service.EstimateBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].value,
              model_a_->EstimateQuery(*requests[i].plan, *requests[i].database,
                                      Resource::kCpu));
  }
}

TEST_F(ServiceCacheTest, PublishInvalidatesMidStream) {
  ModelRegistry registry;
  const uint64_t v1 = registry.Publish("default", Shared(model_a_));
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  const auto requests = Requests(Resource::kCpu);
  const auto before = service.EstimateBatch(requests);
  ASSERT_TRUE(before[0].ok());
  EXPECT_EQ(before[0].model_version, v1);

  // Hot-swap mid-stream: same requests must now be served by model B —
  // version-keyed entries from model A can never satisfy them.
  const uint64_t v2 = registry.Publish("default", Shared(model_b_));
  const ServiceStats at_swap = service.stats();
  const auto after = service.EstimateBatch(requests);
  const ServiceStats post = service.stats();
  EXPECT_GT(post.cache_misses, at_swap.cache_misses);

  bool any_changed = false;
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(after[i].ok());
    EXPECT_EQ(after[i].model_version, v2);
    const double serial_b = model_b_->EstimateQuery(
        *requests[i].plan, *requests[i].database, Resource::kCpu);
    EXPECT_EQ(after[i].value, serial_b) << "request " << i;
    if (after[i].value != before[i].value) any_changed = true;
  }
  // The two models genuinely differ, so a stale cache would be visible.
  EXPECT_TRUE(any_changed);

  // Roll back to model A: still correct (A's entries that survived the
  // swap hit again under their unchanged slot versions).
  ASSERT_TRUE(registry.Activate("default", v1));
  const auto rolled_back = service.EstimateBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(rolled_back[i].ok());
    EXPECT_EQ(rolled_back[i].value, before[i].value);
  }
}

TEST_F(ServiceCacheTest, PerShardBreakdownReachableThroughTheService) {
  ModelRegistry registry;
  registry.Publish("default", Shared(model_a_));
  ThreadPool pool(2);
  ServiceOptions options;
  options.cache_shards = 4;
  EstimationService service(&registry, &pool, options);

  service.EstimateBatch(Requests(Resource::kCpu));
  service.EstimateBatch(Requests(Resource::kCpu));

  // The live serving cache's shard breakdown (skew detection) must be
  // visible to operators, not just to unit tests holding a bare cache.
  const EstimateCacheStats cache_stats = service.cache_stats();
  ASSERT_EQ(cache_stats.shards.size(), 4u);
  uint64_t shard_hits = 0, shard_misses = 0;
  size_t shard_entries = 0;
  for (const EstimateCacheShardStats& shard : cache_stats.shards) {
    shard_hits += shard.hits;
    shard_misses += shard.misses;
    shard_entries += shard.entries;
  }
  EXPECT_EQ(shard_hits, cache_stats.hits);
  EXPECT_EQ(shard_misses, cache_stats.misses);
  EXPECT_EQ(shard_entries, cache_stats.entries);
  EXPECT_GT(cache_stats.hits, 0u);

  // And it agrees with the scalar totals ServiceStats reports.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, cache_stats.hits);
  EXPECT_EQ(stats.cache_misses, cache_stats.misses);
  EXPECT_EQ(stats.cache_entries, cache_stats.entries);

  // Disabled cache: empty breakdown, not a crash.
  ServiceOptions no_cache;
  no_cache.enable_cache = false;
  EstimationService uncached(&registry, &pool, no_cache);
  EXPECT_TRUE(uncached.cache_stats().shards.empty());
  EXPECT_EQ(uncached.cache_stats().hits, 0u);
}

TEST_F(ServiceCacheTest, ConcurrentBatchesSharingTheCacheStayCorrect) {
  ModelRegistry registry;
  registry.Publish("default", Shared(model_a_));
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  const auto requests = Requests(Resource::kCpu);
  std::vector<double> serial(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    serial[i] = model_a_->EstimateQuery(*requests[i].plan,
                                        *requests[i].database, Resource::kCpu);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&]() {
      for (int round = 0; round < 3; ++round) {
        const auto results = service.EstimateBatch(requests);
        for (size_t i = 0; i < results.size(); ++i) {
          if (!results[i].ok() || results[i].value != serial[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(service.stats().cache_hits, 0u);
}

}  // namespace
}  // namespace resest
