// Proves the zero-allocation claim of the batched serving pipeline with an
// operator-new hook: once the per-worker arenas are warm, estimating a 4x
// larger batch must not perform more heap allocations than the smaller one —
// i.e. the steady-state cost per additional request/chunk is zero heap
// traffic. (Per-batch setup — the request copy, the result vector, the
// identity-dedup scan and its compaction map, the batch's one pool entry —
// allocates a small constant number of blocks; per-request and per-chunk
// scratch all comes from the thread-local arenas, which Reset() without
// freeing.) The bound is checked twice: on distinct requests, and on
// batches in which every request appears twice, so identity dedup compacts
// each batch to half its size before chunking.
//
// The WAL's write path is held to zero: once its frame buffer has grown, a
// batched WriteAheadLog::Append encodes, checksums and writes in place.
//
// The hook replaces the global operator new/delete for this test binary
// only. Under ASan/TSan the sanitizer runtime interposes allocation itself,
// so the hook is compiled out and the test reports itself skipped.
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <vector>

#include "gtest/gtest.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/storage/wal.h"
#include "src/training/incremental_trainer.h"
#include "src/workload/runner.h"
#include "src/workload/schemas.h"
#include "src/workload/tpch_queries.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RESEST_ALLOC_HOOK_DISABLED 1
#endif
#if !defined(RESEST_ALLOC_HOOK_DISABLED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RESEST_ALLOC_HOOK_DISABLED 1
#endif
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedAllocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size != 0 ? size : 1);
}

}  // namespace

#if !defined(RESEST_ALLOC_HOOK_DISABLED)
void* operator new(std::size_t size) {
  if (void* p = CountedAllocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAllocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocate(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif  // !RESEST_ALLOC_HOOK_DISABLED

namespace resest {
namespace {

template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocationTest, SteadyStateBatchAllocationsIndependentOfBatchSize) {
#if defined(RESEST_ALLOC_HOOK_DISABLED)
  GTEST_SKIP() << "operator-new hook disabled under sanitizers";
#else
  auto db = GenerateDatabase(TpchSchema(), 0.3, 1.0, 42);
  Rng rng(7);
  const auto train =
      RunWorkload(db.get(), GenerateTpchWorkload(60, &rng, db.get()));
  ThreadPool pool(2);
  TrainOptions options;
  RefitPolicy policy;
  IncrementalTrainer trainer(options, policy, &pool);
  const auto estimator = trainer.SeedAndTrain(train);

  // A trained (op, cpu) slot so the requests run real model sweeps, not
  // the constant fallback.
  OpType op = OpType::kTableScan;
  bool found = false;
  for (int candidate = 0; candidate < kNumOpTypes && !found; ++candidate) {
    if (estimator->ModelsFor(static_cast<OpType>(candidate), Resource::kCpu) !=
        nullptr) {
      op = static_cast<OpType>(candidate);
      found = true;
    }
  }
  ASSERT_TRUE(found) << "training produced no model sets";

  ModelRegistry registry;
  trainer.PublishBaseline(&registry, "default");
  ServiceOptions service_options;
  service_options.enable_cache = false;  // every term takes the sweep path
  service_options.max_batch_size = 1 << 20;
  EstimationService service(&registry, &pool, service_options);

  // Distinct operator-payload requests: identity dedup cannot collapse any
  // of them, so chunking and the grouped sweeps cover the full batch.
  Rng feature_rng(99);
  const size_t kLarge = 1024;
  std::vector<EstimateRequest> large;
  for (size_t i = 0; i < kLarge; ++i) {
    FeatureVector features{};
    for (auto& f : features) f = feature_rng.Uniform(1.0, 5000.0);
    large.push_back(
        EstimateRequest::ForOperator(op, features, Resource::kCpu));
  }
  const std::vector<EstimateRequest> small(large.begin(),
                                           large.begin() + kLarge / 4);

  // Warm-up: grows every worker's thread-local arena (and the submitter's)
  // to steady-state capacity and settles lazy pool/service state.
  for (int pass = 0; pass < 2; ++pass) {
    const auto warm = service.EstimateBatch(large);
    ASSERT_EQ(warm.size(), large.size());
    ASSERT_TRUE(warm.front().ok());
    (void)service.EstimateBatch(small);
  }

  // Every row twice, interleaved: row i's duplicate follows row i + 1.
  const auto doubled = [](const std::vector<EstimateRequest>& rows) {
    std::vector<EstimateRequest> out;
    for (size_t i = 0; i < rows.size(); ++i) {
      out.push_back(rows[i]);
      if (i > 0) out.push_back(rows[i - 1]);
    }
    out.push_back(rows.back());
    return out;
  };
  const std::vector<EstimateRequest> small_doubled = doubled(small);
  const std::vector<EstimateRequest> large_doubled = doubled(large);
  const auto warm = service.EstimateBatch(large_doubled);
  ASSERT_EQ(warm.size(), large_doubled.size());
  ASSERT_TRUE(warm.back().ok());
  (void)service.EstimateBatch(small_doubled);

  // 4x the requests (and 4x the chunks) must not add heap traffic: the
  // per-chunk pipeline is arena-backed. The slack absorbs the per-batch
  // constant (vectors, promise state, the pool entry) varying a little
  // between runs; what it must never absorb is a per-request or per-chunk
  // allocation (which would add hundreds here).
  const auto expect_bounded = [&](const std::vector<EstimateRequest>& s,
                                  const std::vector<EstimateRequest>& l) {
    const uint64_t small_allocs =
        CountAllocations([&] { (void)service.EstimateBatch(s); });
    const uint64_t large_allocs =
        CountAllocations([&] { (void)service.EstimateBatch(l); });
    EXPECT_LE(large_allocs, small_allocs + 32)
        << "small batch (" << s.size() << " requests): " << small_allocs
        << " allocations, large batch (" << l.size()
        << " requests): " << large_allocs;
  };
  expect_bounded(small, large);
  expect_bounded(small_doubled, large_doubled);
#endif
}

TEST(AllocationTest, WarmWalBatchAppendAllocatesNothing) {
#if defined(RESEST_ALLOC_HOOK_DISABLED)
  GTEST_SKIP() << "operator-new hook disabled under sanitizers";
#else
  const auto dir =
      std::filesystem::temp_directory_path() / "resest_alloc_wal_batch";
  std::filesystem::remove_all(dir);
  std::vector<WalRecord> records(128);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].observation.op = static_cast<OpType>(i % kNumOpTypes);
    records[i].observation.label = 0.5 * static_cast<double>(i);
    records[i].observation.features[0] = static_cast<double>(i);
  }
  // The default 4 MiB segment: these ~90 KB never seal (a seal opens a
  // fresh file, which allocates its path and header).
  WriteAheadLog wal(dir.string(), "log");
  ASSERT_TRUE(wal.Open());
  ASSERT_TRUE(wal.Append(records.data(), 128));  // grows the frame buffer
  for (const size_t count : {size_t{32}, size_t{128}}) {
    bool ok = false;
    const uint64_t allocations =
        CountAllocations([&] { ok = wal.Append(records.data(), count); });
    EXPECT_TRUE(ok);
    EXPECT_EQ(allocations, 0u) << "warm append of " << count << " records";
  }
  EXPECT_EQ(wal.stats().records_appended, 128u + 32u + 128u);
  EXPECT_EQ(wal.stats().segments_sealed, 0u);
  std::filesystem::remove_all(dir);
#endif
}

}  // namespace
}  // namespace resest
