// Tests for src/serving: thread pool semantics, registry versioning and
// hot-swap under concurrent readers, and the estimation service — blocking
// and async submission — including the core contract that pooled batched
// results are bit-identical to the serial ResourceEstimator path.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/loop_pass.h"
#include "src/common/thread_pool.h"
#include "src/serving/batch_coalescer.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/training/incremental_trainer.h"
#include "src/workload/runner.h"
#include "src/workload/schemas.h"
#include "src/workload/tpch_queries.h"

namespace resest {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&count, i]() {
      count.fetch_add(1);
      return i;
    }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i);
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitBlocksUntilIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&done]() { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 16);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&done]() { done.fetch_add(1); });
    }
  }  // ~ThreadPool must run every queued task before joining.
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, LanesDrainInStrictPriorityOrderFifoWithinLane) {
  ThreadPool pool(1);
  // Park the only worker so every subsequent Submit queues; the drain order
  // after release is then exactly the scheduler's choice.
  std::promise<void> gate_entered;
  std::promise<void> gate_release;
  std::shared_future<void> release = gate_release.get_future().share();
  pool.Submit([&gate_entered, release]() {
    gate_entered.set_value();
    release.wait();
  });
  gate_entered.get_future().wait();

  std::mutex mu;
  std::vector<int> order;
  auto record = [&mu, &order](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  pool.Submit(TaskPriority::kBulk, [&record]() { record(100); });
  pool.Submit(TaskPriority::kNormal, [&record]() { record(10); });
  pool.Submit(TaskPriority::kUrgent, [&record]() { record(1); });
  pool.Submit(TaskPriority::kUrgent, [&record]() { record(2); });
  pool.Submit(TaskPriority::kBulk, [&record]() { record(101); });
  pool.Submit(TaskPriority::kNormal, [&record]() { record(11); });

  EXPECT_EQ(pool.QueueDepth(), 6u);
  EXPECT_EQ(pool.QueueDepth(TaskPriority::kUrgent), 2u);
  EXPECT_EQ(pool.QueueDepth(TaskPriority::kNormal), 2u);
  EXPECT_EQ(pool.QueueDepth(TaskPriority::kBulk), 2u);

  gate_release.set_value();
  pool.Wait();
  // All urgent before all normal before all bulk; submission order within
  // each lane.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 11, 100, 101}));
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPoolTest, DefaultSubmitLandsOnTheNormalLane) {
  ThreadPool pool(1);
  std::promise<void> gate_entered;
  std::promise<void> gate_release;
  std::shared_future<void> release = gate_release.get_future().share();
  pool.Submit(TaskPriority::kUrgent, [&gate_entered, release]() {
    gate_entered.set_value();
    release.wait();
  });
  gate_entered.get_future().wait();
  auto f = pool.Submit([]() { return 3; });
  EXPECT_EQ(pool.QueueDepth(TaskPriority::kNormal), 1u);
  EXPECT_EQ(pool.QueueDepth(TaskPriority::kUrgent), 0u);
  gate_release.set_value();
  EXPECT_EQ(f.get(), 3);
}

TEST(ThreadPoolTest, DestructorDrainsAllLanes) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 8; ++i) {
      pool.Submit(TaskPriority::kBulk, [&done]() { done.fetch_add(1); });
      pool.Submit(TaskPriority::kUrgent, [&done]() { done.fetch_add(1); });
      pool.Submit(TaskPriority::kNormal, [&done]() { done.fetch_add(1); });
    }
  }  // ~ThreadPool must run every queued task on every lane before joining.
  EXPECT_EQ(done.load(), 24);
}

TEST(ThreadPoolTest, SeveralWorkersStepOneEntryConcurrently) {
  ThreadPool pool(4);
  // The first step waits for a second one to start: only a second worker
  // stepping the same entry can let it return.
  std::promise<void> second_started;
  std::shared_future<void> second = second_started.get_future().share();
  std::atomic<int> calls{0};
  std::atomic<bool> overlapped{false};
  std::mutex mu;
  std::vector<std::thread::id> threads;
  pool.SubmitSteps(TaskPriority::kNormal, [&]() {
    const int k = calls.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(mu);
      threads.push_back(std::this_thread::get_id());
    }
    if (k == 0) {
      overlapped.store(second.wait_for(std::chrono::seconds(30)) ==
                       std::future_status::ready);
    } else if (k == 1) {
      second_started.set_value();
    }
    return k < 15;
  });
  pool.Wait();
  EXPECT_TRUE(overlapped.load());
  EXPECT_GE(calls.load(), 16);
  std::sort(threads.begin(), threads.end());
  EXPECT_GE(std::unique(threads.begin(), threads.end()) - threads.begin(), 2);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPoolTest, SteppableEntryIsPoppedExactlyOnceAfterFalse) {
  // S's first step is still running when a second worker's step returns
  // false and pops S; the first step then returns false too, while T is at
  // the front of the lane. That late false must not pop T: T's second step
  // waits for a third, which only a worker that picks T again can make.
  std::promise<void> t_started_promise;
  std::shared_future<void> t_started = t_started_promise.get_future().share();
  std::promise<void> t_third_promise;
  std::shared_future<void> t_third = t_third_promise.get_future().share();
  std::atomic<int> s_calls{0};
  std::atomic<int> t_calls{0};
  std::atomic<int> s_destroyed{0};
  std::atomic<bool> t_rejoined{false};
  {
    ThreadPool pool(2);
    std::shared_ptr<void> s_guard(nullptr,
                                  [&s_destroyed](void*) { ++s_destroyed; });
    pool.SubmitSteps(TaskPriority::kNormal, [&, s_guard]() {
      if (s_calls.fetch_add(1) == 0) {
        t_started.wait_for(std::chrono::seconds(30));
      }
      return false;
    });
    s_guard.reset();
    pool.SubmitSteps(TaskPriority::kNormal, [&]() {
      const int k = t_calls.fetch_add(1);
      if (k == 0) t_started_promise.set_value();
      if (k == 1) {
        t_rejoined.store(t_third.wait_for(std::chrono::seconds(30)) ==
                         std::future_status::ready);
      }
      if (k == 2) t_third_promise.set_value();
      return k < 4;
    });
    pool.Wait();
    EXPECT_EQ(pool.QueueDepth(), 0u);
  }
  EXPECT_EQ(s_calls.load(), 2);
  EXPECT_EQ(s_destroyed.load(), 1);
  EXPECT_TRUE(t_rejoined.load()) << "a late false popped the next entry";
  EXPECT_GE(t_calls.load(), 5);
}

TEST(ThreadPoolTest, UrgentEntryRunsBetweenTwoStepsOfABulkEntry) {
  ThreadPool pool(1);
  std::vector<const char*> order;  // one worker: no lock needed
  int bulk_steps = 0;
  pool.SubmitSteps(TaskPriority::kBulk, [&]() {
    order.push_back("bulk");
    if (bulk_steps++ == 0) {
      pool.Submit(TaskPriority::kUrgent,
                  [&order]() { order.push_back("urgent"); });
      pool.SubmitSteps(TaskPriority::kNormal, [&order]() {
        order.push_back("normal");
        return false;
      });
    }
    return bulk_steps < 3;
  });
  pool.Wait();
  EXPECT_EQ(order, (std::vector<const char*>{"bulk", "urgent", "normal",
                                             "bulk", "bulk"}));
}

TEST(ThreadPoolTest, WaitAndDestructorDrainSteppableEntries) {
  constexpr int kSteps = 100;
  std::atomic<int> done{0};
  const auto step = [&done]() {
    // Calls after the entry's first false do no work.
    int n = done.load();
    while (n < kSteps && !done.compare_exchange_weak(n, n + 1)) {
    }
    return n + 1 < kSteps;
  };
  {
    ThreadPool pool(2);
    pool.SubmitSteps(TaskPriority::kBulk, step);
    pool.Wait();
    EXPECT_EQ(done.load(), kSteps);
    EXPECT_EQ(pool.QueueDepth(), 0u);
    done.store(0);
    pool.SubmitSteps(TaskPriority::kBulk, step);
    pool.SubmitSteps(TaskPriority::kNormal, []() { return false; });
  }  // ~ThreadPool steps every queued entry to its end before joining.
  EXPECT_EQ(done.load(), kSteps);
}

// ---------------------------------------------------------------------------
// Shared serving fixture: one small trained estimator + workload.
// ---------------------------------------------------------------------------

class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = GenerateDatabase(TpchSchema(), 0.6, 1.0, 42).release();
    Rng rng(7);
    auto queries = GenerateTpchWorkload(70, &rng, db_);
    workload_ = new std::vector<ExecutedQuery>(RunWorkload(db_, queries));
    TrainOptions options;
    options.mart.num_trees = 40;  // small models keep the suite fast
    estimator_ = new ResourceEstimator(
        ResourceEstimator::Train(*workload_, options));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
    delete workload_;
    workload_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static std::shared_ptr<const ResourceEstimator> SharedEstimator() {
    // Non-owning alias: the fixture owns the estimator for the whole suite.
    return std::shared_ptr<const ResourceEstimator>(estimator_,
                                                    [](const auto*) {});
  }

  static std::vector<EstimateRequest> QueueRequests(Resource resource) {
    std::vector<EstimateRequest> requests;
    for (const auto& eq : *workload_) {
      requests.push_back({&eq.plan, eq.database, resource});
    }
    return requests;
  }

  static Database* db_;
  static std::vector<ExecutedQuery>* workload_;
  static ResourceEstimator* estimator_;
};

Database* ServingTest::db_ = nullptr;
std::vector<ExecutedQuery>* ServingTest::workload_ = nullptr;
ResourceEstimator* ServingTest::estimator_ = nullptr;

/// Callback SubmitBatch awaited on a future. Unlike EstimateBatch, the
/// caller drains none of the batch's chunks, so a batch above
/// kInlineBatchMaxItems stays pool-bound.
std::future<std::vector<EstimateResult>> SubmitToFuture(
    const EstimationService& service, std::vector<EstimateRequest> requests,
    const SubmitOptions& options = {}) {
  auto promise =
      std::make_shared<std::promise<std::vector<EstimateResult>>>();
  std::future<std::vector<EstimateResult>> future = promise->get_future();
  service.SubmitBatch(
      std::move(requests),
      [promise](std::vector<EstimateResult> results) {
        promise->set_value(std::move(results));
      },
      options);
  return future;
}

// ---------------------------------------------------------------------------
// ModelRegistry
// ---------------------------------------------------------------------------

TEST_F(ServingTest, RegistryPublishGetRoundTrip) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.Get("m"));
  const uint64_t v1 = registry.Publish("m", SharedEstimator());
  EXPECT_GT(v1, 0u);
  ModelSnapshot snap = registry.Get("m");
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap.version, v1);
  EXPECT_EQ(snap.estimator.get(), estimator_);
}

TEST_F(ServingTest, RegistryVersioningAndRollback) {
  ModelRegistry registry;
  const uint64_t v1 = registry.Publish("m", SharedEstimator());
  const uint64_t v2 = registry.Publish("m", SharedEstimator());
  EXPECT_GT(v2, v1);
  EXPECT_EQ(registry.Get("m").version, v2);
  EXPECT_EQ(registry.Versions("m").size(), 2u);
  // Rollback to v1, then verify eviction keeps the active version pinned.
  ASSERT_TRUE(registry.Activate("m", v1));
  EXPECT_EQ(registry.Get("m").version, v1);
  EXPECT_FALSE(registry.Activate("m", 999999));
  registry.Remove("m");
  EXPECT_FALSE(registry.Get("m"));
}

TEST_F(ServingTest, RegistryEvictsOldVersionsButSnapshotsStayAlive) {
  ModelRegistry registry;
  registry.set_max_versions(2);
  auto v1_model = std::make_shared<const ResourceEstimator>(*estimator_);
  const uint64_t v1 = registry.Publish("m", v1_model);
  const ModelSnapshot held = registry.Get("m");  // in-flight reader of v1
  v1_model.reset();
  const uint64_t v2 = registry.Publish("m", SharedEstimator());
  const uint64_t v3 = registry.Publish("m", SharedEstimator());  // evicts v1
  EXPECT_FALSE(registry.GetVersion("m", v1));
  EXPECT_TRUE(registry.GetVersion("m", v2));
  EXPECT_EQ(registry.Get("m").version, v3);
  // The held snapshot outlives eviction: the estimator stays fully usable.
  const auto& eq = workload_->front();
  EXPECT_EQ(
      held.estimator->EstimateQuery(eq.plan, *eq.database, Resource::kCpu),
      estimator_->EstimateQuery(eq.plan, *eq.database, Resource::kCpu));
}

TEST_F(ServingTest, RegistrySerializedPublishRoundTrip) {
  ModelRegistry registry;
  const std::vector<uint8_t> bytes = estimator_->Serialize();
  const uint64_t v = registry.PublishSerialized("m", bytes);
  ASSERT_GT(v, 0u);
  // The deserialized model must reproduce the original's estimates exactly.
  const auto& eq = workload_->front();
  ModelSnapshot snap = registry.Get("m");
  EXPECT_EQ(
      snap.estimator->EstimateQuery(eq.plan, *eq.database, Resource::kCpu),
      estimator_->EstimateQuery(eq.plan, *eq.database, Resource::kCpu));
  // Corrupt input is rejected without disturbing the active version.
  std::vector<uint8_t> corrupt(bytes.begin(), bytes.begin() + 40);
  EXPECT_EQ(registry.PublishSerialized("m", corrupt), 0u);
  EXPECT_EQ(registry.Get("m").version, v);
}

TEST_F(ServingTest, RegistryHotSwapUnderConcurrentReaders) {
  ModelRegistry registry;
  registry.Publish("m", SharedEstimator());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  const auto& eq = workload_->front();
  const double expected =
      estimator_->EstimateQuery(eq.plan, *eq.database, Resource::kCpu);

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        ModelSnapshot snap = registry.Get("m");
        ASSERT_TRUE(snap);
        // Every retained snapshot must stay fully usable mid-swap.
        EXPECT_EQ(snap.estimator->EstimateQuery(eq.plan, *eq.database,
                                                Resource::kCpu),
                  expected);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Writer: publish new versions (triggering eviction) while readers spin.
  for (int i = 0; i < 50; ++i) {
    registry.Publish("m", SharedEstimator());
  }
  // Bounded wait: if a reader dies on an assertion, fail fast instead of
  // spinning until the ctest timeout.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (reads.load() < 200 && !::testing::Test::HasFailure() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_GE(reads.load(), 200u);
  EXPECT_GE(registry.Versions("m").size(), 1u);
}

// ---------------------------------------------------------------------------
// EstimationService
// ---------------------------------------------------------------------------

TEST_F(ServingTest, BatchedResultsBitIdenticalToSerial) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  // Repeated, interleaved plans on 3-request chunks: plan k is followed by
  // a repeat of plan k / 2, so duplicates sit between first occurrences,
  // identity dedup compacts the 24 requests to 12 across 4 chunks, and the
  // results are copied out to duplicates both before and after later
  // distinct requests.
  ServiceOptions small_chunks;
  small_chunks.chunk_size = 3;
  EstimationService dedup_service(&registry, &pool, small_chunks);

  for (Resource resource : {Resource::kCpu, Resource::kIo}) {
    const auto queue = QueueRequests(resource);
    ASSERT_GE(queue.size(), 12u);
    std::vector<EstimateRequest> repeated;
    for (size_t k = 0; k < 12; ++k) {
      repeated.push_back(queue[k]);
      repeated.push_back(queue[k / 2]);
    }
    const auto expect_serial =
        [resource](const EstimationService& svc,
                   const std::vector<EstimateRequest>& requests) {
          const auto results = svc.EstimateBatch(requests);
          ASSERT_EQ(results.size(), requests.size());
          for (size_t i = 0; i < requests.size(); ++i) {
            ASSERT_TRUE(results[i].ok());
            const double serial = estimator_->EstimateQuery(
                *requests[i].plan, *requests[i].database, resource);
            // Bit-identical, not approximately equal.
            EXPECT_EQ(results[i].value, serial) << "request " << i;
          }
        };
    expect_serial(service, queue);
    expect_serial(dedup_service, repeated);
  }
}

TEST_F(ServingTest, ConcurrentCallersSmokeTest) {
  // N caller threads x M requests each, all against one shared service; every
  // result must equal the serial estimate (shared read path is totally const).
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  const auto requests = QueueRequests(Resource::kCpu);
  std::vector<double> serial(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    serial[i] = estimator_->EstimateQuery(
        *requests[i].plan, *requests[i].database, Resource::kCpu);
  }

  constexpr int kCallers = 4;
  std::vector<std::thread> callers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t]() {
      for (int round = 0; round < 3; ++round) {
        if ((t + round) % 2 == 0) {
          const auto results = service.EstimateBatch(requests);
          for (size_t i = 0; i < results.size(); ++i) {
            if (!results[i].ok() || results[i].value != serial[i]) {
              mismatches.fetch_add(1);
            }
          }
        } else {
          for (size_t i = 0; i < requests.size(); ++i) {
            const auto r = service.EstimateBatch({requests[i]})[0];
            if (!r.ok() || r.value != serial[i]) mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kCallers * 3 * requests.size());
  EXPECT_EQ(stats.errors, 0u);
}

TEST_F(ServingTest, EmptyBatchReturnsEmpty) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(2);
  EstimationService service(&registry, &pool);
  EXPECT_TRUE(service.EstimateBatch({}).empty());
  EXPECT_EQ(service.stats().batches, 0u);
}

TEST_F(ServingTest, OversizedBatchRejectedWhole) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(2);
  ServiceOptions options;
  options.max_batch_size = 8;
  EstimationService service(&registry, &pool, options);

  std::vector<EstimateRequest> requests(9, QueueRequests(Resource::kCpu)[0]);
  const auto results = service.EstimateBatch(requests);
  ASSERT_EQ(results.size(), 9u);
  for (const auto& r : results) {
    EXPECT_EQ(r.status, EstimateStatus::kBatchTooLarge);
  }
  EXPECT_EQ(service.stats().rejected_batches, 1u);
  EXPECT_EQ(service.stats().requests, 0u);
}

TEST_F(ServingTest, MissingModelAndInvalidRequest) {
  ModelRegistry registry;
  ThreadPool pool(2);
  EstimationService service(&registry, &pool);

  EstimateRequest req = QueueRequests(Resource::kCpu)[0];
  EXPECT_EQ(service.EstimateBatch({req})[0].status,
            EstimateStatus::kModelNotFound);

  registry.Publish("default", SharedEstimator());
  EstimateRequest null_plan = req;
  null_plan.plan = nullptr;
  EXPECT_EQ(service.EstimateBatch({null_plan})[0].status,
            EstimateStatus::kInvalidRequest);
  // A batch mixing valid and invalid requests fails only the invalid slots.
  const auto results = service.EstimateBatch({req, null_plan, req});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status, EstimateStatus::kInvalidRequest);
  EXPECT_TRUE(results[2].ok());
}

TEST_F(ServingTest, BatchServedFromSingleSnapshotDuringHotSwap) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  const auto requests = QueueRequests(Resource::kCpu);
  std::atomic<bool> stop{false};
  std::thread publisher([&]() {
    while (!stop.load()) registry.Publish("default", SharedEstimator());
  });
  for (int round = 0; round < 5; ++round) {
    const auto results = service.EstimateBatch(requests);
    ASSERT_FALSE(results.empty());
    const uint64_t version = results[0].model_version;
    for (const auto& r : results) {
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.model_version, version);  // never split across versions
    }
  }
  stop.store(true);
  publisher.join();
}

// ---------------------------------------------------------------------------
// Async submission (callback SubmitBatch)
// ---------------------------------------------------------------------------

TEST_F(ServingTest, SubmitBatchBitIdenticalToSerial) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  const auto requests = QueueRequests(Resource::kCpu);
  const auto results = SubmitToFuture(service, requests).get();
  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].value,
              estimator_->EstimateQuery(*requests[i].plan,
                                        *requests[i].database, Resource::kCpu))
        << "request " << i;
  }
}

TEST_F(ServingTest, NestedBlockingBatchFromPoolTaskDoesNotDeadlock) {
  // The old EstimateBatch parked the caller on futures its own pool had to
  // run, so calling it from a pool task deadlocked a saturated pool. The
  // completion-driven batch lets a blocking caller drain its own chunks:
  // even on a single-worker pool, the nested call below must finish.
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(1);
  EstimationService service(&registry, &pool);

  const auto requests = QueueRequests(Resource::kCpu);
  auto outer = pool.Submit([&service, &requests]() {
    return service.EstimateBatch(requests);  // nested blocking call
  });
  ASSERT_EQ(outer.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "nested EstimateBatch deadlocked the pool";
  const auto results = outer.get();
  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].value,
              estimator_->EstimateQuery(*requests[i].plan,
                                        *requests[i].database, Resource::kCpu));
  }
}

TEST_F(ServingTest, NestedSubmitBatchFromPoolTaskCompletes) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(2);
  EstimationService service(&registry, &pool);

  const auto requests = QueueRequests(Resource::kIo);
  // A pool task composes with the service without a second pool: it submits
  // a nested batch and returns a future instead of blocking.
  auto nested = pool.Submit([&service, &requests]() {
    return SubmitToFuture(service, requests);
  });
  auto results_future = nested.get();
  ASSERT_EQ(results_future.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  const auto results = results_future.get();
  ASSERT_EQ(results.size(), requests.size());
  for (const auto& r : results) EXPECT_TRUE(r.ok());
}

TEST_F(ServingTest, BatchCallbackDeliveredExactlyOnce) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(4);

  // The whole queue goes to the pool; a one-request batch runs inline.
  const auto queue = QueueRequests(Resource::kCpu);
  for (const auto& requests :
       {queue, std::vector<EstimateRequest>{queue[0]}}) {
    SCOPED_TRACE(requests.size());
    std::atomic<int> calls{0};
    std::vector<EstimateResult> delivered;
    {
      EstimationService service(&registry, &pool);
      service.SubmitBatch(requests, [&](std::vector<EstimateResult> results) {
        calls.fetch_add(1);
        delivered = std::move(results);
      });
      // ~EstimationService waits for the in-flight batch: the callback has
      // run exactly once by the time the destructor returns.
    }
    EXPECT_EQ(calls.load(), 1);
    ASSERT_EQ(delivered.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(delivered[i].ok());
      EXPECT_EQ(delivered[i].value,
                estimator_->EstimateQuery(*requests[i].plan,
                                          *requests[i].database,
                                          Resource::kCpu))
          << "request " << i;
    }
  }
}

TEST_F(ServingTest, DegenerateBatchesStillDeliverExactlyOnce) {
  ModelRegistry registry;  // deliberately empty: no model published
  ThreadPool pool(2);
  ServiceOptions options;
  options.max_batch_size = 4;
  EstimationService service(&registry, &pool, options);

  int empty_calls = 0;
  service.SubmitBatch({}, [&](std::vector<EstimateResult> results) {
    ++empty_calls;
    EXPECT_TRUE(results.empty());
  });
  EXPECT_EQ(empty_calls, 1);

  const EstimateRequest req = QueueRequests(Resource::kCpu)[0];
  int oversized_calls = 0;
  service.SubmitBatch(std::vector<EstimateRequest>(5, req),
                      [&](std::vector<EstimateResult> results) {
                        ++oversized_calls;
                        ASSERT_EQ(results.size(), 5u);
                        for (const auto& r : results) {
                          EXPECT_EQ(r.status, EstimateStatus::kBatchTooLarge);
                        }
                      });
  EXPECT_EQ(oversized_calls, 1);

  const auto results = SubmitToFuture(service, {req, req}).get();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.status, EstimateStatus::kModelNotFound);
  }
}

TEST_F(ServingTest, DrainOnDestroyCompletesInFlightBatches) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(4);

  const auto requests = QueueRequests(Resource::kCpu);
  std::vector<std::future<std::vector<EstimateResult>>> futures;
  {
    EstimationService service(&registry, &pool);
    for (int i = 0; i < 8; ++i) {
      futures.push_back(SubmitToFuture(service, requests));
    }
  }  // destructor must wait: every future is ready afterwards
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const auto results = f.get();
    ASSERT_EQ(results.size(), requests.size());
    for (const auto& r : results) EXPECT_TRUE(r.ok());
  }
}

TEST_F(ServingTest, ConcurrentMixedSubmittersAgreeWithSerial) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  const auto requests = QueueRequests(Resource::kCpu);
  std::vector<double> serial(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    serial[i] = estimator_->EstimateQuery(
        *requests[i].plan, *requests[i].database, Resource::kCpu);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t]() {
      for (int round = 0; round < 2; ++round) {
        std::vector<EstimateResult> results;
        if ((t + round) % 2 == 0) {
          results = SubmitToFuture(service, requests).get();
        } else {
          results = service.EstimateBatch(requests);
        }
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
}

// ---------------------------------------------------------------------------
// Priority lanes and deadlines through the batch pipeline
// ---------------------------------------------------------------------------

TEST_F(ServingTest, PrioritizedBatchesBitIdenticalToSerial) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  const auto requests = QueueRequests(Resource::kCpu);
  SubmitOptions urgent;
  urgent.priority = TaskPriority::kUrgent;
  SubmitOptions bulk_with_deadline;
  bulk_with_deadline.priority = TaskPriority::kBulk;
  bulk_with_deadline.deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(5);
  for (const SubmitOptions& opts : {urgent, bulk_with_deadline}) {
    const auto results = service.EstimateBatch(requests, opts);
    ASSERT_EQ(results.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(results[i].ok());
      EXPECT_EQ(results[i].value,
                estimator_->EstimateQuery(*requests[i].plan,
                                          *requests[i].database,
                                          Resource::kCpu))
          << "request " << i;
    }
  }
  EXPECT_EQ(service.stats().deadline_expired, 0u);
}

TEST_F(ServingTest, UrgentBatchOvertakesQueuedBulkBatch) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(1);
  EstimationService service(&registry, &pool);

  // Park the only worker so both batches are queued before anything runs.
  std::promise<void> gate_entered;
  std::promise<void> gate_release;
  std::shared_future<void> release = gate_release.get_future().share();
  pool.Submit([&gate_entered, release]() {
    gate_entered.set_value();
    release.wait();
  });
  gate_entered.get_future().wait();

  std::mutex mu;
  std::vector<const char*> completion_order;
  std::promise<void> bulk_done, urgent_done;
  const auto requests = QueueRequests(Resource::kCpu);
  SubmitOptions bulk;
  bulk.priority = TaskPriority::kBulk;
  service.SubmitBatch(requests,
                      [&](std::vector<EstimateResult>) {
                        std::lock_guard<std::mutex> lock(mu);
                        completion_order.push_back("bulk");
                        bulk_done.set_value();
                      },
                      bulk);
  SubmitOptions urgent;
  urgent.priority = TaskPriority::kUrgent;
  service.SubmitBatch(requests,
                      [&](std::vector<EstimateResult>) {
                        std::lock_guard<std::mutex> lock(mu);
                        completion_order.push_back("urgent");
                        urgent_done.set_value();
                      },
                      urgent);

  gate_release.set_value();
  urgent_done.get_future().wait();
  bulk_done.get_future().wait();
  // The urgent batch was submitted second but must complete first: the
  // worker steps the urgent pool lane's entry before touching bulk work.
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_STREQ(completion_order[0], "urgent");
  EXPECT_STREQ(completion_order[1], "bulk");
}

TEST_F(ServingTest, PoolBoundBatchOfAnotherServiceIsNotStarved) {
  // Two services share one single-worker pool, as tenants do under a
  // TenantManager. A's worker is inside A's first bulk batch, A's second is
  // queued, and B submits a normal batch. The worker picks again from the
  // pool's lanes after every chunk, so B runs before A's second batch
  // starts; it must not chain from one of A's batches into the next.
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(1);

  constexpr size_t kRequests = kInlineBatchMaxItems + 1;
  std::mutex mu;
  std::vector<std::string> events;
  const auto record = [&](const char* event) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(event);
  };
  std::promise<void> a_claimed;
  std::promise<void> resume_a;
  std::shared_future<void> resume = resume_a.get_future().share();
  std::atomic<int> a_claims{0};
  ServiceOptions a_options;
  a_options.chunk_size = 1;
  a_options.chunk_claim_hook = [&](TaskPriority, bool) {
    record("a");
    if (a_claims.fetch_add(1) == 0) {
      a_claimed.set_value();
      resume.wait();
    }
  };
  ServiceOptions b_options;
  b_options.chunk_size = 1;
  b_options.chunk_claim_hook = [&](TaskPriority, bool) { record("b"); };
  EstimationService service_a(&registry, &pool, a_options);
  EstimationService service_b(&registry, &pool, b_options);

  const auto all = QueueRequests(Resource::kCpu);
  ASSERT_GE(all.size(), 3 * kRequests);
  const auto slice = [&](size_t k) {
    return std::vector<EstimateRequest>(all.begin() + k * kRequests,
                                        all.begin() + (k + 1) * kRequests);
  };
  SubmitOptions bulk;
  bulk.priority = TaskPriority::kBulk;
  auto a_first = SubmitToFuture(service_a, slice(0), bulk);
  auto a_second = SubmitToFuture(service_a, slice(1), bulk);
  a_claimed.get_future().wait();  // the worker is inside A's first batch
  std::promise<void> b_done;
  service_b.SubmitBatch(slice(2), [&](std::vector<EstimateResult> results) {
    for (const auto& r : results) EXPECT_TRUE(r.ok());
    record("B done");
    b_done.set_value();
  });
  resume_a.set_value();
  b_done.get_future().wait();
  for (auto* f : {&a_first, &a_second}) {
    for (const auto& r : f->get()) EXPECT_TRUE(r.ok());
  }

  // A's claims 1..kRequests belong to its first batch (FIFO within the
  // bulk lane), so claim kRequests + 1 is the second batch's first chunk.
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(events.size(), 3 * kRequests + 1);
  size_t a_seen = 0;
  size_t b_done_at = events.size();
  size_t a_second_at = events.size();
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i] == "B done") b_done_at = i;
    if (events[i] == "a" && ++a_seen == kRequests + 1) a_second_at = i;
  }
  EXPECT_LT(b_done_at, a_second_at)
      << "A's second bulk batch started before B's batch completed";
  EXPECT_EQ(events[0], "a");
  EXPECT_EQ(events[1], "b") << "B waited past the chunk A was running";
}

TEST_F(ServingTest, AlreadyExpiredBatchReturnsDeadlineExceededUnexecuted) {
  ModelRegistry registry;
  const uint64_t version = registry.Publish("default", SharedEstimator());
  ThreadPool pool(2);
  EstimationService service(&registry, &pool);

  const auto requests = QueueRequests(Resource::kCpu);
  SubmitOptions opts;
  opts.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const auto results = service.EstimateBatch(requests, opts);
  ASSERT_EQ(results.size(), requests.size());
  for (const auto& r : results) {
    EXPECT_EQ(r.status, EstimateStatus::kDeadlineExceeded);
    // Same version stamp as a per-chunk expiry: which model *would* have
    // served the request, even though nothing executed.
    EXPECT_EQ(r.model_version, version);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);  // well-formed, accepted, then expired
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.deadline_expired, requests.size());
  // "Without executing" is observable: no estimation ever touched the cache.
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.ForPriority(TaskPriority::kNormal).expired, requests.size());
}

TEST_F(ServingTest, DeadlineExpiresUnstartedChunksButStartedChunksFinish) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(1);

  // One distinct request past the inline cap (so the batch goes to the
  // pool), one-request chunks, one worker: the pool's only worker steps the
  // batch's entry, claiming chunks 0..8 in order. The hook parks the worker
  // between the deadline check and the execution of chunk 0, the test lets
  // the deadline pass, and every later claim must then expire while chunk
  // 0 — already started — still completes with its normal value. Trailing
  // duplicates of requests 0 and 1 claim no chunk of their own (identity
  // dedup compacts them out) and copy their originals' outcomes.
  std::promise<void> first_chunk_claimed;
  std::promise<void> resume_first_chunk;
  std::shared_future<void> resume = resume_first_chunk.get_future().share();
  std::atomic<int> claims{0};
  std::mutex mu;
  std::vector<bool> expired_flags;
  ServiceOptions options;
  options.chunk_size = 1;
  options.chunk_claim_hook = [&](TaskPriority, bool expired) {
    {
      std::lock_guard<std::mutex> lock(mu);
      expired_flags.push_back(expired);
    }
    if (claims.fetch_add(1) == 0) {
      first_chunk_claimed.set_value();
      resume.wait();
    }
  };
  EstimationService service(&registry, &pool, options);

  constexpr size_t kRequests = kInlineBatchMaxItems + 1;
  const auto all = QueueRequests(Resource::kCpu);
  std::vector<EstimateRequest> requests(all.begin(), all.begin() + kRequests);
  requests.push_back(requests[0]);
  requests.push_back(requests[1]);
  SubmitOptions opts;
  opts.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  auto future = SubmitToFuture(service, requests, opts);

  first_chunk_claimed.get_future().wait();
  std::this_thread::sleep_until(opts.deadline + std::chrono::milliseconds(100));
  resume_first_chunk.set_value();

  const auto results = future.get();
  ASSERT_EQ(results.size(), kRequests + 2);
  ASSERT_TRUE(results[0].ok()) << EstimateStatusName(results[0].status);
  EXPECT_EQ(results[0].value,
            estimator_->EstimateQuery(*requests[0].plan, *requests[0].database,
                                      Resource::kCpu));
  for (size_t i = 1; i < kRequests; ++i) {
    EXPECT_EQ(results[i].status, EstimateStatus::kDeadlineExceeded)
        << "request " << i;
  }
  // The duplicate of the started request 0 is OK and bit-identical to it;
  // the duplicate of the expired request 1 expires too.
  ASSERT_TRUE(results[kRequests].ok());
  EXPECT_EQ(results[kRequests].value, results[0].value);
  EXPECT_EQ(results[kRequests + 1].status, EstimateStatus::kDeadlineExceeded);
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(expired_flags.size(), kRequests);
    EXPECT_FALSE(expired_flags[0]);
    for (size_t i = 1; i < kRequests; ++i) {
      EXPECT_TRUE(expired_flags[i]) << "chunk " << i;
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.deadline_expired, kRequests);
  EXPECT_EQ(stats.errors, 0u);
}

TEST_F(ServingTest, DeadlineStatusPropagatesThroughBlockingAndCallback) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(2);
  EstimationService service(&registry, &pool);

  const EstimateRequest req = QueueRequests(Resource::kCpu)[0];
  SubmitOptions expired;
  expired.priority = TaskPriority::kUrgent;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);

  const auto blocking = service.EstimateBatch({req}, expired);
  ASSERT_EQ(blocking.size(), 1u);
  EXPECT_EQ(blocking[0].status, EstimateStatus::kDeadlineExceeded);

  for (const auto& requests : {std::vector<EstimateRequest>{req},
                               std::vector<EstimateRequest>{req, req}}) {
    std::promise<std::vector<EstimateResult>> delivered;
    service.SubmitBatch(requests,
                        [&delivered](std::vector<EstimateResult> results) {
                          delivered.set_value(std::move(results));
                        },
                        expired);
    const auto results = delivered.get_future().get();
    ASSERT_EQ(results.size(), requests.size());
    for (const auto& r : results) {
      EXPECT_EQ(r.status, EstimateStatus::kDeadlineExceeded);
    }
  }
  EXPECT_EQ(service.stats().ForPriority(TaskPriority::kUrgent).expired, 4u);
}

TEST_F(ServingTest, PerPriorityStatsTrackBatchesRequestsAndLatency) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  const auto requests = QueueRequests(Resource::kCpu);
  SubmitOptions urgent;
  urgent.priority = TaskPriority::kUrgent;
  service.EstimateBatch(requests, urgent);
  SubmitOptions bulk;
  bulk.priority = TaskPriority::kBulk;
  service.EstimateBatch(requests, bulk);
  service.EstimateBatch(requests, bulk);

  const ServiceStats stats = service.stats();
  const PriorityLaneStats& u = stats.ForPriority(TaskPriority::kUrgent);
  EXPECT_EQ(u.batches, 1u);
  EXPECT_EQ(u.requests, requests.size());
  EXPECT_EQ(u.expired, 0u);
  EXPECT_GT(u.total_latency_ms, 0.0);
  EXPECT_GE(u.max_latency_ms, u.MeanLatencyMs());
  uint64_t histogram_total = 0;
  for (uint64_t count : u.latency_histogram) histogram_total += count;
  EXPECT_EQ(histogram_total, 1u);
  EXPECT_GT(u.ApproxLatencyPercentileMs(0.99), 0.0);

  const PriorityLaneStats& b = stats.ForPriority(TaskPriority::kBulk);
  EXPECT_EQ(b.batches, 2u);
  EXPECT_EQ(b.requests, 2 * requests.size());

  const PriorityLaneStats& n = stats.ForPriority(TaskPriority::kNormal);
  EXPECT_EQ(n.batches, 0u);
  EXPECT_EQ(n.requests, 0u);
  EXPECT_EQ(n.ApproxLatencyPercentileMs(0.99), 0.0);

  // The aggregate counters are the lane totals.
  EXPECT_EQ(stats.requests, u.requests + b.requests);
  EXPECT_EQ(stats.batches, u.batches + b.batches);
}

// ---------------------------------------------------------------------------
// Parallel training and the file-backed registry
// ---------------------------------------------------------------------------

TEST_F(ServingTest, ParallelTrainingBitIdenticalToSerial) {
  TrainOptions options;
  options.mart.num_trees = 15;  // identity is what matters, keep it cheap
  const ResourceEstimator serial =
      ResourceEstimator::Train(*workload_, options);
  options.train_threads = 4;
  const ResourceEstimator parallel =
      ResourceEstimator::Train(*workload_, options);
  // Byte-equal serialized stores: same models, same splits, same leaves.
  EXPECT_EQ(serial.Serialize(), parallel.Serialize());
}

TEST_F(ServingTest, FileBackedRegistryRestartRoundTrip) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "resest_registry_test";
  std::filesystem::remove_all(dir);

  ModelRegistry registry;
  registry.Publish("m", SharedEstimator());
  ASSERT_TRUE(registry.SaveActive("m", dir.string()));
  EXPECT_FALSE(registry.SaveActive("absent", dir.string()));

  // "Restart": a fresh registry loads the persisted store, no retraining.
  ModelRegistry restarted;
  const uint64_t v =
      restarted.PublishFromFile("m", (dir / "m.model").string());
  ASSERT_GT(v, 0u);
  EXPECT_EQ(restarted.PublishFromFile("m", (dir / "missing.model").string()),
            0u);
  EXPECT_EQ(restarted.Get("m").version, v);

  const auto& eq = workload_->front();
  EXPECT_EQ(restarted.Get("m").estimator->EstimateQuery(eq.plan, *eq.database,
                                                        Resource::kCpu),
            estimator_->EstimateQuery(eq.plan, *eq.database, Resource::kCpu));
  std::filesystem::remove_all(dir);
}

TEST_F(ServingTest, LoadedLineageNeverReusesAVersionThisRegistryMinted) {
  // The cache keys entries by slot version, so a registry must never name
  // two contents with one version. A lineage saved by another registry can
  // carry versions this one already minted; PublishFromFile must then
  // full-stamp the loaded model instead of adopting the saved lineage, or
  // the warm cache would answer with the other model's estimates.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "resest_lineage_guard_test";
  std::filesystem::remove_all(dir);
  TrainOptions options;
  options.mart.num_trees = 15;  // a model that estimates differently
  const auto model_y = std::make_shared<const ResourceEstimator>(
      ResourceEstimator::Train(*workload_, options));

  // Registry A mints v1..v3 for model Y and saves it: every saved slot
  // version is 3.
  ModelRegistry registry_a;
  for (int i = 0; i < 3; ++i) registry_a.Publish("default", model_y);
  ASSERT_EQ(registry_a.Get("default").version, 3u);
  ASSERT_TRUE(registry_a.SaveActive("default", dir.string()));

  // Registry B mints v1..v3 for model X and warms a service's cache under
  // slot version 3.
  ModelRegistry registry_b;
  for (int i = 0; i < 3; ++i) registry_b.Publish("default", SharedEstimator());
  ThreadPool pool(2);
  EstimationService service(&registry_b, &pool);
  std::vector<EstimateRequest> requests = QueueRequests(Resource::kCpu);
  const auto io_requests = QueueRequests(Resource::kIo);
  requests.insert(requests.end(), io_requests.begin(), io_requests.end());
  const auto warm = service.EstimateBatch(requests);
  ASSERT_GT(service.cache_stats().entries, 0u);

  const uint64_t loaded = registry_b.PublishFromFile(
      "default", (dir / "default.model").string());
  ASSERT_EQ(loaded, 4u);
  EXPECT_EQ(registry_b.Get("default").SlotVersion(OpType::kSort,
                                                  Resource::kCpu),
            loaded);

  const auto served = service.EstimateBatch(requests);
  ASSERT_EQ(served.size(), requests.size());
  bool any_changed = false;
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(served[i].ok());
    EXPECT_EQ(served[i].model_version, loaded);
    EXPECT_EQ(served[i].value,
              model_y->EstimateQuery(*requests[i].plan, *requests[i].database,
                                     requests[i].resource))
        << "request " << i;
    if (served[i].value != warm[i].value) any_changed = true;
  }
  // X and Y really differ, so a stale hit would be visible above.
  EXPECT_TRUE(any_changed);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Delta publish: incremental refits hot-swapped under slot-version keys
// ---------------------------------------------------------------------------

/// Unique (bitwise) feature vectors of one operator type across a workload
/// — the number of distinct cache keys that operator contributes per
/// resource.
size_t CountUniqueOperatorKeys(const std::vector<ExecutedQuery>& workload,
                               OpType op, FeatureMode mode) {
  std::vector<FeatureVector> unique;
  for (const auto& eq : workload) {
    VisitPlanOperators(
        eq.plan, [&](const PlanNode& node, const PlanNode* parent) {
          if (node.type != op) return;
          const FeatureVector v =
              ExtractFeatures(node, parent, *eq.database, mode);
          for (const auto& u : unique) {
            if (FeatureVectorHashEqual(u, v)) return;
          }
          unique.push_back(v);
        });
  }
  return unique.size();
}

TEST_F(ServingTest, DeltaPublishPreservesUntouchedEstimatesAndCacheEntries) {
  ModelRegistry registry;
  ThreadPool pool(4);
  TrainOptions options;
  options.mart.num_trees = 15;
  RefitPolicy policy;
  policy.min_new_rows = 8;
  policy.drift_threshold = 0.0;
  IncrementalTrainer trainer(options, policy, &pool);
  const auto base = trainer.SeedAndTrain(*workload_);
  const uint64_t v1 = trainer.PublishBaseline(&registry, "default");
  ASSERT_GT(v1, 0u);
  // The refit target must have a trained model, or there is nothing to
  // swap (TPC-H workloads sort, so this holds by construction).
  ASSERT_NE(base->ModelsFor(OpType::kSort, Resource::kCpu), nullptr);

  EstimationService service(&registry, &pool);
  const auto cpu_requests = QueueRequests(Resource::kCpu);
  const auto io_requests = QueueRequests(Resource::kIo);
  const auto cpu_before = service.EstimateBatch(cpu_requests);
  const auto io_before = service.EstimateBatch(io_requests);
  // Warm pass: every key is now cached.
  service.EstimateBatch(cpu_requests);
  service.EstimateBatch(io_requests);

  // Drifted sort feedback: only (kSort, kCpu) crosses the policy.
  {
    std::vector<std::pair<FeatureVector, double>> sort_rows;
    for (const auto& w : *workload_) {
      VisitPlanOperators(
          w.plan, [&](const PlanNode& node, const PlanNode* parent) {
            if (node.type == OpType::kSort) {
              sort_rows.emplace_back(
                  ExtractFeatures(node, parent, *w.database, base->mode()),
                  node.actual.cpu);
            }
          });
    }
    ASSERT_FALSE(sort_rows.empty());
    for (size_t i = 0; i < policy.min_new_rows; ++i) {
      const auto& [row, cpu] = sort_rows[i % sort_rows.size()];
      trainer.Append(OpType::kSort, Resource::kCpu, row, cpu * 1.5);
    }
  }
  const auto delta = trainer.RefitAndPublish(&registry, "default");
  ASSERT_TRUE(delta);
  ASSERT_EQ(delta.refitted,
            (std::vector<ModelSlotId>{{OpType::kSort, Resource::kCpu}}));
  EXPECT_GT(delta.version, v1);

  // The delta shares every untouched model set with its predecessor by
  // pointer; only the refitted slot was replaced.
  for (int op = 0; op < kNumOpTypes; ++op) {
    for (int r = 0; r < kNumResources; ++r) {
      const OpType o = static_cast<OpType>(op);
      const Resource res = static_cast<Resource>(r);
      if (o == OpType::kSort && res == Resource::kCpu) {
        EXPECT_NE(delta.estimator->ModelsFor(o, res), base->ModelsFor(o, res));
      } else {
        EXPECT_EQ(delta.estimator->ModelsFor(o, res), base->ModelsFor(o, res))
            << OpTypeName(o) << "/" << ResourceName(res);
      }
    }
  }

  // Untouched resource across the swap: every estimate bit-identical, and
  // served entirely from surviving cache entries — zero new misses, the hit
  // counter alone grows.
  const ServiceStats pre_io = service.stats();
  const auto io_after = service.EstimateBatch(io_requests);
  ASSERT_EQ(io_after.size(), io_before.size());
  for (size_t i = 0; i < io_after.size(); ++i) {
    ASSERT_TRUE(io_after[i].ok());
    EXPECT_EQ(io_after[i].model_version, delta.version);
    EXPECT_EQ(io_after[i].value, io_before[i].value) << "io request " << i;
  }
  const ServiceStats post_io = service.stats();
  EXPECT_EQ(post_io.cache_misses, pre_io.cache_misses);
  EXPECT_GT(post_io.cache_hits, pre_io.cache_hits);

  // CPU pass, serially (a one-request batch is one chunk, so the miss
  // accounting is exact): refitted sort keys miss exactly once, every other
  // operator's entries still hit.
  const size_t unique_sort_keys =
      CountUniqueOperatorKeys(*workload_, OpType::kSort, base->mode());
  ASSERT_GT(unique_sort_keys, 0u);
  const ServiceStats pre_cpu = service.stats();
  std::vector<EstimateResult> cpu_after;
  for (const auto& req : cpu_requests) {
    cpu_after.push_back(service.EstimateBatch({req})[0]);
  }
  const ServiceStats post_cpu = service.stats();
  EXPECT_EQ(post_cpu.cache_misses - pre_cpu.cache_misses, unique_sort_keys);

  for (const auto& req : cpu_requests) (void)service.EstimateBatch({req});
  EXPECT_EQ(service.stats().cache_misses, post_cpu.cache_misses)
      << "refitted-operator entries must miss exactly once";

  // Plans without a sort operator are bit-identical across the swap; all
  // plans match the delta estimator's direct (uncached) answer.
  for (size_t i = 0; i < cpu_requests.size(); ++i) {
    ASSERT_TRUE(cpu_after[i].ok());
    bool has_sort = false;
    (*workload_)[i].plan.root->Visit([&](const PlanNode* n) {
      if (n->type == OpType::kSort) has_sort = true;
    });
    if (!has_sort) {
      EXPECT_EQ(cpu_after[i].value, cpu_before[i].value) << "request " << i;
    }
    EXPECT_EQ(cpu_after[i].value,
              delta.estimator->EstimateQuery(*cpu_requests[i].plan,
                                             *cpu_requests[i].database,
                                             Resource::kCpu))
        << "request " << i;
  }
}

TEST_F(ServingTest, DeltaPublishLeavesCacheShardStatsUnchanged) {
  // A delta publish makes only the refitted slot's entries dead, by giving
  // that slot a new version; it drops nothing. Entries and evictions stay
  // where they were until traffic inserts under the new version, and the
  // per-shard entries still sum to the total.
  ModelRegistry registry;
  ThreadPool pool(2);
  TrainOptions options;
  options.mart.num_trees = 12;
  RefitPolicy policy;
  policy.min_new_rows = 4;
  policy.drift_threshold = 0.0;
  IncrementalTrainer trainer(options, policy, &pool);
  const auto base = trainer.SeedAndTrain(*workload_);
  trainer.PublishBaseline(&registry, "default");
  ASSERT_NE(base->ModelsFor(OpType::kSort, Resource::kCpu), nullptr);

  EstimationService service(&registry, &pool);
  service.EstimateBatch(QueueRequests(Resource::kCpu));
  service.EstimateBatch(QueueRequests(Resource::kIo));
  const EstimateCacheStats warm = service.cache_stats();
  ASSERT_GT(warm.entries, 0u);

  FeatureVector row{};
  row.fill(3.0);
  for (size_t i = 0; i < policy.min_new_rows; ++i) {
    row[0] = static_cast<double>(i);
    trainer.Append(OpType::kSort, Resource::kCpu, row, 9.0);
  }
  const auto delta = trainer.RefitAndPublish(&registry, "default");
  ASSERT_TRUE(delta);

  const EstimateCacheStats swapped = service.cache_stats();
  EXPECT_EQ(swapped.entries, warm.entries);
  EXPECT_EQ(swapped.evictions, warm.evictions);
  size_t shard_entries = 0;
  for (const EstimateCacheShardStats& shard : swapped.shards) {
    shard_entries += shard.entries;
  }
  EXPECT_EQ(shard_entries, swapped.entries);
}

TEST_F(ServingTest, TrafficRacingRefitServesOneOfTheTwoPublishedVersions) {
  // Continuous one-request EstimateBatch traffic racing RefitAffected() +
  // hot-swap on the shared pool (the refit rides kBulk under the serving
  // lanes): every response must be bit-identical to one of the two
  // published versions — no torn reads, no half-swapped models, cache hits
  // included.
  ModelRegistry registry;
  ThreadPool pool(4);
  TrainOptions options;
  options.mart.num_trees = 12;
  RefitPolicy policy;
  policy.min_new_rows = 1;
  policy.drift_threshold = 0.0;
  IncrementalTrainer trainer(options, policy, &pool);
  const auto base = trainer.SeedAndTrain(*workload_);
  const uint64_t v1 = trainer.PublishBaseline(&registry, "default");
  ASSERT_GT(v1, 0u);
  EstimationService service(&registry, &pool);

  const auto requests = QueueRequests(Resource::kCpu);
  std::vector<double> serial_v1(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    serial_v1[i] = base->EstimateQuery(*requests[i].plan,
                                       *requests[i].database, Resource::kCpu);
  }

  // Drifted feedback so the refit touches at least one slot.
  FeatureVector row{};
  row.fill(2.0);
  for (int i = 0; i < 4; ++i) {
    row[0] = static_cast<double>(i);
    trainer.Append(OpType::kSort, Resource::kCpu, row, 7.0 + i);
  }

  struct Observation {
    size_t idx;
    uint64_t version;
    double value;
    EstimateStatus status;
  };
  std::atomic<bool> stop{false};
  std::atomic<int> serving{0};
  std::mutex obs_mu;
  std::vector<Observation> observations;
  std::vector<std::thread> traffic;
  constexpr int kTrafficThreads = 3;
  for (int t = 0; t < kTrafficThreads; ++t) {
    traffic.emplace_back([&, t]() {
      size_t i = static_cast<size_t>(t);
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t idx = i++ % requests.size();
        const EstimateResult r = service.EstimateBatch({requests[idx]})[0];
        std::lock_guard<std::mutex> lock(obs_mu);
        observations.push_back({idx, r.model_version, r.value, r.status});
        if (first) serving.fetch_add(1);
        first = false;
      }
    });
  }
  // Start the refit only once every traffic thread has served a request:
  // on a busy host a new thread can take longer to get its first time
  // slice than the whole refit takes, and then nothing raced the swap.
  while (serving.load() < kTrafficThreads) std::this_thread::yield();

  const auto delta = trainer.RefitAndPublish(&registry, "default");
  ASSERT_TRUE(delta);
  const uint64_t v2 = delta.version;
  // Let some traffic observe the new version before stopping.
  for (size_t i = 0; i < 20; ++i) {
    (void)service.EstimateBatch({requests[i % requests.size()]});
  }
  stop.store(true);
  for (auto& t : traffic) t.join();

  std::vector<double> serial_v2(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    serial_v2[i] = delta.estimator->EstimateQuery(
        *requests[i].plan, *requests[i].database, Resource::kCpu);
  }
  ASSERT_FALSE(observations.empty());
  for (const Observation& obs : observations) {
    ASSERT_EQ(obs.status, EstimateStatus::kOk);
    if (obs.version == v1) {
      EXPECT_EQ(obs.value, serial_v1[obs.idx]) << "request " << obs.idx;
    } else {
      ASSERT_EQ(obs.version, v2) << "response from an unpublished version";
      EXPECT_EQ(obs.value, serial_v2[obs.idx]) << "request " << obs.idx;
    }
  }
  // After the swap settles, everything serves from the delta.
  const EstimateResult settled = service.EstimateBatch({requests[0]})[0];
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(settled.model_version, v2);
  EXPECT_EQ(settled.value, serial_v2[0]);
}

// ---------------------------------------------------------------------------
// BatchCoalescer: work-conserving flushes, driven deterministically by a
// pool whose only worker is parked on a gate task.
// ---------------------------------------------------------------------------

/// Parks a one-worker pool until Open() (or destruction, so a failed
/// assertion cannot leave the worker parked): batches submitted meanwhile
/// stay in flight.
class PoolGate {
 public:
  explicit PoolGate(ThreadPool* pool) {
    std::promise<void> entered;
    std::shared_future<void> open = open_.get_future().share();
    pool->Submit([&entered, open]() {
      entered.set_value();
      open.wait();
    });
    entered.get_future().wait();
  }
  ~PoolGate() {
    if (!opened_) Open();
  }
  void Open() {
    opened_ = true;
    open_.set_value();
  }

 private:
  std::promise<void> open_;
  bool opened_ = false;
};

/// Collects one submission's results; counts how often its callback ran.
struct Delivery {
  std::vector<EstimateResult> results;
  std::thread::id thread;
  std::atomic<int> calls{0};
  std::promise<void> done;

  BatchCallback Callback() {
    return [this](std::vector<EstimateResult> r) {
      results = std::move(r);
      thread = std::this_thread::get_id();
      if (calls.fetch_add(1) == 0) done.set_value();
    };
  }
};

TEST_F(ServingTest, CoalescerSendsRowsQueuedBehindRunningBatchAsOneBatch) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(1);
  EstimationService service(&registry, &pool);
  const auto all = QueueRequests(Resource::kCpu);
  ASSERT_GE(all.size(), 18u);
  BatchCoalescer coalescer(&service);
  PoolGate gate(&pool);
  // A is past the inline cap, so it goes to the pool; B and C together are
  // too.
  const std::vector<std::vector<EstimateRequest>> groups = {
      {all.begin(), all.begin() + 9},
      {all.begin() + 9, all.begin() + 13},
      {all.begin() + 13, all.begin() + 18}};
  ASSERT_GT(groups[0].size(), kInlineBatchMaxItems);
  Delivery deliveries[3];
  // A reaches an idle lane and is sent at once; it stays in flight behind
  // the gate, so B and C queue.
  coalescer.Submit(groups[0], {}, deliveries[0].Callback());
  coalescer.Submit(groups[1], {}, deliveries[1].Callback());
  coalescer.Submit(groups[2], {}, deliveries[2].Callback());
  CoalescerStats stats = coalescer.stats();
  EXPECT_EQ(stats.submissions, 3u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.flush_idle, 1u);

  // A's completion sends B and C together, on the worker that ran A.
  gate.Open();
  for (Delivery& d : deliveries) d.done.get_future().wait();
  stats = coalescer.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.flush_idle, 1u);
  EXPECT_EQ(stats.flush_chained, 1u);
  EXPECT_EQ(stats.coalesced_rows, 18u);
  EXPECT_EQ(stats.flush_window, 0u);
  EXPECT_EQ(service.stats().batches, 2u);

  // Every slice is bit-identical to the same rows estimated solo.
  for (size_t g = 0; g < groups.size(); ++g) {
    const auto solo = service.EstimateBatch(groups[g]);
    const auto& got = deliveries[g].results;
    ASSERT_EQ(got.size(), solo.size()) << "group " << g;
    for (size_t i = 0; i < solo.size(); ++i) {
      ASSERT_TRUE(got[i].ok()) << "group " << g << " row " << i;
      EXPECT_EQ(got[i].value, solo[i].value) << "group " << g << " row " << i;
      EXPECT_EQ(got[i].model_version, solo[i].model_version);
    }
    EXPECT_EQ(deliveries[g].calls.load(), 1);
  }
}

TEST_F(ServingTest, CoalescerLoneSubmissionToIdleLaneFlushesAtOnce) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(2);
  EstimationService service(&registry, &pool);
  BatchCoalescer coalescer(&service);

  const auto all = QueueRequests(Resource::kIo);
  const std::vector<EstimateRequest> rows(all.begin(), all.begin() + 4);
  Delivery delivery;
  coalescer.Submit(rows, {}, delivery.Callback());
  // Sent on the calling thread before Submit returned: no timer involved.
  const CoalescerStats stats = coalescer.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.flush_idle, 1u);
  EXPECT_EQ(stats.flush_chained + stats.flush_full + stats.flush_urgent +
                stats.flush_drain + stats.flush_window,
            0u);
  delivery.done.get_future().wait();
  const auto solo = service.EstimateBatch(rows);
  ASSERT_EQ(delivery.results.size(), solo.size());
  for (size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(delivery.results[i].value, solo[i].value) << "row " << i;
  }
}

TEST_F(ServingTest, CoalescerDestroyedWithQueuedRowsFiresEveryCallbackOnce) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(1);
  EstimationService service(&registry, &pool);
  auto coalescer = std::make_unique<BatchCoalescer>(&service);
  PoolGate gate(&pool);

  // Groups past the inline cap, so A stays in flight behind the gate.
  constexpr size_t kRows = kInlineBatchMaxItems + 1;
  const auto all = QueueRequests(Resource::kCpu);
  ASSERT_GE(all.size(), 3 * kRows);
  Delivery deliveries[3];
  for (size_t g = 0; g < 3; ++g) {
    coalescer->Submit(
        std::vector<EstimateRequest>(all.begin() + g * kRows,
                                     all.begin() + (g + 1) * kRows),
        {}, deliveries[g].Callback());
  }
  EXPECT_EQ(coalescer->stats().batches, 1u);  // B and C are queued
  // The destructor drains the queued rows and blocks until every callback
  // has run, which needs the gate open.
  std::thread opener([&gate]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.Open();
  });
  coalescer.reset();
  for (const Delivery& d : deliveries) {
    EXPECT_EQ(d.calls.load(), 1);
    ASSERT_EQ(d.results.size(), kRows);
    for (const auto& r : d.results) EXPECT_TRUE(r.ok());
  }
  opener.join();
  pool.Wait();
  for (const Delivery& d : deliveries) EXPECT_EQ(d.calls.load(), 1);
}

TEST_F(ServingTest, CoalescerChainsInlineCompletionsWithoutStackGrowth) {
  // With no model published every batch completes inline, inside
  // SubmitBatch. Each callback submits the next request, which queues behind
  // the still-running batch and is chained by its completion: 10k hand-offs.
  // A chained batch taken by an inline completion goes to the pool, so the
  // submitting thread runs only its own first batch and no thread's stack
  // grows across the hand-offs.
  ModelRegistry registry;
  ThreadPool pool(1);
  EstimationService service(&registry, &pool);
  BatchCoalescer coalescer(&service);
  const EstimateRequest request = QueueRequests(Resource::kCpu)[0];

  constexpr int kSubmissions = 10000;
  const std::thread::id submitter = std::this_thread::get_id();
  int completed = 0;
  int not_found = 0;
  int on_submitter = 0;
  uintptr_t lowest = UINTPTR_MAX;
  uintptr_t highest = 0;
  std::promise<void> all_done;
  std::function<void()> submit_next;
  submit_next = [&]() {
    coalescer.Submit({request}, {}, [&](std::vector<EstimateResult> results) {
      if (std::this_thread::get_id() == submitter) {
        ++on_submitter;
      } else {
        const char marker = 0;
        const auto here = reinterpret_cast<uintptr_t>(&marker);
        lowest = std::min(lowest, here);
        highest = std::max(highest, here);
      }
      if (results.size() == 1 &&
          results[0].status == EstimateStatus::kModelNotFound) {
        ++not_found;
      }
      if (++completed < kSubmissions) {
        submit_next();
      } else {
        all_done.set_value();
      }
    });
  };
  submit_next();
  ASSERT_EQ(all_done.get_future().wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  pool.Wait();
  EXPECT_EQ(completed, kSubmissions);
  EXPECT_EQ(not_found, kSubmissions);
  EXPECT_EQ(on_submitter, 1) << "only the idle-lane flush runs on the caller";
  EXPECT_LT(highest - lowest, 64u * 1024u) << "stack grew across hand-offs";
  const CoalescerStats stats = coalescer.stats();
  EXPECT_EQ(stats.batches, static_cast<uint64_t>(kSubmissions));
  EXPECT_EQ(stats.flush_idle, 1u);
  EXPECT_EQ(stats.flush_chained, static_cast<uint64_t>(kSubmissions - 1));
}

TEST_F(ServingTest, CoalescerHoldsAnIdleLaneToTheEndOfTheLoopPass) {
  // Inside an event-loop pass, rows for an idle lane wait for the pass end,
  // so the requests one pass parsed leave as one batch. A lone small
  // request then runs on the loop thread; a small batch that merged several
  // requests goes to the pool, so a loaded loop keeps reading.
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(1);
  EstimationService service(&registry, &pool);
  BatchCoalescer coalescer(&service);
  const auto all = QueueRequests(Resource::kCpu);
  ASSERT_GE(all.size(), 12u);
  const auto group = [&](size_t begin) {
    return std::vector<EstimateRequest>(all.begin() + begin,
                                        all.begin() + begin + 4);
  };
  const auto expect_solo = [&](const Delivery& d, size_t begin) {
    const auto solo = service.EstimateBatch(group(begin));
    ASSERT_EQ(d.results.size(), solo.size());
    for (size_t i = 0; i < solo.size(); ++i) {
      const double got = d.results[i].value;
      const double want = solo[i].value;
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "row " << begin + i;
    }
  };
  PoolGate gate(&pool);  // the only worker parked

  // One 4-row request: held through the pass, run here when it closes.
  Delivery lone;
  {
    LoopPass pass;
    coalescer.Submit(group(0), {}, lone.Callback());
    EXPECT_EQ(coalescer.stats().batches, 0u);
    EXPECT_EQ(lone.calls.load(), 0);
  }
  CoalescerStats stats = coalescer.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.flush_idle, 1u);
  EXPECT_EQ(stats.coalesced_rows, 4u);
  EXPECT_EQ(lone.calls.load(), 1);
  EXPECT_EQ(lone.thread, std::this_thread::get_id());
  expect_solo(lone, 0);

  // Two 4-row requests in one pass: one 8-row batch, queued on the pool.
  Delivery merged[2];
  {
    LoopPass pass;
    for (size_t g = 0; g < 2; ++g) {
      coalescer.Submit(group(4 + 4 * g), {}, merged[g].Callback());
    }
  }
  stats = coalescer.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.flush_idle, 2u);
  EXPECT_EQ(stats.coalesced_rows, 12u);
  EXPECT_EQ(pool.QueueDepth(), 1u);
  for (const Delivery& d : merged) EXPECT_EQ(d.calls.load(), 0);
  gate.Open();
  for (size_t g = 0; g < 2; ++g) {
    merged[g].done.get_future().wait();
    EXPECT_NE(merged[g].thread, std::this_thread::get_id());
    expect_solo(merged[g], 4 + 4 * g);
  }
  pool.Wait();
  for (const Delivery& d : merged) EXPECT_EQ(d.calls.load(), 1);
}

TEST_F(ServingTest, CoalescerSendsRowsQueuedBehindAnInlineBatchToThePool) {
  // A small batch completes inside its submitter's call. Rows another caller
  // queued behind it meanwhile are chained to the pool, never run on the
  // submitting thread (on a server, that thread is an I/O loop).
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(1);
  EstimationService service(&registry, &pool);
  BatchCoalescer coalescer(&service);
  const auto all = QueueRequests(Resource::kIo);
  ASSERT_GE(all.size(), 8u);
  const std::vector<EstimateRequest> first_rows(all.begin(), all.begin() + 4);
  const std::vector<EstimateRequest> queued_rows(all.begin() + 4,
                                                 all.begin() + 8);
  PoolGate gate(&pool);

  Delivery first;
  Delivery queued;
  BatchCallback record_first = first.Callback();
  coalescer.Submit(first_rows, {}, [&](std::vector<EstimateResult> results) {
    // The batch is still in flight: these rows queue behind it.
    coalescer.Submit(queued_rows, {}, queued.Callback());
    record_first(std::move(results));
  });
  EXPECT_EQ(first.calls.load(), 1);
  EXPECT_EQ(first.thread, std::this_thread::get_id());
  EXPECT_EQ(queued.calls.load(), 0) << "chained batch ran on the submitter";
  EXPECT_EQ(pool.QueueDepth(), 1u);
  CoalescerStats stats = coalescer.stats();
  EXPECT_EQ(stats.flush_idle, 1u);
  EXPECT_EQ(stats.flush_chained, 1u);

  gate.Open();
  queued.done.get_future().wait();
  EXPECT_NE(queued.thread, std::this_thread::get_id());
  const auto solo = service.EstimateBatch(queued_rows);
  ASSERT_EQ(queued.results.size(), solo.size());
  for (size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(queued.results[i].value, solo[i].value) << "row " << i;
  }
  pool.Wait();
  EXPECT_EQ(queued.calls.load(), 1);
  stats = coalescer.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.coalesced_rows, 8u);
}

// ---------------------------------------------------------------------------
// Small batches: run to completion on the submitting thread.
// ---------------------------------------------------------------------------

/// `count` distinct operator-payload requests (operator types cycled from
/// `salt`, CPU and IO alternating).
std::vector<EstimateRequest> OperatorRequests(size_t count, int salt) {
  std::vector<EstimateRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    const int k = static_cast<int>(i) + salt;
    FeatureVector features{};
    for (size_t f = 0; f < features.size(); ++f) {
      features[f] = 1.0 + k * 3.7 + static_cast<double>(f) * 0.91;
    }
    requests.push_back(EstimateRequest::ForOperator(
        static_cast<OpType>(k % kNumOpTypes), features,
        i % 2 == 0 ? Resource::kCpu : Resource::kIo));
  }
  return requests;
}

TEST_F(ServingTest, SmallBatchesCompleteOnTheSubmittingThread) {
  // Declared before the service: a batch left pending by a failed
  // assertion still delivers into live objects while the service drains.
  std::deque<Delivery> deliveries;
  std::mutex mu;
  std::vector<std::thread::id> claim_threads;
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(1);
  ServiceOptions options;
  options.chunk_claim_hook = [&](TaskPriority, bool) {
    std::lock_guard<std::mutex> lock(mu);
    claim_threads.push_back(std::this_thread::get_id());
  };
  EstimationService service(&registry, &pool, options);
  // The only worker is parked: anything handed to the pool stays pending.
  PoolGate gate(&pool);
  const size_t depth = pool.QueueDepth();
  const std::thread::id self = std::this_thread::get_id();

  const auto expect_serial = [](const std::vector<EstimateRequest>& requests,
                                const std::vector<EstimateResult>& results) {
    ASSERT_EQ(results.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << "row " << i;
      const double serial = estimator_->EstimateFromFeatures(
          requests[i].op, requests[i].features, requests[i].resource);
      EXPECT_EQ(std::memcmp(&results[i].value, &serial, sizeof(double)), 0)
          << "row " << i;
    }
  };
  // Delivered before the submit call returned, on this thread.
  const auto expect_delivered_here = [&](const Delivery& d) {
    ASSERT_EQ(d.calls.load(), 1) << "not delivered before the call returned";
    EXPECT_EQ(d.thread, self);
  };

  int salt = 0;
  size_t batches = 0;
  for (const size_t rows : {size_t{1}, size_t{4}, kInlineBatchMaxItems}) {
    SCOPED_TRACE(rows);
    const auto by_callback = OperatorRequests(rows, salt += 16);
    Delivery& d = deliveries.emplace_back();
    service.SubmitBatch(by_callback, d.Callback());
    expect_delivered_here(d);
    expect_serial(by_callback, d.results);

    const auto blocking = OperatorRequests(rows, salt += 16);
    expect_serial(blocking, service.EstimateBatch(blocking));
    EXPECT_EQ(pool.QueueDepth(), depth);
    batches += 2;
  }

  // The cap counts work items after identity dedup: eight distinct rows
  // sent twice each are still one inline chunk.
  auto twice = OperatorRequests(kInlineBatchMaxItems, salt += 16);
  twice.insert(twice.end(), twice.begin(), twice.end());
  Delivery& deduped = deliveries.emplace_back();
  service.SubmitBatch(twice, deduped.Callback());
  expect_delivered_here(deduped);
  expect_serial(twice, deduped.results);
  ++batches;

  EXPECT_EQ(pool.QueueDepth(), depth);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(claim_threads.size(), batches);  // one chunk per batch
    for (const std::thread::id id : claim_threads) EXPECT_EQ(id, self);
  }

  // One item past the cap goes to the pool and waits for the gate.
  const auto large = OperatorRequests(kInlineBatchMaxItems + 1, salt += 16);
  auto pending = SubmitToFuture(service, large);
  EXPECT_EQ(pending.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  EXPECT_GT(pool.QueueDepth(), depth);
  gate.Open();
  expect_serial(large, pending.get());
  EXPECT_EQ(service.stats().batches, batches + 1);
}

}  // namespace
}  // namespace resest
