// Tests for src/serving: thread pool semantics, registry versioning and
// hot-swap under concurrent readers, and the estimation service — blocking
// and async submission — including the core contract that pooled batched
// results are bit-identical to the serial ResourceEstimator path.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
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

  for (Resource resource : {Resource::kCpu, Resource::kIo}) {
    const auto requests = QueueRequests(resource);
    const auto results = service.EstimateBatch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(results[i].ok());
      const double serial = estimator_->EstimateQuery(
          *requests[i].plan, *requests[i].database, resource);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(results[i].value, serial) << "request " << i;
    }
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
            const auto r = service.Estimate(requests[i]);
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
  EXPECT_EQ(service.Estimate(req).status, EstimateStatus::kModelNotFound);

  registry.Publish("default", SharedEstimator());
  EstimateRequest null_plan = req;
  null_plan.plan = nullptr;
  EXPECT_EQ(service.Estimate(null_plan).status,
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
// Async submission (SubmitBatch / SubmitEstimate)
// ---------------------------------------------------------------------------

TEST_F(ServingTest, SubmitBatchFutureBitIdenticalToSerial) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(4);
  EstimationService service(&registry, &pool);

  const auto requests = QueueRequests(Resource::kCpu);
  auto future = service.SubmitBatch(requests);
  const auto results = future.get();
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
  // a nested batch and returns the future instead of blocking.
  auto nested = pool.Submit([&service, &requests]() {
    return service.SubmitBatch(requests);
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

  const auto requests = QueueRequests(Resource::kCpu);
  std::atomic<int> calls{0};
  std::atomic<size_t> delivered_size{0};
  {
    EstimationService service(&registry, &pool);
    service.SubmitBatch(requests,
                        [&](std::vector<EstimateResult> results) {
                          calls.fetch_add(1);
                          delivered_size.store(results.size());
                        });
    // ~EstimationService waits for the in-flight batch: the callback has
    // run exactly once by the time the destructor returns.
  }
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(delivered_size.load(), requests.size());
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

  auto missing_model = service.SubmitBatch({req, req});
  const auto results = missing_model.get();
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
      futures.push_back(service.SubmitBatch(requests));
    }
  }  // destructor must wait: every future is ready afterwards
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const auto results = f.get();
    ASSERT_EQ(results.size(), requests.size());
    for (const auto& r : results) EXPECT_TRUE(r.ok());
  }
}

TEST_F(ServingTest, SubmitEstimateFutureAndCallback) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(2);
  EstimationService service(&registry, &pool);

  const EstimateRequest req = QueueRequests(Resource::kCpu)[0];
  const double expected =
      estimator_->EstimateQuery(*req.plan, *req.database, Resource::kCpu);

  auto future = service.SubmitEstimate(req);
  const EstimateResult via_future = future.get();
  ASSERT_TRUE(via_future.ok());
  EXPECT_EQ(via_future.value, expected);

  std::promise<EstimateResult> delivered;
  service.SubmitEstimate(req, [&delivered](EstimateResult r) {
    delivered.set_value(r);
  });
  const EstimateResult via_callback = delivered.get_future().get();
  ASSERT_TRUE(via_callback.ok());
  EXPECT_EQ(via_callback.value, expected);
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
          results = service.SubmitBatch(requests).get();
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
  // worker serves the urgent pool lane and the scheduler's urgent batch
  // lane before touching bulk work.
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_STREQ(completion_order[0], "urgent");
  EXPECT_STREQ(completion_order[1], "bulk");
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

  // Two requests, one-request chunks, one worker: exactly one helper claims
  // chunk 0 then chunk 1 in order. The hook parks the helper between the
  // deadline check and the execution of chunk 0, the test lets the deadline
  // pass, and chunk 1's claim must then expire while chunk 0 — already
  // started — still completes with its normal value.
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

  const auto all = QueueRequests(Resource::kCpu);
  const std::vector<EstimateRequest> requests(all.begin(), all.begin() + 2);
  SubmitOptions opts;
  opts.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  auto future = service.SubmitBatch(requests, opts);

  first_chunk_claimed.get_future().wait();
  std::this_thread::sleep_until(opts.deadline + std::chrono::milliseconds(100));
  resume_first_chunk.set_value();

  const auto results = future.get();
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok()) << EstimateStatusName(results[0].status);
  EXPECT_EQ(results[0].value,
            estimator_->EstimateQuery(*requests[0].plan, *requests[0].database,
                                      Resource::kCpu));
  EXPECT_EQ(results[1].status, EstimateStatus::kDeadlineExceeded);
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(expired_flags.size(), 2u);
    EXPECT_FALSE(expired_flags[0]);
    EXPECT_TRUE(expired_flags[1]);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST_F(ServingTest, DeadlineStatusPropagatesThroughFutureAndCallback) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(2);
  EstimationService service(&registry, &pool);

  const EstimateRequest req = QueueRequests(Resource::kCpu)[0];
  SubmitOptions expired;
  expired.priority = TaskPriority::kUrgent;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);

  EXPECT_EQ(service.SubmitEstimate(req, expired).get().status,
            EstimateStatus::kDeadlineExceeded);

  std::promise<EstimateResult> delivered;
  service.SubmitEstimate(
      req, [&delivered](EstimateResult r) { delivered.set_value(r); },
      expired);
  EXPECT_EQ(delivered.get_future().get().status,
            EstimateStatus::kDeadlineExceeded);

  std::promise<std::vector<EstimateResult>> batch_delivered;
  service.SubmitBatch({req, req},
                      [&batch_delivered](std::vector<EstimateResult> results) {
                        batch_delivered.set_value(std::move(results));
                      },
                      expired);
  const auto batch_results = batch_delivered.get_future().get();
  ASSERT_EQ(batch_results.size(), 2u);
  for (const auto& r : batch_results) {
    EXPECT_EQ(r.status, EstimateStatus::kDeadlineExceeded);
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

// ---------------------------------------------------------------------------
// Delta publish: incremental refits hot-swapped with scoped invalidation
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
  const auto delta = trainer.RefitAndPublish(&registry, "default", &service);
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

  // CPU pass, serially (Estimate() bypasses chunk parallelism, so the
  // miss accounting is exact): refitted sort keys miss exactly once, every
  // other operator's entries still hit.
  const size_t unique_sort_keys =
      CountUniqueOperatorKeys(*workload_, OpType::kSort, base->mode());
  ASSERT_GT(unique_sort_keys, 0u);
  const ServiceStats pre_cpu = service.stats();
  std::vector<EstimateResult> cpu_after;
  for (const auto& req : cpu_requests) {
    cpu_after.push_back(service.Estimate(req));
  }
  const ServiceStats post_cpu = service.stats();
  EXPECT_EQ(post_cpu.cache_misses - pre_cpu.cache_misses, unique_sort_keys);

  for (const auto& req : cpu_requests) (void)service.Estimate(req);
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

TEST_F(ServingTest, ScopedInvalidationReflectsInCacheShardStats) {
  // Regression for the whole-cache-drop on hot-swap: a delta publish must
  // leave the untouched operators' entries resident (per-shard entry counts
  // prove it) and account the dropped ones as `invalidated`, not LRU
  // evictions.
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
  EXPECT_EQ(warm.invalidated, 0u);

  FeatureVector row{};
  row.fill(3.0);
  for (size_t i = 0; i < policy.min_new_rows; ++i) {
    row[0] = static_cast<double>(i);
    trainer.Append(OpType::kSort, Resource::kCpu, row, 9.0);
  }
  const auto delta = trainer.RefitAndPublish(&registry, "default", &service);
  ASSERT_TRUE(delta);

  const size_t unique_sort_keys =
      CountUniqueOperatorKeys(*workload_, OpType::kSort, base->mode());
  const EstimateCacheStats swapped = service.cache_stats();
  // Only the refitted slot's entries were dropped — and they are accounted
  // as scoped invalidations, not LRU evictions.
  EXPECT_EQ(swapped.entries, warm.entries - unique_sort_keys);
  EXPECT_EQ(swapped.invalidated, unique_sort_keys);
  EXPECT_EQ(swapped.evictions, warm.evictions);
  uint64_t shard_invalidated = 0;
  size_t shard_entries = 0;
  for (const EstimateCacheShardStats& shard : swapped.shards) {
    shard_invalidated += shard.invalidated;
    shard_entries += shard.entries;
  }
  EXPECT_EQ(shard_invalidated, swapped.invalidated);
  EXPECT_EQ(shard_entries, swapped.entries);
}

TEST_F(ServingTest, TrafficRacingRefitServesOneOfTheTwoPublishedVersions) {
  // Continuous SubmitEstimate traffic racing RefitAffected() + hot-swap on
  // the shared pool (the refit rides kBulk under the serving lanes): every
  // response must be bit-identical to one of the two published versions —
  // no torn reads, no half-swapped models, cache hits included.
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
  std::mutex obs_mu;
  std::vector<Observation> observations;
  std::vector<std::thread> traffic;
  for (int t = 0; t < 3; ++t) {
    traffic.emplace_back([&, t]() {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t idx = i++ % requests.size();
        const EstimateResult r = service.SubmitEstimate(requests[idx]).get();
        std::lock_guard<std::mutex> lock(obs_mu);
        observations.push_back({idx, r.model_version, r.value, r.status});
      }
    });
  }

  const auto delta = trainer.RefitAndPublish(&registry, "default", &service);
  ASSERT_TRUE(delta);
  const uint64_t v2 = delta.version;
  // Let some traffic observe the new version before stopping.
  for (int i = 0; i < 20; ++i) {
    (void)service.SubmitEstimate(requests[static_cast<size_t>(i) %
                                          requests.size()])
        .get();
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
  const EstimateResult settled = service.Estimate(requests[0]);
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(settled.model_version, v2);
  EXPECT_EQ(settled.value, serial_v2[0]);
}

TEST_F(ServingTest, PipelineEstimatesMatchDirectCall) {
  ModelRegistry registry;
  registry.Publish("default", SharedEstimator());
  ThreadPool pool(2);
  EstimationService service(&registry, &pool);

  const auto& eq = workload_->front();
  const EstimateRequest req{&eq.plan, eq.database, Resource::kCpu};
  const auto via_service = service.EstimatePipelines(req);
  const auto direct =
      estimator_->EstimatePipelines(eq.plan, *eq.database, Resource::kCpu);
  ASSERT_EQ(via_service.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_service[i], direct[i]);
  }
}

// ---------------------------------------------------------------------------
// BatchCoalescer: work-conserving flushes, driven deterministically by a
// pool whose only worker is parked on a gate task.
// ---------------------------------------------------------------------------

/// Parks a one-worker pool until Open(): batches submitted meanwhile stay
/// in flight.
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
  void Open() { open_.set_value(); }

 private:
  std::promise<void> open_;
};

/// Collects one submission's results; counts how often its callback ran.
struct Delivery {
  std::vector<EstimateResult> results;
  std::atomic<int> calls{0};
  std::promise<void> done;

  BatchCallback Callback() {
    return [this](std::vector<EstimateResult> r) {
      results = std::move(r);
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
  ASSERT_GE(all.size(), 12u);
  BatchCoalescer coalescer(&service);
  PoolGate gate(&pool);
  const std::vector<std::vector<EstimateRequest>> groups = {
      {all.begin(), all.begin() + 3},
      {all.begin() + 3, all.begin() + 7},
      {all.begin() + 7, all.begin() + 12}};
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
  EXPECT_EQ(stats.coalesced_rows, 12u);
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

  const auto all = QueueRequests(Resource::kCpu);
  Delivery deliveries[3];
  for (size_t g = 0; g < 3; ++g) {
    coalescer->Submit(std::vector<EstimateRequest>(all.begin() + g * 2,
                                                   all.begin() + g * 2 + 2),
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
    ASSERT_EQ(d.results.size(), 2u);
    for (const auto& r : d.results) EXPECT_TRUE(r.ok());
  }
  opener.join();
  pool.Wait();
  for (const Delivery& d : deliveries) EXPECT_EQ(d.calls.load(), 1);
}

TEST_F(ServingTest, CoalescerChainsInlineCompletionsWithoutStackGrowth) {
  // With no model published every batch completes inline, inside
  // SubmitBatch. Each callback submits the next request, which queues behind
  // the still-running batch and is chained by its completion: 10k hand-offs
  // that must run as a loop on this thread, not as nested calls.
  ModelRegistry registry;
  ThreadPool pool(1);
  EstimationService service(&registry, &pool);
  BatchCoalescer coalescer(&service);
  const EstimateRequest request = QueueRequests(Resource::kCpu)[0];

  constexpr int kSubmissions = 10000;
  int completed = 0;
  int not_found = 0;
  uintptr_t lowest = UINTPTR_MAX;
  uintptr_t highest = 0;
  std::function<void()> submit_next;
  submit_next = [&]() {
    coalescer.Submit({request}, {}, [&](std::vector<EstimateResult> results) {
      const char marker = 0;
      const auto here = reinterpret_cast<uintptr_t>(&marker);
      lowest = std::min(lowest, here);
      highest = std::max(highest, here);
      if (results.size() == 1 &&
          results[0].status == EstimateStatus::kModelNotFound) {
        ++not_found;
      }
      if (++completed < kSubmissions) submit_next();
    });
  };
  submit_next();
  EXPECT_EQ(completed, kSubmissions);
  EXPECT_EQ(not_found, kSubmissions);
  EXPECT_LT(highest - lowest, 64u * 1024u) << "stack grew across hand-offs";
  const CoalescerStats stats = coalescer.stats();
  EXPECT_EQ(stats.batches, static_cast<uint64_t>(kSubmissions));
  EXPECT_EQ(stats.flush_idle, 1u);
  EXPECT_EQ(stats.flush_chained, static_cast<uint64_t>(kSubmissions - 1));
}

}  // namespace
}  // namespace resest
