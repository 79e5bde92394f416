// Tests for src/serving/tenant_manager.h: the multi-tenant isolation
// guarantees. Each tenant owns its own estimate-cache region, its own
// slot-version key space (globally monotonic registry versions across
// per-tenant model names), and its own WAL-backed observation log — so one
// tenant's cache flood, refit publish, or crash never bleeds into another
// tenant's state. The crash test follows crash_recovery_test.cc: a forked
// child appending to two tenants' logs is SIGKILLed mid-append, and each
// tenant's recovery must be byte-identical to its own never-crashed oracle.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/thread_pool.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/serving/tenant_manager.h"
#include "src/storage/recovery.h"
#include "src/storage/wal.h"
#include "src/training/incremental_trainer.h"
#include "src/workload/runner.h"
#include "src/workload/schemas.h"
#include "src/workload/tpch_queries.h"

namespace resest {
namespace {

// ---------------------------------------------------------------------------
// Tenant id validation
// ---------------------------------------------------------------------------

TEST(TenantIdTest, AcceptsBoringNamesRejectsPathAndLabelHazards) {
  for (const char* ok :
       {"default", "alpha", "t1", "A", "0", "a.b-c_d", "x9.Y-z_"}) {
    EXPECT_TRUE(IsValidTenantId(ok)) << ok;
  }
  for (const char* bad :
       {"", ".", "..", "-rf", "_x", "a/b", "a b", "a@b", "a\"b", "a\nb",
        "\xc3\xa9"}) {
    EXPECT_FALSE(IsValidTenantId(bad)) << bad;
  }
  EXPECT_TRUE(IsValidTenantId(std::string(kMaxTenantIdLength, 'a')));
  EXPECT_FALSE(IsValidTenantId(std::string(kMaxTenantIdLength + 1, 'a')));
}

// ---------------------------------------------------------------------------
// Shared fixture: one small trained estimator for every tenant to serve.
// ---------------------------------------------------------------------------

class TenantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = GenerateDatabase(TpchSchema(), 0.3, 1.0, 42).release();
    Rng rng(7);
    auto queries = GenerateTpchWorkload(30, &rng, db_);
    auto workload = RunWorkload(db_, queries);
    TrainOptions options;
    options.mart.num_trees = 15;  // small models keep the suite fast
    estimator_ = new ResourceEstimator(
        ResourceEstimator::Train(workload, options));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static std::shared_ptr<const ResourceEstimator> SharedEstimator() {
    // Non-owning alias: the fixture owns the estimator for the whole suite.
    return std::shared_ptr<const ResourceEstimator>(estimator_,
                                                    [](const auto*) {});
  }

  static std::vector<EstimateRequest> DistinctRequests(int count, int salt) {
    // Only trained (op, resource) slots: untrained slots estimate to a
    // feature-free constant and deliberately bypass the cache, which would
    // skew the exact hit accounting below.
    std::vector<std::pair<OpType, Resource>> trained;
    for (int op = 0; op < kNumOpTypes; ++op) {
      for (int r = 0; r < kNumResources; ++r) {
        const OpType o = static_cast<OpType>(op);
        const Resource res = static_cast<Resource>(r);
        if (estimator_->ModelsFor(o, res) != nullptr) {
          trained.emplace_back(o, res);
        }
      }
    }
    EXPECT_FALSE(trained.empty());
    std::vector<EstimateRequest> requests;
    for (int i = 0; i < count; ++i) {
      FeatureVector features{};
      features[0] = static_cast<double>(salt) * 10000.0 + i;
      features[1] = 2.5;
      const auto& slot = trained[static_cast<size_t>(i) % trained.size()];
      requests.push_back(
          EstimateRequest::ForOperator(slot.first, features, slot.second));
    }
    return requests;
  }

  static Database* db_;
  static ResourceEstimator* estimator_;
};

Database* TenantTest::db_ = nullptr;
ResourceEstimator* TenantTest::estimator_ = nullptr;

TEST_F(TenantTest, RegistrationResolutionAndModelNaming) {
  ThreadPool pool(2);
  ModelRegistry registry;
  TenantOptions options;
  options.service.model_name = "m";
  options.coalescer.max_rows = 0;
  TenantManager manager(&registry, &pool, options);

  std::string error;
  ASSERT_NE(manager.AddTenant(kDefaultTenant, &error), nullptr) << error;
  ASSERT_NE(manager.AddTenant("alpha", &error), nullptr) << error;
  EXPECT_EQ(manager.AddTenant("a/b", &error), nullptr);
  EXPECT_FALSE(error.empty());
  // Idempotent: re-adding returns the existing tenant.
  EXPECT_EQ(manager.AddTenant("alpha"), manager.Resolve("alpha"));
  EXPECT_EQ(manager.tenant_count(), 2u);

  // "" resolves to the default tenant; unknown ids resolve to null.
  EXPECT_EQ(manager.Resolve(""), manager.Resolve(kDefaultTenant));
  EXPECT_EQ(manager.Resolve("beta"), nullptr);

  // The default tenant keeps the bare model name; named tenants get @id.
  EXPECT_EQ(manager.Resolve(kDefaultTenant)->model_name, "m");
  EXPECT_EQ(manager.Resolve("alpha")->model_name, "m@alpha");
  // coalescer.max_rows = 0 builds no coalescer.
  EXPECT_EQ(manager.Resolve(kDefaultTenant)->coalescer, nullptr);
  EXPECT_EQ(manager.Resolve("alpha")->coalescer, nullptr);

  // One publish fans out under every tenant's name with distinct versions.
  const uint64_t default_version = manager.PublishToAll(SharedEstimator());
  EXPECT_GT(default_version, 0u);
  EXPECT_NE(registry.Get("m@alpha").version, default_version);
  EXPECT_TRUE(registry.Get("m"));
  EXPECT_TRUE(registry.Get("m@alpha"));
}

TEST_F(TenantTest, CacheFloodInOneTenantNeverEvictsAnother) {
  ThreadPool pool(2);
  ModelRegistry registry;
  TenantOptions options;
  options.service.model_name = "m";
  options.service.cache_capacity = 64;  // tiny region: floods evict fast
  options.service.cache_shards = 1;
  options.coalescer.max_rows = 0;
  TenantManager manager(&registry, &pool, options);
  ASSERT_NE(manager.AddTenant(kDefaultTenant), nullptr);
  ASSERT_NE(manager.AddTenant("alpha", nullptr), nullptr);
  ASSERT_NE(manager.AddTenant("beta", nullptr), nullptr);
  ASSERT_GT(manager.PublishToAll(SharedEstimator()), 0u);
  EstimationService* alpha = manager.Resolve("alpha")->service.get();
  EstimationService* beta = manager.Resolve("beta")->service.get();

  // Warm beta's cache with a working set that fits (32 of 64 entries).
  const auto beta_set = DistinctRequests(32, /*salt=*/1);
  for (const auto& r : beta->EstimateBatch(beta_set)) ASSERT_TRUE(r.ok());
  for (const auto& r : beta->EstimateBatch(beta_set)) ASSERT_TRUE(r.ok());
  const ServiceStats beta_warm = beta->stats();
  EXPECT_EQ(beta_warm.cache_hits, 32u);

  // Flood alpha far past its capacity: alpha must evict...
  for (const auto& r :
       alpha->EstimateBatch(DistinctRequests(400, /*salt=*/2))) {
    ASSERT_TRUE(r.ok());
  }
  EXPECT_GT(alpha->stats().cache_evictions, 0u);

  // ...while beta's region is untouched: the whole working set still hits.
  for (const auto& r : beta->EstimateBatch(beta_set)) ASSERT_TRUE(r.ok());
  const ServiceStats beta_after = beta->stats();
  EXPECT_EQ(beta_after.cache_hits, beta_warm.cache_hits + 32);
  EXPECT_EQ(beta_after.cache_misses, beta_warm.cache_misses);
  EXPECT_EQ(beta_after.cache_evictions, 0u);
}

TEST_F(TenantTest, RefitPublishInOneTenantKeepsAnotherTenantsKeysLive) {
  ThreadPool pool(2);
  ModelRegistry registry;
  TenantOptions options;
  options.service.model_name = "m";
  options.coalescer.max_rows = 0;
  TenantManager manager(&registry, &pool, options);
  ASSERT_NE(manager.AddTenant(kDefaultTenant), nullptr);
  ASSERT_NE(manager.AddTenant("alpha", nullptr), nullptr);
  ASSERT_NE(manager.AddTenant("beta", nullptr), nullptr);
  ASSERT_GT(manager.PublishToAll(SharedEstimator()), 0u);
  EstimationService* alpha = manager.Resolve("alpha")->service.get();
  EstimationService* beta = manager.Resolve("beta")->service.get();

  // Warm both tenants on the same logical working set.
  const auto working_set = DistinctRequests(24, /*salt=*/3);
  for (const auto& r : alpha->EstimateBatch(working_set)) ASSERT_TRUE(r.ok());
  for (const auto& r : beta->EstimateBatch(working_set)) ASSERT_TRUE(r.ok());
  const uint64_t beta_misses_warm = beta->stats().cache_misses;

  // Alpha publishes a new model version (what a refit does). Registry
  // versions are globally monotonic across names, so alpha's new version
  // opens a fresh key space for alpha only.
  const uint64_t alpha_v2 = registry.Publish("m@alpha", SharedEstimator());
  ASSERT_GT(alpha_v2, 0u);

  // Alpha's cached keys are cold (new slot versions)...
  const uint64_t alpha_hits_before = alpha->stats().cache_hits;
  for (const auto& r : alpha->EstimateBatch(working_set)) ASSERT_TRUE(r.ok());
  EXPECT_EQ(alpha->stats().cache_hits, alpha_hits_before);

  // ...while beta's stayed live: every request hits, zero new misses.
  const uint64_t beta_hits_before = beta->stats().cache_hits;
  for (const auto& r : beta->EstimateBatch(working_set)) ASSERT_TRUE(r.ok());
  EXPECT_EQ(beta->stats().cache_hits,
            beta_hits_before + working_set.size());
  EXPECT_EQ(beta->stats().cache_misses, beta_misses_warm);
}

// ---------------------------------------------------------------------------
// Two-tenant WAL crash recovery (crash_recovery_test.cc mechanics)
// ---------------------------------------------------------------------------

std::string FreshDir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// Deterministic per-tenant append streams: pure functions of (tenant salt,
// row index), so each oracle regenerates exactly its tenant's durable
// prefix and any cross-tenant bleed would break byte-identity.
OpType OpAt(int salt, uint64_t i) {
  return static_cast<OpType>((i * 7 + static_cast<uint64_t>(salt)) %
                             kNumOpTypes);
}
Resource ResourceAt(uint64_t i) {
  return static_cast<Resource>(i % kNumResources);
}
FeatureVector RowAt(int salt, uint64_t i) {
  FeatureVector f{};
  f[0] = static_cast<double>((i + static_cast<uint64_t>(salt) * 1000) % 97);
  f[1] = static_cast<double>((i * 31) % 251);
  f[2] = static_cast<double>(i) * 0.5 + salt;
  return f;
}
double LabelAt(int salt, uint64_t i) {
  return static_cast<double>(i % 13) * 1.25 +
         static_cast<double>(i) * 0.001 + salt;
}

TrainOptions TinyOptions() {
  TrainOptions options;
  options.mart.num_trees = 5;
  options.min_rows_per_operator = 4;
  return options;
}

LogBounds TightBounds() {
  LogBounds bounds;
  bounds.window_rows = 8;
  bounds.reservoir_rows = 6;
  return bounds;
}

void SeedBlankBaseline(IncrementalTrainer* trainer) {
  const std::vector<ExecutedQuery> empty;
  trainer->SeedAndTrain(empty);
}

/// Replays `<root>/<tenant>`'s log (TenantManager layout: log name
/// "<base>@<tenant>") into a fresh trainer and proves it byte-identical to
/// a never-crashed oracle fed the same durable prefix of that tenant's
/// stream. Returns rows recovered.
uint64_t VerifyTenantRecoveryMatchesOracle(const std::string& root,
                                           const std::string& tenant,
                                           int salt) {
  const std::string name = "crash@" + tenant;
  IncrementalTrainer recovered(TinyOptions(), RefitPolicy{}, nullptr,
                               TightBounds());
  SeedBlankBaseline(&recovered);
  RecoveryStats stats;
  EXPECT_TRUE(
      recovered.EnableDurability(root + "/" + tenant, name, {}, &stats));
  const uint64_t rows = stats.rows_recovered;

  IncrementalTrainer oracle(TinyOptions(), RefitPolicy{}, nullptr,
                            TightBounds());
  SeedBlankBaseline(&oracle);
  for (uint64_t i = 0; i < rows; ++i) {
    oracle.Append(OpAt(salt, i), ResourceAt(i), RowAt(salt, i),
                  LabelAt(salt, i));
  }

  if (rows == 0) return 0;
  const auto refit_recovered = recovered.RefitAll();
  const auto refit_oracle = oracle.RefitAll();
  EXPECT_TRUE(refit_recovered);
  EXPECT_TRUE(refit_oracle);
  if (refit_recovered && refit_oracle) {
    EXPECT_EQ(refit_recovered.estimator->Serialize(),
              refit_oracle.estimator->Serialize())
        << "tenant " << tenant
        << " recovery diverged from its never-crashed oracle at " << rows
        << " rows";
  }
  for (int op = 0; op < kNumOpTypes; ++op) {
    for (int r = 0; r < kNumResources; ++r) {
      const OpType o = static_cast<OpType>(op);
      const Resource res = static_cast<Resource>(r);
      const auto a = recovered.LogStats(o, res);
      const auto b = oracle.LogStats(o, res);
      EXPECT_EQ(a.rows, b.rows) << tenant;
      EXPECT_EQ(a.window, b.window) << tenant;
      EXPECT_EQ(a.reservoir, b.reservoir) << tenant;
    }
  }
  return rows;
}

TEST(TenantCrashRecoveryTest, SigkillMidAppendRecoversBothTenantsExactly) {
  const std::string root = FreshDir("resest_tenant_crash");
  constexpr uint64_t kRows = 300;

  // Child: interleaved appends to both tenants' WALs; beta's WAL carries
  // the fault hook and SIGKILLs the process mid-append (a torn record on
  // beta's disk while alpha is mid-stream too).
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    IncrementalTrainer alpha(TinyOptions(), RefitPolicy{}, nullptr,
                             TightBounds());
    IncrementalTrainer beta(TinyOptions(), RefitPolicy{}, nullptr,
                            TightBounds());
    SeedBlankBaseline(&alpha);
    SeedBlankBaseline(&beta);
    WalOptions alpha_options;
    alpha_options.segment_bytes = 16 * 1024;
    WalOptions beta_options = alpha_options;
    beta_options.fault_hook = [](const WalFaultContext& ctx) {
      if (ctx.op == WalFaultOp::kWrite && !ctx.is_header &&
          ctx.call_index == 210) {
        return WalFaultAction::kShortWriteThenCrash;
      }
      return WalFaultAction::kProceed;
    };
    if (!alpha.EnableDurability(root + "/alpha", "crash@alpha",
                                alpha_options)) {
      _exit(43);
    }
    if (!beta.EnableDurability(root + "/beta", "crash@beta", beta_options)) {
      _exit(43);
    }
    for (uint64_t i = 0; i < kRows; ++i) {
      alpha.Append(OpAt(1, i), ResourceAt(i), RowAt(1, i), LabelAt(1, i));
      beta.Append(OpAt(2, i), ResourceAt(i), RowAt(2, i), LabelAt(2, i));
    }
    _exit(42);  // crash point never reached — the parent fails on this
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited normally instead of crashing at the injected point";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Each tenant recovers independently, byte-identical to its own oracle.
  const uint64_t alpha_rows =
      VerifyTenantRecoveryMatchesOracle(root, "alpha", 1);
  const uint64_t beta_rows =
      VerifyTenantRecoveryMatchesOracle(root, "beta", 2);
  // Beta died on a torn record; alpha was one append ahead and fully
  // durable up to the crash instant. Neither stream completed.
  EXPECT_GT(alpha_rows, 0u);
  EXPECT_GT(beta_rows, 0u);
  EXPECT_LT(alpha_rows, kRows);
  EXPECT_LT(beta_rows, kRows);
  EXPECT_GE(alpha_rows, beta_rows);

  // The TenantManager recovery path (AddTenant with a data_dir) replays
  // the same directories and reports the same durable row counts.
  ThreadPool pool(2);
  ModelRegistry registry;
  TenantOptions options;
  options.service.model_name = "crash";
  options.coalescer.max_rows = 0;
  options.data_dir = root;
  options.train = TinyOptions();
  options.log_bounds = TightBounds();
  TenantManager manager(&registry, &pool, options);
  std::string error;
  RecoveryStats alpha_recovery;
  RecoveryStats beta_recovery;
  ASSERT_NE(manager.AddTenant("alpha", &error, &alpha_recovery), nullptr)
      << error;
  ASSERT_NE(manager.AddTenant("beta", &error, &beta_recovery), nullptr)
      << error;
  EXPECT_EQ(alpha_recovery.rows_recovered, alpha_rows);
  EXPECT_EQ(beta_recovery.rows_recovered, beta_rows);
  std::filesystem::remove_all(root);
}

TEST_F(TenantTest, DrainAllWritesOneCheckpointAfterTheLastRow) {
  // DrainAll saves each tenant's model, then DrainWal appends the coverage
  // checkpoint, fsyncs and seals: one marker per tenant, after its last
  // row, and a restart recovers the drained directory cleanly.
  const std::string root = FreshDir("resest_tenant_drain_test");
  TenantOptions options;
  options.service.model_name = "drain";
  options.coalescer.max_rows = 0;
  options.data_dir = root;
  options.train = TinyOptions();
  options.log_bounds = TightBounds();
  constexpr uint64_t kRows = 12;
  {
    ThreadPool pool(2);
    ModelRegistry registry;
    TenantManager manager(&registry, &pool, options);
    ASSERT_NE(manager.AddTenant(kDefaultTenant), nullptr);
    ASSERT_NE(manager.AddTenant("alpha"), nullptr);
    ASSERT_GT(manager.PublishToAll(SharedEstimator()), 0u);
    for (const std::string& id : manager.TenantIds()) {
      IncrementalTrainer* trainer = manager.Resolve(id)->trainer.get();
      ASSERT_NE(trainer, nullptr);
      for (uint64_t i = 0; i < kRows; ++i) {
        trainer->Append(OpAt(3, i), ResourceAt(i), RowAt(3, i),
                        LabelAt(3, i));
      }
    }
    ASSERT_TRUE(manager.DrainAll());
  }

  const std::vector<std::pair<std::string, std::string>> logs = {
      {root, "drain"}, {root + "/alpha", "drain@alpha"}};
  for (const auto& [dir, name] : logs) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + name + ".model")) << name;
    std::vector<WalRecordType> types;
    RecoveryStats stats;
    ASSERT_TRUE(ReplayObservationLog(
        dir, name, [&](const WalRecord& r) { types.push_back(r.type); },
        &stats));
    EXPECT_TRUE(stats.clean()) << name << ": " << stats.detail;
    EXPECT_EQ(stats.rows_recovered, kRows) << name;
    ASSERT_EQ(types.size(), kRows + 1) << name;
    EXPECT_EQ(types.back(), WalRecordType::kCheckpoint) << name;
    EXPECT_EQ(std::count(types.begin(), types.end(),
                         WalRecordType::kCheckpoint),
              1)
        << name;
  }

  // A restarted manager recovers both tenants from the drained directory.
  ThreadPool pool(2);
  ModelRegistry registry;
  TenantManager manager(&registry, &pool, options);
  RecoveryStats default_recovery;
  RecoveryStats alpha_recovery;
  ASSERT_NE(manager.AddTenant(kDefaultTenant, nullptr, &default_recovery),
            nullptr);
  ASSERT_NE(manager.AddTenant("alpha", nullptr, &alpha_recovery), nullptr);
  EXPECT_TRUE(default_recovery.clean()) << default_recovery.detail;
  EXPECT_TRUE(alpha_recovery.clean()) << alpha_recovery.detail;
  EXPECT_EQ(default_recovery.rows_recovered, kRows);
  EXPECT_EQ(alpha_recovery.rows_recovered, kRows);
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Concurrent two-tenant traffic (a TSan target: the CI tsan job runs this
// binary). Coalesced submissions, direct estimates, observe appends and
// heartbeat scrapes race across tenants; every callback must fire exactly
// once and per-tenant counters must add up.
// ---------------------------------------------------------------------------

TEST_F(TenantTest, ConcurrentTwoTenantTrafficIsRaceFreeAndAccountedPerTenant) {
  ThreadPool pool(4);
  ModelRegistry registry;
  TenantOptions options;
  options.service.model_name = "m";
  options.coalescer.max_rows = 64;
  TenantManager manager(&registry, &pool, options);
  ASSERT_NE(manager.AddTenant(kDefaultTenant), nullptr);
  ASSERT_NE(manager.AddTenant("alpha", nullptr), nullptr);
  ASSERT_NE(manager.AddTenant("beta", nullptr), nullptr);
  ASSERT_GT(manager.PublishToAll(SharedEstimator()), 0u);

  constexpr int kClientsPerTenant = 2;
  constexpr int kRoundsPerClient = 40;
  constexpr int kRowsPerRound = 4;
  const char* tenant_ids[] = {"alpha", "beta"};

  std::atomic<int> responses{0};
  std::atomic<int> result_failures{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    for (int c = 0; c < kClientsPerTenant; ++c) {
      clients.emplace_back([&, t, c]() {
        TenantManager::Tenant* tenant = manager.Resolve(tenant_ids[t]);
        for (int round = 0; round < kRoundsPerClient; ++round) {
          SubmitOptions submit;
          submit.priority =
              round % 3 == 0 ? TaskPriority::kUrgent : TaskPriority::kNormal;
          tenant->coalescer->Submit(
              DistinctRequests(kRowsPerRound, t * 100 + c * 10 + round % 7),
              submit, [&](std::vector<EstimateResult> results) {
                for (const auto& r : results) {
                  if (!r.ok()) result_failures.fetch_add(1);
                }
                // Under the lock: the waiter cannot see the last response,
                // return and destroy done_cv while this notify still runs.
                std::lock_guard<std::mutex> lock(done_mu);
                responses.fetch_add(1);
                done_cv.notify_one();
              });
        }
      });
    }
  }
  // Heartbeat + admin scrapes race with the traffic (the server does this
  // from the event loop's sweep).
  std::atomic<bool> stop_scraping{false};
  std::thread scraper([&]() {
    while (!stop_scraping.load()) {
      manager.Heartbeat();
      const auto snapshots = manager.stats();
      if (snapshots.size() != 3) result_failures.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (auto& t : clients) t.join();
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait_for(lock, std::chrono::seconds(60), [&]() {
      return responses.load() == 2 * kClientsPerTenant * kRoundsPerClient;
    });
  }
  stop_scraping.store(true);
  scraper.join();

  EXPECT_EQ(responses.load(), 2 * kClientsPerTenant * kRoundsPerClient);
  EXPECT_EQ(result_failures.load(), 0);
  // Per-tenant accounting: each tenant served exactly its own rows; the
  // default tenant saw none of them.
  const uint64_t expected_rows = static_cast<uint64_t>(kClientsPerTenant) *
                                 kRoundsPerClient * kRowsPerRound;
  EXPECT_EQ(manager.Resolve("alpha")->service->stats().requests,
            expected_rows);
  EXPECT_EQ(manager.Resolve("beta")->service->stats().requests,
            expected_rows);
  EXPECT_EQ(manager.Resolve(kDefaultTenant)->service->stats().requests, 0u);
}

}  // namespace
}  // namespace resest
