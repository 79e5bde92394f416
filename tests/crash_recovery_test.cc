// The headline durability proof: real subprocesses are SIGKILLed at
// injected crash points — mid-append (a genuinely torn record on disk),
// mid-seal, mid-checkpoint, mid-publish — and recovery must be
// *byte-identical* to a never-crashed oracle trainer fed the same durable
// prefix of the append stream.
//
// Mechanics: fork() (no exec — the child runs the same address space,
// single-threaded, pool-free), the child appends a deterministic synthetic
// row stream through a WAL whose fault hook raises SIGKILL at the chosen
// point, the parent waitpid()s for the SIGKILL, replays the directory into
// a fresh trainer, and compares a forced full refit (model bytes and log
// state) against the oracle. Small window/reservoir bounds ensure the
// eviction + reservoir-sampling paths are exercised and reproduced by
// replay, not just straight appends.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/serving/model_registry.h"
#include "src/storage/recovery.h"
#include "src/storage/wal.h"
#include "src/training/incremental_trainer.h"

namespace resest {
namespace {

constexpr uint64_t kChildRows = 400;
constexpr char kLogName[] = "crash";

std::string FreshDir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// The synthetic append stream: slot, features and label are all pure
// functions of the global row index, so the oracle can regenerate exactly
// the prefix the WAL preserved.
OpType OpAt(uint64_t i) {
  return static_cast<OpType>((i * 7) % kNumOpTypes);
}
Resource ResourceAt(uint64_t i) {
  return static_cast<Resource>(i % kNumResources);
}
FeatureVector RowAt(uint64_t i) {
  FeatureVector f{};
  f[0] = static_cast<double>(i % 97);
  f[1] = static_cast<double>((i * 31) % 251);
  f[2] = static_cast<double>(i) * 0.5;
  f[3] = static_cast<double>(i % 5);
  return f;
}
double LabelAt(uint64_t i) {
  return static_cast<double>(i % 13) * 1.25 + static_cast<double>(i) * 0.001;
}

TrainOptions TinyOptions() {
  TrainOptions options;
  options.mart.num_trees = 5;
  options.min_rows_per_operator = 4;
  return options;
}

// Small bounds: with 400 rows over 24 slots, windows overflow and the
// reservoir sampler runs — replay must reproduce those decisions exactly.
LogBounds TightBounds() {
  LogBounds bounds;
  bounds.window_rows = 8;
  bounds.reservoir_rows = 6;
  return bounds;
}

// Gives a trainer a blank baseline (every later RefitAll is then a forced
// full fit from the logs — the same path SeedAndTrain pins to from-scratch
// training).
void SeedBlankBaseline(IncrementalTrainer* trainer) {
  const std::vector<ExecutedQuery> empty;
  trainer->SeedAndTrain(empty);
}

void AppendRow(IncrementalTrainer* trainer, uint64_t i) {
  trainer->Append(OpAt(i), ResourceAt(i), RowAt(i), LabelAt(i));
}

// Forks; the child runs `body` (which is expected to die by SIGKILL from
// the fault hook) and _exit(42)s if it survives. The parent asserts the
// child really was killed at an injected point.
void RunChildExpectingSigkill(const std::function<void()>& body) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    body();
    _exit(42);  // crash point never reached — the parent fails on this
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited normally with status "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
      << " instead of being SIGKILLed at the injected crash point";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

// Replays `dir` into a fresh trainer and proves it byte-identical to a
// never-crashed oracle fed the recovered prefix: same forced-refit model
// bytes, same per-slot log state. Returns rows recovered.
uint64_t VerifyRecoveryMatchesOracle(const std::string& dir) {
  IncrementalTrainer recovered(TinyOptions(), RefitPolicy{}, nullptr, TightBounds());
  SeedBlankBaseline(&recovered);
  RecoveryStats stats;
  EXPECT_TRUE(recovered.EnableDurability(dir, kLogName, {}, &stats));
  const uint64_t rows = stats.rows_recovered;

  IncrementalTrainer oracle(TinyOptions(), RefitPolicy{}, nullptr, TightBounds());
  SeedBlankBaseline(&oracle);
  for (uint64_t i = 0; i < rows; ++i) AppendRow(&oracle, i);

  if (rows == 0) return 0;
  const auto refit_recovered = recovered.RefitAll();
  const auto refit_oracle = oracle.RefitAll();
  EXPECT_TRUE(refit_recovered);
  EXPECT_TRUE(refit_oracle);
  if (refit_recovered && refit_oracle) {
    EXPECT_EQ(refit_recovered.estimator->Serialize(),
              refit_oracle.estimator->Serialize())
        << "recovered refit diverged from the never-crashed oracle at "
        << rows << " rows";
  }
  for (int op = 0; op < kNumOpTypes; ++op) {
    for (int r = 0; r < kNumResources; ++r) {
      const OpType o = static_cast<OpType>(op);
      const Resource res = static_cast<Resource>(r);
      const auto a = recovered.LogStats(o, res);
      const auto b = oracle.LogStats(o, res);
      EXPECT_EQ(a.rows, b.rows) << OpTypeName(o) << "/" << ResourceName(res);
      EXPECT_EQ(a.window, b.window)
          << OpTypeName(o) << "/" << ResourceName(res);
      EXPECT_EQ(a.reservoir, b.reservoir)
          << OpTypeName(o) << "/" << ResourceName(res);
    }
  }
  return rows;
}

// Child body: appends the full stream through a WAL with `hook` installed.
// Small segments force seals along the way.
void AppendStreamWithHook(const std::string& dir, WalFaultHook hook) {
  IncrementalTrainer trainer(TinyOptions(), RefitPolicy{}, nullptr, TightBounds());
  SeedBlankBaseline(&trainer);
  WalOptions options;
  options.segment_bytes = 16 * 1024;
  options.fault_hook = std::move(hook);
  if (!trainer.EnableDurability(dir, kLogName, options)) _exit(43);
  for (uint64_t i = 0; i < kChildRows; ++i) AppendRow(&trainer, i);
}

TEST(CrashRecoveryTest, SigkillMidAppendRecoversTheDurablePrefix) {
  const std::string dir = FreshDir("resest_crash_mid_append");
  RunChildExpectingSigkill([&]() {
    AppendStreamWithHook(dir, [](const WalFaultContext& ctx) {
      // Torn record: half the frame reaches the file, then the process
      // dies. call_index 310 lands mid-stream, past several seals.
      if (ctx.op == WalFaultOp::kWrite && !ctx.is_header &&
          ctx.call_index == 310) {
        return WalFaultAction::kShortWriteThenCrash;
      }
      return WalFaultAction::kProceed;
    });
  });
  const uint64_t rows = VerifyRecoveryMatchesOracle(dir);
  // Exactly the pre-crash appends survive: the torn record is dropped.
  EXPECT_GT(rows, 0u);
  EXPECT_LT(rows, kChildRows);
}

TEST(CrashRecoveryTest, SigkillMidBatchWriteKeepsAWholeRecordPrefix) {
  // A batch leaves in one write(); a short write tears it. With batches of
  // 32 rows, the half that reaches the file ends on a record boundary; with
  // 33 it ends inside a record. Either way recovery keeps the 4 earlier
  // batches plus the batch's whole records before the tear — the first
  // B/2 of it — and matches the never-crashed oracle on exactly that.
  for (const uint64_t batch : {uint64_t{32}, uint64_t{33}}) {
    const std::string dir = FreshDir("resest_crash_mid_batch");
    RunChildExpectingSigkill([&]() {
      IncrementalTrainer trainer(TinyOptions(), RefitPolicy{}, nullptr,
                                 TightBounds());
      SeedBlankBaseline(&trainer);
      WalOptions options;  // default segment size: no seal splits a batch
      options.fault_hook = [](const WalFaultContext& ctx) {
        return ctx.op == WalFaultOp::kWrite && !ctx.is_header &&
                       ctx.call_index == 6  // the 5th batch (#1 is the header)
                   ? WalFaultAction::kShortWriteThenCrash
                   : WalFaultAction::kProceed;
      };
      if (!trainer.EnableDurability(dir, kLogName, options)) _exit(43);
      std::vector<ObservationRow> rows(batch);
      for (uint64_t start = 0; start < kChildRows; start += batch) {
        for (uint64_t i = 0; i < batch; ++i) {
          rows[i] = {OpAt(start + i), ResourceAt(start + i), RowAt(start + i),
                     LabelAt(start + i)};
        }
        trainer.Append(rows.data(), rows.size());
      }
    });
    const uint64_t rows = VerifyRecoveryMatchesOracle(dir);
    EXPECT_EQ(rows, 4 * batch + batch / 2) << "batch of " << batch;
  }
}

TEST(CrashRecoveryTest, SigkillAtSealRenameLosesNothing) {
  const std::string dir = FreshDir("resest_crash_mid_seal");
  RunChildExpectingSigkill([&]() {
    AppendStreamWithHook(dir, [](const WalFaultContext& ctx) {
      return ctx.op == WalFaultOp::kSealRename && ctx.call_index == 2
                 ? WalFaultAction::kCrash
                 : WalFaultAction::kProceed;
    });
  });
  // Dying at the rename itself is harmless: the file exists under exactly
  // one name (old or new), fully synced either way.
  const uint64_t rows = VerifyRecoveryMatchesOracle(dir);
  EXPECT_GT(rows, 0u);
  EXPECT_LT(rows, kChildRows);
}

TEST(CrashRecoveryTest, SigkillOnFreshHeaderAfterSealLosesNothing) {
  const std::string dir = FreshDir("resest_crash_post_seal");
  RunChildExpectingSigkill([&]() {
    // call_index counts every kWrite (headers and records share the
    // counter), so count header writes separately: #1 is the initial Open,
    // #2 is the fresh active file created right after the first seal — die
    // before it hits the disk.
    auto headers = std::make_shared<int>(0);
    AppendStreamWithHook(dir, [headers](const WalFaultContext& ctx) {
      if (ctx.op == WalFaultOp::kWrite && ctx.is_header &&
          ++*headers == 2) {
        return WalFaultAction::kCrash;
      }
      return WalFaultAction::kProceed;
    });
  });
  const uint64_t rows = VerifyRecoveryMatchesOracle(dir);
  EXPECT_GT(rows, 0u);
  EXPECT_LT(rows, kChildRows);
}

TEST(CrashRecoveryTest, SigkillDuringCheckpointKeepsEveryRow) {
  const std::string dir = FreshDir("resest_crash_mid_checkpoint");
  RunChildExpectingSigkill([&]() {
    IncrementalTrainer trainer(TinyOptions(), RefitPolicy{}, nullptr, TightBounds());
    SeedBlankBaseline(&trainer);
    WalOptions options;
    options.segment_bytes = 16 * 1024;
    auto armed = std::make_shared<bool>(false);
    options.fault_hook = [armed](const WalFaultContext& ctx) {
      return *armed && ctx.op == WalFaultOp::kWrite
                 ? WalFaultAction::kShortWriteThenCrash
                 : WalFaultAction::kProceed;
    };
    if (!trainer.EnableDurability(dir, kLogName, options)) _exit(43);
    for (uint64_t i = 0; i < kChildRows; ++i) AppendRow(&trainer, i);
    ModelRegistry registry;
    if (trainer.PublishBaseline(&registry, kLogName) == 0) _exit(44);
    *armed = true;  // the next WAL write is the checkpoint marker
    trainer.Checkpoint(registry, kLogName, dir);
  });
  // The torn checkpoint marker is dropped; every observation row — all
  // appended before Checkpoint was called — must survive.
  const uint64_t rows = VerifyRecoveryMatchesOracle(dir);
  EXPECT_EQ(rows, kChildRows);
}

TEST(CrashRecoveryTest, SigkillDuringPublishKeepsEveryRow) {
  const std::string dir = FreshDir("resest_crash_mid_publish");
  RunChildExpectingSigkill([&]() {
    // min_new_rows = 1: with 400 rows over 24 slots the default 64-row
    // threshold never crosses and RefitAndPublish would be a no-op — the
    // test needs the post-publish marker appends to actually happen.
    RefitPolicy eager;
    eager.min_new_rows = 1;
    IncrementalTrainer trainer(TinyOptions(), eager, nullptr, TightBounds());
    SeedBlankBaseline(&trainer);
    WalOptions options;
    options.segment_bytes = 16 * 1024;
    auto armed = std::make_shared<bool>(false);
    options.fault_hook = [armed](const WalFaultContext& ctx) {
      return *armed && ctx.op == WalFaultOp::kWrite
                 ? WalFaultAction::kShortWriteThenCrash
                 : WalFaultAction::kProceed;
    };
    if (!trainer.EnableDurability(dir, kLogName, options)) _exit(43);
    for (uint64_t i = 0; i < kChildRows; ++i) AppendRow(&trainer, i);
    ModelRegistry registry;
    if (trainer.PublishBaseline(&registry, kLogName) == 0) _exit(44);
    *armed = true;  // die on the first post-refit marker append
    trainer.RefitAndPublish(&registry, kLogName);
  });
  // Publish markers are coverage metadata, not data: losing them mid-write
  // costs a redundant (deterministic) re-refit after restart, never rows.
  const uint64_t rows = VerifyRecoveryMatchesOracle(dir);
  EXPECT_EQ(rows, kChildRows);
}

TEST(CrashRecoveryTest, RecoveredTrainerResumesAppendingDurably) {
  const std::string dir = FreshDir("resest_crash_resume");
  RunChildExpectingSigkill([&]() {
    AppendStreamWithHook(dir, [](const WalFaultContext& ctx) {
      if (ctx.op == WalFaultOp::kWrite && !ctx.is_header &&
          ctx.call_index == 200) {
        return WalFaultAction::kShortWriteThenCrash;
      }
      return WalFaultAction::kProceed;
    });
  });
  // First recovery: resume the stream where the WAL left off, as a
  // restarted server would.
  uint64_t resumed_from = 0;
  {
    IncrementalTrainer trainer(TinyOptions(), RefitPolicy{}, nullptr, TightBounds());
    SeedBlankBaseline(&trainer);
    RecoveryStats stats;
    ASSERT_TRUE(trainer.EnableDurability(dir, kLogName, {}, &stats));
    resumed_from = stats.rows_recovered;
    ASSERT_GT(resumed_from, 0u);
    for (uint64_t i = resumed_from; i < kChildRows; ++i) {
      AppendRow(&trainer, i);
    }
    ASSERT_TRUE(trainer.DrainWal());
  }
  // Second recovery sees the full stream — and matches the oracle on it.
  const uint64_t rows = VerifyRecoveryMatchesOracle(dir);
  EXPECT_EQ(rows, kChildRows);
}

}  // namespace
}  // namespace resest
