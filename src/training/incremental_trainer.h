// Incremental retraining with delta publish (the paper's Section 8 "living
// system" direction): executed queries flow back into per-(operator,
// resource) observation logs, and only the model slots whose logs crossed a
// refit policy are retrained — on the shared ThreadPool at
// TaskPriority::kBulk, so serving traffic is never displaced. The result is
// published as a *delta*: a new ResourceEstimator that shares (by
// shared_ptr) every untouched model set — compiled forests included — with
// its predecessor, pushed through ModelRegistry::PublishDelta, which stamps
// only the refitted slots with the new version; serving-cache entries are
// keyed by slot version, so those of unaffected operators survive the
// hot-swap with no further call.
//
// Memory: each slot's log is a bounded window of the newest rows plus a
// deterministic reservoir summarizing everything evicted from it, and a
// MemoryTracker caps the total footprint across slots by spilling the
// oldest rows of the largest window first — so the loop can absorb
// sustained traffic for days inside a fixed budget (see docs/durability.md
// for the determinism story of the bounded representation).
//
// Durability: with EnableDurability() every observation is appended to a
// write-ahead log (src/storage/wal.h) *before* it enters memory, sealed
// into immutable segments as it grows; a restarted process replays
// segments + tail (src/storage/recovery.h) and resumes mid-stream —
// pending rows and all — instead of relying on full-log checkpoints.
// Checkpoint/Restore then persist only the model store plus a coverage
// marker in the WAL; the rows themselves are already durable.
//
// Determinism contract (pinned by tests/incremental_trainer_test.cc and
// tests/crash_recovery_test.cc): a refit of a slot from its cumulative log
// (seed rows + appended rows) is byte-identical to what a from-scratch
// ResourceEstimator::Train on the concatenated dataset would produce for
// that slot as long as nothing was evicted from the window; once eviction
// starts, the training set (reservoir + window) is still a deterministic
// function of the append stream, so a crashed-and-recovered process refits
// byte-identically to a never-crashed one fed the same durable prefix. A
// delta never changes an untouched operator's estimates by even one bit
// (it shares the pointer).
#ifndef RESEST_TRAINING_INCREMENTAL_TRAINER_H_
#define RESEST_TRAINING_INCREMENTAL_TRAINER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/estimator.h"
#include "src/storage/recovery.h"
#include "src/storage/wal.h"
#include "src/training/memory_tracker.h"

namespace resest {

class ModelRegistry;

/// When a slot's observation log has accumulated enough to refit: a
/// row-count threshold (enough new evidence), a relative drift of the
/// cumulative mean label away from its value at the last refit (the
/// workload's cost distribution moved, even if slowly), or plain age — a
/// slot with *any* pending rows refits once the oldest has waited
/// max_pending_age, so trickle-traffic slots are not stale forever.
struct RefitPolicy {
  /// Appended rows since the last refit that force a refit on their own.
  size_t min_new_rows = 64;
  /// Relative mean-label drift (|mean - refit_mean| / |refit_mean|) that
  /// forces a refit regardless of row count; 0 disables the drift trigger.
  /// Only consulted for slots that have been fitted at least once.
  double drift_threshold = 0.25;
  /// Age of the oldest pending row beyond which the slot refits regardless
  /// of row count or drift; zero disables the age trigger. Wall-clock —
  /// it decides *when* a refit happens, never what it trains on, so the
  /// byte-identity contract is untouched.
  std::chrono::milliseconds max_pending_age{0};
};

/// Bounds on the in-memory observation logs. Defaults are far above any
/// test workload (the golden byte-identity suite sees no eviction) while
/// still bounding a long-running server.
struct LogBounds {
  /// Newest rows kept verbatim per slot; older rows spill to the reservoir.
  size_t window_rows = 65536;
  /// Deterministic reservoir (Vitter's algorithm R with a per-slot seeded
  /// generator) summarizing rows evicted from the window.
  size_t reservoir_rows = 4096;
  /// Total in-memory footprint cap across all slots' windows + reservoirs;
  /// 0 = unbounded. When exceeded, the oldest rows of the largest window
  /// spill first. Caps below the total reservoir occupancy cannot be met
  /// (reservoirs are the floor); size the cap above
  /// kNumModelSlots * reservoir_rows * kObservationRowBytes.
  size_t memory_cap_bytes = 0;
};

/// Accounting charge per in-memory observation row (features + label).
inline constexpr size_t kObservationRowBytes =
    sizeof(FeatureVector) + sizeof(double);

/// One observed operator execution: the (operator, resource) slot it feeds
/// and its training row. The unit of IncrementalTrainer::Append.
struct ObservationRow {
  OpType op = OpType::kTableScan;
  Resource resource = Resource::kCpu;
  FeatureVector features{};
  double label = 0.0;
};

/// One-stop durability/memory observability, exported on /metrics.
struct DurabilityStats {
  bool durable = false;   ///< EnableDurability() succeeded.
  bool wal_ok = true;     ///< False once a WAL append/sync/seal failed.
  WalStats wal;           ///< Counters since EnableDurability().
  RecoveryStats recovery; ///< From the startup replay.
  size_t memory_bytes = 0;
  size_t memory_peak_bytes = 0;
  size_t memory_cap_bytes = 0;
  uint64_t spilled_rows = 0;  ///< Window rows evicted into reservoirs.
};

/// Owns the per-(OpType, Resource) observation logs and the retrain-only-
/// what-changed loop. All methods are thread-safe; Observe/Append may race
/// RefitAffected freely (a refit trains from a consistent copy of each
/// affected log, and appends that race it simply stay pending for the next
/// round). Refits are serialized with each other. Do not call Refit* from a
/// task running on the shared pool — it blocks on pool futures.
class IncrementalTrainer {
 public:
  /// `pool` (optional) runs per-slot fits at TaskPriority::kBulk; null fits
  /// serially. Either way the trained bytes are identical (MART is seeded
  /// and every fit is independent). `bounds` caps the in-memory logs.
  explicit IncrementalTrainer(TrainOptions options, RefitPolicy policy = {},
                              ThreadPool* pool = nullptr,
                              LogBounds bounds = {});

  /// Opens (or resumes) the WAL for `name` under `dir` and replays any
  /// existing segments + tail into the in-memory logs — call before any
  /// observation, typically right before Restore(). On return every later
  /// Observe/Append is WAL-backed. False on I/O failure (the trainer then
  /// stays memory-only). `recovery` (optional) receives the replay stats,
  /// also available later via durability_stats().
  bool EnableDurability(const std::string& dir, const std::string& name,
                        WalOptions wal_options = {},
                        RecoveryStats* recovery = nullptr);

  /// Seeds the logs from an executed workload and trains the baseline
  /// estimator from them — byte-identical to
  /// ResourceEstimator::Train(workload, options), but running through the
  /// same per-slot refit path every later delta uses.
  std::shared_ptr<const ResourceEstimator> SeedAndTrain(
      const std::vector<ExecutedQuery>& workload);

  /// Appends one executed query's per-operator feature/label rows to the
  /// logs (the feedback edge: execute -> observe) as one Append batch.
  /// Skips queries with no plan or database, exactly as training does.
  void Observe(const ExecutedQuery& executed);
  void ObserveAll(const std::vector<ExecutedQuery>& workload);

  /// Low-level log append — the seam for per-operator feedback sources
  /// (POST /v1/observe, and tests steering exactly which slots cross the
  /// refit policy). Under one hold of the log mutex, the batch goes to the
  /// WAL first (one WriteAheadLog::Append, so one write() unless a seal
  /// splits it) and then into memory in order. A failed WAL write counts
  /// every row it did not acknowledge in durability_stats().wal
  /// .append_failures, and memory still takes every row (degraded
  /// durability).
  void Append(const ObservationRow* rows, size_t count);
  void Append(OpType op, Resource resource, const FeatureVector& row,
              double label) {
    const ObservationRow one{op, resource, row, label};
    Append(&one, 1);
  }

  /// Slots whose logs currently cross the refit policy.
  std::vector<ModelSlotId> AffectedSlots() const;

  struct RefitResult {
    /// The delta estimator; null when no slot crossed the policy (the
    /// refit was a no-op and nothing was published).
    std::shared_ptr<const ResourceEstimator> estimator;
    std::vector<ModelSlotId> refitted;
    /// Registry version when published via RefitAndPublish; 0 otherwise.
    uint64_t version = 0;

    explicit operator bool() const { return estimator != nullptr; }
  };

  /// Retrains only the slots whose logs crossed the policy and returns the
  /// delta (untouched slots share the predecessor's model sets by pointer).
  /// A no-op — returning a null estimator — when nothing crossed.
  RefitResult RefitAffected();

  /// Forces a refit of every slot that has any rows — a full rebuild from
  /// the cumulative logs (byte-identical to from-scratch training on them
  /// while nothing has been evicted).
  RefitResult RefitAll();

  /// Publishes the current baseline (after SeedAndTrain/Restore) under
  /// `name`; later RefitAndPublish calls delta-publish against it. Returns
  /// the version, 0 if there is no baseline.
  uint64_t PublishBaseline(ModelRegistry* registry, const std::string& name);

  /// RefitAffected + ModelRegistry::PublishDelta — the complete observe ->
  /// refit -> republish step. Below-threshold refits publish nothing and
  /// leave the registry untouched. When durable, the published coverage is
  /// recorded in the WAL (refit markers + fsync) so a restart does not
  /// re-refit work the published model already represents.
  RefitResult RefitAndPublish(ModelRegistry* registry, const std::string& name);

  /// Adopts an externally obtained baseline without touching the logs.
  /// CAUTION: a refit trains each slot from its cumulative log *only* — the
  /// log is the slot's complete dataset. Attaching a baseline whose
  /// training rows are not in the logs means a later refit of a slot
  /// discards that baseline's data for it (down to a constant model if the
  /// log holds fewer than min_rows_per_operator rows). Use Restore(), which
  /// reloads logs and model together, for the restart path; after a bare
  /// Attach, re-seed the logs (ObserveAll) before relying on refits.
  void Attach(std::shared_ptr<const ResourceEstimator> base, uint64_t version);

  /// Persists registry model + lineage (ModelRegistry::SaveActive), then
  /// makes the log state durable: with durability enabled, a checkpoint
  /// marker (full coverage snapshot) is appended to the WAL and fsync'd —
  /// the rows themselves are already in the log, so no full-log
  /// serialization happens; without it, the legacy whole-log
  /// `<dir>/<name>.obslog` image is written atomically. Checkpoint at a
  /// *published* boundary (right after RefitAndPublish, or before any
  /// refit): the saved model is the registry's active version.
  bool Checkpoint(const ModelRegistry& registry, const std::string& name,
                  const std::string& dir) const;

  /// Republishes the persisted model (PublishFromFile, lineage included)
  /// and attaches it as the baseline. With durability enabled the logs
  /// were already rebuilt by EnableDurability()'s replay; otherwise they
  /// are loaded from the legacy `.obslog` image. Returns the published
  /// version, 0 on failure (registry untouched when the model or log state
  /// is missing or corrupt).
  uint64_t Restore(ModelRegistry* registry, const std::string& name,
                   const std::string& dir);

  /// Drain hook for serving processes: appends a checkpoint marker, fsyncs
  /// and seals the active WAL into an immutable segment — after the last
  /// response, before exit 0. No-op (true) when not durable.
  bool DrainWal();

  /// fsyncs the active WAL file. No-op (true) when not durable.
  bool FlushWal();

  /// Raw log (de)serialization (the legacy full-image path; durable
  /// trainers rarely need it). Checkpoint/Restore are the usual entry.
  bool SaveLogs(const std::string& path) const;
  bool LoadLogs(const std::string& path);

  struct SlotLogStats {
    size_t rows = 0;       ///< Lifetime rows appended to the slot's log.
    size_t pending = 0;    ///< Rows appended since the slot's last refit.
    size_t window = 0;     ///< Rows currently held verbatim.
    size_t reservoir = 0;  ///< Rows currently held in the reservoir.
  };
  SlotLogStats LogStats(OpType op, Resource resource) const;
  size_t TotalPendingRows() const;

  DurabilityStats durability_stats() const;
  /// False once a WAL write failed (observations still serve refits but no
  /// longer survive a restart) — surface this on /metrics and health.
  bool durable_ok() const;

  std::shared_ptr<const ResourceEstimator> base() const;
  uint64_t base_version() const;
  const TrainOptions& options() const { return options_; }
  const RefitPolicy& policy() const { return policy_; }
  const LogBounds& bounds() const { return bounds_; }

 private:
  /// Per-slot dataset: a bounded window of the newest rows plus a
  /// deterministic reservoir of evicted ones. `total_rows` counts lifetime
  /// appends, `label_sum` is the running ordered sum over every appended
  /// label (so the refit's fallback mean is bit-identical to from-scratch
  /// training's ordered summation), and `refit_rows` is the lifetime count
  /// covered by the last refit.
  struct ObservationLog {
    std::deque<FeatureVector> window_rows;
    std::deque<double> window_labels;
    std::vector<FeatureVector> reservoir_rows;
    std::vector<double> reservoir_labels;
    uint64_t reservoir_seen = 0;  ///< Rows ever offered to the reservoir.
    uint64_t rng_state = 0;       ///< Deterministic per-slot generator.
    uint64_t total_rows = 0;
    double label_sum = 0.0;
    uint64_t refit_rows = 0;
    double refit_mean = 0.0;
    /// When the oldest currently-pending row was appended (age trigger);
    /// meaningful only while total_rows > refit_rows.
    std::chrono::steady_clock::time_point first_pending_at{};
  };

  using LogArray =
      std::array<std::array<ObservationLog, kNumResources>, kNumOpTypes>;

  bool CrossedLocked(const ObservationLog& log,
                     std::chrono::steady_clock::time_point now) const;
  /// The in-memory half of an append (window push + spill); caller holds
  /// mu_. Shared verbatim by live appends and WAL replay so both walk the
  /// exact same eviction/reservoir decisions.
  void ApplyRowLocked(size_t op, size_t resource, const FeatureVector& row,
                      double label);
  /// Evicts the oldest row of `log` into its reservoir (algorithm R).
  void EvictOldestLocked(ObservationLog* log);
  /// Spills until the tracker is back under its cap (or windows are empty).
  void EnforceCapLocked();
  /// Applies one replayed WAL record; caller holds mu_.
  void ApplyWalRecordLocked(const WalRecord& record);
  /// Full-coverage checkpoint marker of the current state; caller holds mu_.
  WalRecord BuildCheckpointLocked() const;
  /// After logs_ was wholesale-replaced (LoadLogs/Restore): rebuilds the
  /// tracker, restarts pending-age clocks, re-applies the bounds.
  void NormalizeLoadedLocked();
  /// The refit body; caller must hold refit_mu_.
  RefitResult RefitLocked(bool force);
  /// Parses a SaveLogs byte image; false on corrupt input (`*out`
  /// unspecified then).
  bool ParseLogs(const std::vector<uint8_t>& bytes, LogArray* out) const;
  void SeedLogRngsLocked();

  const TrainOptions options_;
  const RefitPolicy policy_;
  ThreadPool* const pool_;
  const LogBounds bounds_;

  mutable std::mutex mu_;  ///< Guards logs_, base_, base_version_,
                           ///< unpublished_refits_, wal_, tracker_.
  LogArray logs_;
  MemoryTracker tracker_;
  uint64_t spilled_rows_ = 0;
  std::shared_ptr<const ResourceEstimator> base_;
  uint64_t base_version_ = 0;
  /// Slots refitted since base_version_ was last published. A publish must
  /// stamp with its new version every slot that diverged from the published
  /// base — including ones refitted by earlier unpublished RefitAffected/
  /// RefitAll rounds — or stale cache entries could hit under an
  /// unchanged-looking slot version.
  std::vector<ModelSlotId> unpublished_refits_;

  /// Durable mode (EnableDurability): the WAL is written strictly under
  /// mu_, so its record order IS the in-memory append order — the property
  /// replay determinism rests on. Mutable: the const Checkpoint() appends
  /// the checkpoint marker.
  mutable std::unique_ptr<WriteAheadLog> wal_;
  RecoveryStats recovery_;

  /// Serializes refits — and, in RefitAndPublish, the whole
  /// refit-then-publish step — with each other: two concurrent publishers
  /// must not delta-publish against the same base version, or the second
  /// delta's lineage would under-stamp the first's refitted slots.
  std::mutex refit_mu_;
};

}  // namespace resest

#endif  // RESEST_TRAINING_INCREMENTAL_TRAINER_H_
