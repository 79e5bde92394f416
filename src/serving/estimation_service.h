// The prediction-serving front end (paper Figure 5): a thread-safe service
// answering single and batched resource-estimate requests from the active
// model in a ModelRegistry, fanning batches out across a ThreadPool.
//
// Results are returned in request order and are bit-identical to calling
// ResourceEstimator::EstimateQuery serially: each request's estimate is an
// independent computation against an immutable estimator snapshot, so the
// floating-point evaluation order within a request never changes. The
// cross-request estimate cache preserves this bit-for-bit — a hit returns
// the exact double a miss would have computed (see estimate_cache.h).
//
// Small batches (at most kInlineBatchMaxItems work items) run to completion
// on the calling thread, inside the submit call (see EstimationService); the
// scheduling below applies to larger batches.
//
// Scheduling: every batch carries a TaskPriority and an optional deadline
// (SubmitOptions). A larger batch is one steppable entry on the ThreadPool
// lane matching its priority; each worker step runs one chunk and then
// picks again from the highest non-empty lane. The pool's lanes are the
// only scheduler, so an urgent batch (admission probes) overtakes queued
// normal or bulk batches at chunk granularity across every service sharing
// the pool, and batches of one lane run FIFO whichever service or tenant
// submitted them. Deadlines are best-effort expiry, not cancellation: a
// chunk that has not started when its batch's deadline passes completes
// with kDeadlineExceeded without executing, while a started chunk always
// runs to completion and returns the normal bit-identical value.
#ifndef RESEST_SERVING_ESTIMATION_SERVICE_H_
#define RESEST_SERVING_ESTIMATION_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/arena.h"
#include "src/common/thread_pool.h"
#include "src/serving/estimate_cache.h"
#include "src/serving/estimate_status.h"
#include "src/serving/model_registry.h"

namespace resest {

/// One estimation request. Two payload kinds share the struct (the unified
/// request API — in-process and wire clients submit through the same batch
/// pipeline, with the same caching, scheduling and stats):
///
///  - Plan-based (the in-process default): an annotated plan on a database,
///    for a resource; the estimate sums over the plan's operators. `plan`
///    and `database` must outlive the call (for SubmitBatch: until the
///    callback has run).
///  - Operator-based (what the HTTP front end maps wire requests onto, see
///    src/server/): `has_features` set, one operator type plus an
///    already-extracted feature vector; `plan`/`database` are ignored. The
///    result is bit-identical to
///    ResourceEstimator::EstimateFromFeatures(op, features, resource), and
///    is memoized in the same slot-version-keyed estimate cache as the
///    per-operator terms of plan-based requests.
struct EstimateRequest {
  const Plan* plan = nullptr;
  const Database* database = nullptr;
  Resource resource = Resource::kCpu;
  /// Operator-based payload; only read when has_features is set.
  OpType op = OpType::kTableScan;
  FeatureVector features{};
  bool has_features = false;

  static EstimateRequest ForOperator(OpType op, const FeatureVector& features,
                                     Resource resource) {
    EstimateRequest r;
    r.resource = resource;
    r.op = op;
    r.features = features;
    r.has_features = true;
    return r;
  }
};

struct EstimateResult {
  EstimateStatus status = EstimateStatus::kOk;
  double value = 0.0;
  uint64_t model_version = 0;  ///< Version that served the request.

  bool ok() const { return status == EstimateStatus::kOk; }
};

/// Per-submission scheduling knobs for SubmitBatch and EstimateBatch.
/// Default-constructed options mean kNormal priority and no deadline.
struct SubmitOptions {
  TaskPriority priority = TaskPriority::kNormal;
  /// Best-effort expiry point (steady clock). Chunks not yet started when
  /// the deadline passes return kDeadlineExceeded without executing;
  /// started chunks always finish with their normal value. The default
  /// (time_point::max()) means "no deadline".
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
};

struct ServiceOptions {
  std::string model_name = "default";
  size_t max_batch_size = 4096;  ///< Larger batches are rejected whole.
  /// Requests per pool task when fanning out a batch. 0 (the default) means
  /// adaptive: the batch is split into ~3 chunks per pool worker — enough
  /// slack for work stealing and chunk-granular preemption — then clamped
  /// to a per-lane cap (urgent 8, normal 64, bulk 256; see
  /// EffectiveChunkSize). Small chunks balance load and keep urgent
  /// latency low; large chunks amortize the claim/countdown round-trip and
  /// widen the cross-request compiled-forest sweeps, which is where
  /// the batched throughput comes from (measured: fixed chunk_size=8 left
  /// the batched uncached path ~30% *slower* than serial; adaptive sizing
  /// plus chunk-level grouping turned it into the 3x+ win BENCH_serving.json
  /// tracks). A non-zero value pins every batch's chunk size verbatim.
  /// Batches of at most kInlineBatchMaxItems work items are always one
  /// chunk, run on the submitting thread, whatever this is set to.
  size_t chunk_size = 0;
  /// Cross-request (slot version, op, resource, features) estimate cache.
  bool enable_cache = true;
  size_t cache_capacity = 64 * 1024;  ///< Entries, across all shards.
  size_t cache_shards = 16;
  /// Observability/test seam: invoked on the executing thread each time a
  /// chunk is claimed — after the deadline check, before any request runs
  /// (`expired` tells which way it went). Must not call back into the
  /// service. Null (the default) costs nothing.
  std::function<void(TaskPriority priority, bool expired)> chunk_claim_hook;
};

/// Work items (distinct requests, after a batch's identity dedup) at or
/// below which a batch is one chunk run to completion on the submitting
/// thread, before the submit call returns: a few rows cost less to estimate
/// than a pool hand-off. Also the urgent lane's chunk cap.
inline constexpr size_t kInlineBatchMaxItems = 8;

/// Latency histogram: bucket `i` counts batches that completed in under
/// 2^i microseconds (the last bucket also absorbs anything slower). Coarse
/// by design — enough for a p99 trend line, cheap enough for the hot path.
inline constexpr size_t kServiceLatencyBuckets = 20;

/// Per-priority accounting of admitted batches. Latency is measured per
/// batch, submission to completion; a one-request batch's latency is the
/// request latency.
struct PriorityLaneStats {
  uint64_t batches = 0;   ///< Batches finished at this priority.
  uint64_t requests = 0;  ///< Requests completed OK.
  uint64_t expired = 0;   ///< Requests expired by their deadline.
  double total_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  std::array<uint64_t, kServiceLatencyBuckets> latency_histogram{};

  double MeanLatencyMs() const {
    return batches == 0 ? 0.0 : total_latency_ms / static_cast<double>(batches);
  }
  /// Upper bound (ms) of the histogram bucket containing the p-th
  /// percentile batch (p in [0, 1]); 0 when no batch finished yet.
  double ApproxLatencyPercentileMs(double p) const;
};

/// Aggregate counters; values are monotonically increasing except
/// cache_entries (a point-in-time size).
struct ServiceStats {
  uint64_t requests = 0;          ///< Individual estimates served OK.
  uint64_t batches = 0;           ///< Batch calls accepted.
  uint64_t rejected_batches = 0;  ///< Batch calls rejected as oversized.
  uint64_t errors = 0;  ///< Non-OK requests other than deadline expiry.
  uint64_t deadline_expired = 0;  ///< Requests expired by their deadline.
  // Operator-estimate cache counters (all zero when the cache is disabled).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  size_t cache_entries = 0;
  /// Indexed by TaskPriority; see PriorityLaneStats.
  std::array<PriorityLaneStats, kNumTaskPriorities> priorities{};

  double CacheHitRate() const {
    return resest::CacheHitRate(cache_hits, cache_misses);
  }
  const PriorityLaneStats& ForPriority(TaskPriority p) const {
    return priorities[static_cast<size_t>(p)];
  }
};

/// Invoked exactly once per submitted batch, with one result per request in
/// request order. Runs on whichever thread completes the batch's last chunk:
/// the submitter, before the submit call returns, for small batches (at most
/// kInlineBatchMaxItems work items) and degenerate/rejected ones; otherwise
/// a pool worker.
/// Callbacks must not throw; an escaping exception is swallowed so batch
/// completion and service shutdown can never be derailed by a callback.
using BatchCallback = std::function<void(std::vector<EstimateResult>)>;

/// Thread-safe estimation front end. All methods may be called concurrently;
/// the registry and pool must outlive the service. The destructor blocks
/// until every submitted batch has completed (callbacks delivered), so
/// in-flight work never touches a dead service.
///
/// Two ways in: the callback SubmitBatch and the blocking EstimateBatch.
///
/// Reentrancy: both entry points, including the blocking EstimateBatch, are
/// safe to call from tasks running on the service's own pool, and from a
/// completion callback (a small batch completes inside the submit call, so
/// a caller must not hold a lock its callback takes). Batches are
/// completion-driven (an atomic chunk countdown, finished by whichever
/// thread drains the last chunk), and a blocking caller helps execute its
/// own chunks instead of parking on workers — so even a saturated or
/// single-threaded pool cannot deadlock a nested call.
///
/// Small batches (at most kInlineBatchMaxItems work items, counted after
/// identity dedup) bypass all of the below: whatever their priority, they
/// run as one chunk on the submitting thread and complete (callback run)
/// before the submit call returns — no pool hand-off. A caller that serves
/// many clients on one thread (an HTTP I/O loop) therefore delays its next
/// client by each small batch's own execution time.
///
/// Priority: a larger batch is one steppable entry on its priority's pool
/// lane (ThreadPool::SubmitSteps). A worker that picks it runs one chunk
/// and picks again from the highest non-empty lane, so a bulk scan in
/// progress delays an urgent batch by at most one chunk per busy worker,
/// whichever service queued either. Blocking callers only ever drain their
/// own batch, so a blocking urgent caller never executes bulk work.
class EstimationService {
 public:
  EstimationService(const ModelRegistry* registry, ThreadPool* pool,
                    ServiceOptions options = {});
  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  /// Estimates a batch, fanned out across the pool in chunks; blocks until
  /// every result is ready. The whole batch is served from one model
  /// snapshot, so all results carry the same model_version even if a
  /// publish races the call. Returns one result per request, in request
  /// order. Empty input returns an empty vector; oversized input returns
  /// kBatchTooLarge for every request; a batch whose deadline has already
  /// passed returns kDeadlineExceeded for every request without executing.
  /// The calling thread drains the batch's own chunks beside the pool; a
  /// batch of at most kInlineBatchMaxItems work items runs as one chunk on
  /// it.
  std::vector<EstimateResult> EstimateBatch(
      const std::vector<EstimateRequest>& requests,
      const SubmitOptions& submit_options = {}) const;

  /// Asynchronous batch submission: `done` is invoked exactly once, with
  /// the results EstimateBatch would return. A batch of at most
  /// kInlineBatchMaxItems work items, or a degenerate one, completes on the
  /// calling thread before this returns; a larger one is fanned out to the
  /// pool and this returns without waiting for it. The service copies
  /// `requests`; the pointed-to plans and databases must outlive
  /// completion.
  void SubmitBatch(std::vector<EstimateRequest> requests, BatchCallback done,
                   const SubmitOptions& submit_options = {}) const;

  /// The chunk size a batch of `batch_size` requests at `priority` will be
  /// split with: options().chunk_size when non-zero, otherwise the adaptive
  /// policy (~3 chunks per pool worker, clamped to a per-lane cap — urgent
  /// batches take small chunks so they can be preempted and finished
  /// quickly, bulk batches large ones to maximize sweep width). Exposed so
  /// benches and dashboards can report the effective value next to
  /// throughput numbers.
  /// At or below kInlineBatchMaxItems it is the whole batch: one chunk, run
  /// on the submitting thread.
  size_t EffectiveChunkSize(size_t batch_size, TaskPriority priority) const;

  ServiceStats stats() const;
  /// Full cache statistics including the per-shard breakdown (ServiceStats
  /// carries only the totals) — how an operator spots a skewed feature
  /// distribution hammering one shard of the live serving cache. All-zero
  /// with an empty `shards` vector when the cache is disabled.
  EstimateCacheStats cache_stats() const;
  const ServiceOptions& options() const { return options_; }
  /// The pool that runs batches above kInlineBatchMaxItems; callers may
  /// queue their own follow-up work on it.
  ThreadPool* pool() const { return pool_; }

 private:
  struct BatchState;

  /// The grouped compiled-forest fast path for `count` consecutive requests
  /// (one scheduler chunk — the unit one thread serves). Every operator of
  /// every request in the chunk that misses the cache (all of them when the
  /// cache is disabled) is grouped by (operator type, resource) and
  /// predicted in one batched sweep per group; each request's estimate is
  /// then summed in the canonical pre-order traversal order. There is no
  /// row dedup here: the batch's identity dedup already made its requests
  /// distinct, and the cache absorbs repeats across chunks and batches.
  /// Bit-identical to serial ResourceEstimator::EstimateQuery per request:
  /// batched predictions equal their scalar counterparts byte for byte,
  /// cache hits return memoized doubles, and each request's summation order
  /// is unchanged — only *which requests share a sweep* differs, and
  /// predictions are row-independent. All scratch (term values, extracted
  /// features, miss records, packing matrices) comes from `scratch`; the
  /// caller Reset()s it between chunks, so the steady-state chunk performs
  /// zero heap allocations. `snapshot` must be valid.
  void EstimateChunk(const ModelSnapshot& snapshot,
                     const EstimateRequest* requests, size_t count,
                     EstimateResult* results, Arena* scratch) const;

  /// Builds a batch state delivering to `done`; `results` pre-filled for
  /// degenerate batches (empty, oversized, expired-at-submit, no model).
  std::shared_ptr<BatchState> MakeBatch(std::vector<EstimateRequest> requests,
                                        BatchCallback done,
                                        const SubmitOptions& submit_options)
      const;
  /// Enqueues a larger batch as one steppable entry on its priority's pool
  /// lane, or completes a degenerate or small batch on the calling thread.
  /// Never waits on another thread.
  void LaunchBatch(const std::shared_ptr<BatchState>& state) const;
  /// Claims and runs one chunk of `state` (expiring it instead when the
  /// batch deadline has passed); finishes the batch when it was the last.
  /// Returns whether unclaimed chunks may remain: false once the chunk
  /// cursor is exhausted, including by this call's claim. This is the
  /// step function of the batch's pool entry.
  bool RunOneChunk(const std::shared_ptr<BatchState>& state) const;
  /// Drains all remaining chunks of one batch; used by blocking callers
  /// (who must only ever execute their own batch) and shutdown fallback.
  void RunChunks(const std::shared_ptr<BatchState>& state) const;
  /// Delivers the results to the batch's callback and tallies per-request
  /// and per-priority stats. Called exactly once per batch, by whichever
  /// thread drains last.
  void FinishBatch(BatchState* state) const;

  /// In-flight accounting for pool entries (each can call into `this`
  /// until the pool destroys it); the destructor waits for the count to
  /// reach zero.
  void AcquireInflight() const;
  void ReleaseInflight() const;

  const ModelRegistry* registry_;
  ThreadPool* pool_;
  ServiceOptions options_;
  mutable std::unique_ptr<EstimateCache> cache_;  ///< Null when disabled.

  mutable std::atomic<uint64_t> requests_{0};
  mutable std::atomic<uint64_t> batches_{0};
  mutable std::atomic<uint64_t> rejected_batches_{0};
  mutable std::atomic<uint64_t> errors_{0};
  mutable std::atomic<uint64_t> deadline_expired_{0};

  /// Per-priority accounting, aggregated into ServiceStats::priorities.
  struct LaneCounters {
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> expired{0};
    std::atomic<uint64_t> latency_total_us{0};
    std::atomic<uint64_t> latency_max_us{0};
    std::array<std::atomic<uint64_t>, kServiceLatencyBuckets> histogram{};
  };
  mutable std::array<LaneCounters, kNumTaskPriorities> lane_counters_;

  mutable std::mutex inflight_mu_;
  mutable std::condition_variable inflight_idle_;
  /// Pool entries not yet destroyed by the pool (one per batch above
  /// kInlineBatchMaxItems work items).
  mutable size_t inflight_ = 0;
};

}  // namespace resest

#endif  // RESEST_SERVING_ESTIMATION_SERVICE_H_
