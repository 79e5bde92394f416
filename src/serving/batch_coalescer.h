// Cross-request micro-batch coalescing for the serving path: concurrent
// /v1/estimate submissions are merged into one EstimationService::SubmitBatch
// call, so the compiled-forest lockstep kernels and batch-level dedup see
// wide batches even when every wire client sends small ones. Results are
// demuxed back per submission — each caller receives exactly its own slice,
// in its own request order, so the wire responses are bit-identical to solo
// submissions (estimation is row-independent: only *which requests share a
// sweep* changes, never any request's value or status).
//
// Scheduling semantics (work-conserving, no timer):
//  - One lane per TaskPriority; a submission only ever merges with its own
//    priority, and the merged batch is submitted at that priority. Each
//    lane counts its merged batches in flight.
//  - A submission to an idle lane (no batch in flight) is sent at once, on
//    the calling thread. Rows that arrive while the lane's batch runs queue
//    in the lane; when that batch finishes, its demux callback sends them
//    as one batch on the thread that completed it. Batches grow with load
//    and an unloaded request never waits.
//  - A lane also flushes at once when it reaches max_rows (capped by the
//    service's max_batch_size, so a merged batch can never be rejected as
//    oversized when its parts were not), and at drain.
//  - Submissions never merge across tenants (SubmitOptions::tenant): a lane
//    holds one tenant's rows; a different tenant's arrival flushes the
//    queued rows first. Multi-tenant servers run one coalescer per tenant
//    anyway — this guard keeps isolation even if one is shared.
//  - kUrgent submissions never wait: they flush their lane immediately on
//    arrival (merging opportunistically with any urgent rows that raced in),
//    so an urgent probe cannot be held behind a running batch.
//  - Submissions carrying a deadline bypass coalescing entirely and are
//    forwarded solo with their exact SubmitOptions — deadline expiry stays
//    per-submission, never shared with unrelated requests.
//
// Thread-safe; owns no thread. The service must outlive the coalescer. The
// destructor flushes queued rows and blocks until every demux callback has
// run, so callers' completion handlers never fire after teardown.
#ifndef RESEST_SERVING_BATCH_COALESCER_H_
#define RESEST_SERVING_BATCH_COALESCER_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/serving/estimation_service.h"

namespace resest {

struct CoalescerOptions {
  /// Rows that flush a lane at once; clamped to the service's
  /// max_batch_size. 0 (or 1) disables coalescing: every submission is
  /// forwarded solo.
  size_t max_rows = 1024;
};

/// Power-of-two histograms: bucket i counts observations < 2^i units (the
/// last bucket absorbs the rest) — same shape as the service's latency
/// histogram, rendered the same way in /metrics.
inline constexpr size_t kCoalesceRowsBuckets = 13;  ///< rows, up to 4096.
inline constexpr size_t kCoalesceWaitBuckets = 16;  ///< µs, up to ~32ms.

struct CoalescerStats {
  uint64_t submissions = 0;   ///< Submit() calls that entered a lane.
  uint64_t passthrough = 0;   ///< Forwarded solo (disabled/deadline/oversize).
  uint64_t batches = 0;       ///< Merged batches sent to the service.
  uint64_t coalesced_rows = 0;  ///< Rows carried by those batches.
  // Flush-trigger breakdown (sums to `batches`).
  uint64_t flush_idle = 0;     ///< Sent on arrival to an idle lane.
  uint64_t flush_chained = 0;  ///< Queued rows sent as a batch finished.
  uint64_t flush_full = 0;
  uint64_t flush_urgent = 0;
  uint64_t flush_drain = 0;
  /// Always 0: batching has no timed window. Kept so readers of the old
  /// window-flush share (perfbench's serving.flush_window_share) read 0.
  uint64_t flush_window = 0;
  std::array<uint64_t, kCoalesceRowsBuckets> batch_rows_histogram{};
  std::array<uint64_t, kCoalesceWaitBuckets> wait_histogram{};
  double total_wait_us = 0.0;  ///< Summed over coalesced submissions.

  double MeanRowsPerBatch() const {
    return batches == 0
               ? 0.0
               : static_cast<double>(coalesced_rows) /
                     static_cast<double>(batches);
  }
};

class BatchCoalescer {
 public:
  /// `service` must outlive the coalescer.
  BatchCoalescer(const EstimationService* service,
                 CoalescerOptions options = {});
  ~BatchCoalescer();

  BatchCoalescer(const BatchCoalescer&) = delete;
  BatchCoalescer& operator=(const BatchCoalescer&) = delete;

  /// Submits one group of rows that must be answered together; `done`
  /// receives exactly rows.size() results in row order, exactly once,
  /// possibly before this returns (degenerate batches complete inline).
  /// Deadline-carrying options, empty groups, and groups at or above the
  /// effective max bypass the lanes and are forwarded solo.
  void Submit(std::vector<EstimateRequest> rows, const SubmitOptions& options,
              BatchCallback done);

  /// Sends every lane's queued rows now (drain hook); does not wait for the
  /// flushed batches to complete.
  void Flush();

  CoalescerStats stats() const;

 private:
  /// One caller's share of a batch: its demux callback plus the row range
  /// it owns within the merged batch.
  struct Entry {
    BatchCallback done;
    size_t offset = 0;
    size_t count = 0;
    std::chrono::steady_clock::time_point enqueued;
  };
  /// Rows queued for a priority lane's next merged batch.
  struct Lane {
    std::vector<EstimateRequest> rows;
    std::vector<Entry> entries;
    /// Tenant owning the queued rows (set by the first entry); arrivals
    /// from any other tenant flush the lane before starting their own.
    std::string tenant;
    size_t inflight = 0;  ///< Merged batches whose demux has not finished.
  };
  enum class FlushReason { kIdle, kChained, kFull, kUrgent, kDrain };
  /// A lane's queued rows detached under the lock, submitted outside it.
  struct Batch {
    std::vector<EstimateRequest> rows;
    std::vector<Entry> entries;
    std::string tenant;
    size_t lane = 0;
  };

  /// Detaches the lane's queued rows, records the flush in stats_ and
  /// counts the batch in flight (caller holds mu_).
  Batch TakeLocked(size_t lane, FlushReason reason);
  /// Submits `batch` to the service WITHOUT mu_ held. A batch completing
  /// inline hands its chained successor back to this call's loop instead
  /// of recursing, so back-to-back inline completions never grow the stack.
  void Launch(Batch batch);
  /// Demux callback: delivers each entry's slice, then sends the rows that
  /// queued meanwhile, or releases the lane's in-flight slot.
  void Complete(size_t lane, std::vector<Entry>* entries,
                std::vector<EstimateResult> results);

  const EstimationService* service_;
  /// options.max_rows clamped to the service's max_batch_size; coalescing
  /// is off when it is below 2.
  size_t max_rows_ = 0;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::array<Lane, kNumTaskPriorities> lanes_;
  CoalescerStats stats_;
};

}  // namespace resest

#endif  // RESEST_SERVING_BATCH_COALESCER_H_
