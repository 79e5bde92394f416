#include "src/serving/batch_coalescer.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/common/loop_pass.h"

namespace resest {
namespace {

/// The coalescer whose Launch() is inside SubmitBatch on this thread, so
/// Complete() can tell an inline completion from one on another thread.
thread_local const BatchCoalescer* tl_submitting = nullptr;

// Index of the power-of-two bucket counting `value`: the first i with
// value < 2^i, saturated to the last bucket.
template <size_t N>
size_t Log2Bucket(double value) {
  double bound = 1.0;
  for (size_t i = 0; i + 1 < N; ++i) {
    if (value < bound) return i;
    bound *= 2.0;
  }
  return N - 1;
}

}  // namespace

BatchCoalescer::BatchCoalescer(const EstimationService* service,
                               CoalescerOptions options)
    : service_(service),
      max_rows_(std::min(options.max_rows,
                         service->options().max_batch_size)) {}

BatchCoalescer::~BatchCoalescer() {
  Flush();
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return IdleLocked(); });
}

void BatchCoalescer::Submit(std::vector<EstimateRequest> rows,
                            const SubmitOptions& options, BatchCallback done) {
  const size_t n = rows.size();
  // Deadlines stay per-submission; oversized groups can't gain partners; an
  // empty group has nothing to merge. All forward solo with exact options.
  if (max_rows_ < 2 || options.has_deadline() || n == 0 || n >= max_rows_) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.passthrough;
    }
    service_->SubmitBatch(std::move(rows), std::move(done), options);
    return;
  }

  const size_t index = static_cast<size_t>(options.priority);
  std::optional<Batch> ahead;
  std::optional<Batch> batch;
  bool hold = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Lane& lane = lanes_[index];
    if (!lane.rows.empty() && lane.rows.size() + n > max_rows_) {
      ahead = TakeLocked(index, FlushReason::kFull);  // no room
    }
    Entry entry;
    entry.done = std::move(done);
    entry.offset = lane.rows.size();
    entry.count = n;
    entry.enqueued = std::chrono::steady_clock::now();
    lane.entries.push_back(std::move(entry));
    lane.rows.insert(lane.rows.end(), std::make_move_iterator(rows.begin()),
                     std::make_move_iterator(rows.end()));
    ++stats_.submissions;
    if (options.priority == TaskPriority::kUrgent) {
      // Urgent never waits: take whatever raced in and go.
      batch = TakeLocked(index, FlushReason::kUrgent);
    } else if (lane.rows.size() >= max_rows_) {
      batch = TakeLocked(index, FlushReason::kFull);
    } else if (lane.inflight == 0 && LoopPass::Active()) {
      // On an event loop, the idle lane flushes when the loop's pass ends,
      // so the requests parsed later in the same pass join this one.
      ++held_;
      hold = true;
    } else if (lane.inflight == 0) {
      batch = TakeLocked(index, FlushReason::kIdle);
    }
    // Otherwise the rows ride the batch queued after the running one.
  }
  if (hold) LoopPass::Defer([this, index] { FlushHeld(index); });
  if (ahead) Launch(std::move(*ahead));
  if (batch) Launch(std::move(*batch));
}

void BatchCoalescer::FlushHeld(size_t index) {
  std::optional<Batch> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --held_;
    Lane& lane = lanes_[index];
    // Another loop's pass, or a chained flush, may have taken the rows.
    if (lane.inflight == 0 && !lane.entries.empty()) {
      batch = TakeLocked(index, FlushReason::kIdle);
    } else if (IdleLocked()) {
      idle_cv_.notify_all();  // under the lock, as in Complete()
    }
  }
  if (!batch) return;
  if (batch->entries.size() > 1 &&
      batch->rows.size() <= kInlineBatchMaxItems) {
    // Several requests met in one pass: the loop has more input than it
    // should run inline, so a worker runs their small batch while the loop
    // reads on. (A wider batch fans out to the pool by itself.)
    SendToPool(std::move(*batch));
    return;
  }
  Launch(std::move(*batch));
}

void BatchCoalescer::Flush() {
  std::vector<Batch> batches;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t lane = 0; lane < lanes_.size(); ++lane) {
      if (!lanes_[lane].entries.empty()) {
        batches.push_back(TakeLocked(lane, FlushReason::kDrain));
      }
    }
  }
  for (Batch& batch : batches) Launch(std::move(batch));
}

CoalescerStats BatchCoalescer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

BatchCoalescer::Batch BatchCoalescer::TakeLocked(size_t index,
                                                 FlushReason reason) {
  Lane& lane = lanes_[index];
  Batch batch;
  batch.rows = std::move(lane.rows);
  batch.entries = std::move(lane.entries);
  batch.lane = index;
  lane.rows.clear();
  lane.entries.clear();
  ++lane.inflight;

  ++stats_.batches;
  stats_.coalesced_rows += batch.rows.size();
  switch (reason) {
    case FlushReason::kIdle: ++stats_.flush_idle; break;
    case FlushReason::kChained: ++stats_.flush_chained; break;
    case FlushReason::kFull: ++stats_.flush_full; break;
    case FlushReason::kUrgent: ++stats_.flush_urgent; break;
    case FlushReason::kDrain: ++stats_.flush_drain; break;
  }
  stats_.batch_rows_histogram[Log2Bucket<kCoalesceRowsBuckets>(
      static_cast<double>(batch.rows.size()))]++;
  const auto now = std::chrono::steady_clock::now();
  for (const Entry& e : batch.entries) {
    const double wait_us =
        std::chrono::duration<double, std::micro>(now - e.enqueued).count();
    stats_.total_wait_us += wait_us;
    stats_.wait_histogram[Log2Bucket<kCoalesceWaitBuckets>(wait_us)]++;
  }
  return batch;
}

void BatchCoalescer::Launch(Batch batch) {
  SubmitOptions options;
  options.priority = static_cast<TaskPriority>(batch.lane);
  const BatchCoalescer* const outer = tl_submitting;
  tl_submitting = this;
  service_->SubmitBatch(
      std::move(batch.rows),
      [this, lane = batch.lane, entries = std::move(batch.entries)](
          std::vector<EstimateResult> results) mutable {
        Complete(lane, &entries, std::move(results));
      },
      options);
  tl_submitting = outer;
}

void BatchCoalescer::Complete(size_t index, std::vector<Entry>* entries,
                              std::vector<EstimateResult> results) {
  for (Entry& e : *entries) {
    std::vector<EstimateResult> slice(
        std::make_move_iterator(results.begin() + e.offset),
        std::make_move_iterator(results.begin() + e.offset + e.count));
    e.done(std::move(slice));
  }
  std::optional<Batch> chained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Lane& lane = lanes_[index];
    // Release this batch's slot and take the queued rows in one critical
    // section: the lane stays in flight across the hand-off, so the
    // destructor cannot return in between.
    --lane.inflight;
    if (!lane.entries.empty()) {
      chained = TakeLocked(index, FlushReason::kChained);
    } else if (IdleLocked()) {
      // Notify under the lock: the destructor destroys idle_cv_ as soon as
      // it observes every lane idle, so an unlocked notify could touch a
      // dead condition variable.
      idle_cv_.notify_all();
    }
  }
  if (!chained) return;
  if (tl_submitting == this) {
    // This batch completed inside its own submit call, as small batches do.
    // The rows queued behind it while it ran (by other event loops, or by
    // its own callbacks) go to the pool: a submitting thread runs at most
    // the one batch it sent, never a stream of other threads' work, and
    // the stack never grows through back-to-back inline completions.
    SendToPool(std::move(*chained));
    return;
  }
  Launch(std::move(*chained));
}

void BatchCoalescer::SendToPool(Batch batch) {
  // The batch holds its in-flight slot while queued, so `this` outlives the
  // task.
  const auto priority = static_cast<TaskPriority>(batch.lane);
  auto send = [this, next = std::move(batch)]() mutable {
    Launch(std::move(next));
  };
  service_->pool()->Submit(priority, std::move(send));
}

bool BatchCoalescer::IdleLocked() const {
  return held_ == 0 &&
         std::all_of(lanes_.begin(), lanes_.end(),
                     [](const Lane& lane) { return lane.inflight == 0; });
}

}  // namespace resest
