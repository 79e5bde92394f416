#include "src/serving/batch_coalescer.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>

namespace resest {
namespace {

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
  idle_cv_.wait(lock, [this] {
    return std::all_of(lanes_.begin(), lanes_.end(),
                       [](const Lane& lane) { return lane.inflight == 0; });
  });
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    Lane& lane = lanes_[index];
    if (!lane.rows.empty() && (lane.rows.size() + n > max_rows_ ||
                               lane.tenant != options.tenant)) {
      // No room, or another tenant's rows are queued — tenants never share
      // a merged batch.
      ahead = TakeLocked(index, FlushReason::kFull);
    }
    if (lane.entries.empty()) lane.tenant = options.tenant;
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
    } else if (lane.inflight == 0) {
      batch = TakeLocked(index, FlushReason::kIdle);
    }
    // Otherwise the rows ride the batch queued after the running one.
  }
  if (ahead) Launch(std::move(*ahead));
  if (batch) Launch(std::move(*batch));
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
  batch.tenant = std::move(lane.tenant);
  batch.lane = index;
  lane.rows.clear();
  lane.entries.clear();
  lane.tenant.clear();
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
  // The innermost Launch loop running on this thread. While it is inside
  // SubmitBatch, a batch of this coalescer completing inline chains its
  // successor here, and the loop submits it once SubmitBatch returns.
  struct Trampoline {
    const BatchCoalescer* owner;
    std::deque<Batch>* queue;
  };
  static thread_local Trampoline* active = nullptr;
  if (active != nullptr && active->owner == this) {
    active->queue->push_back(std::move(batch));
    return;
  }
  std::deque<Batch> queue;
  queue.push_back(std::move(batch));
  Trampoline self{this, &queue};
  Trampoline* const outer = active;
  active = &self;
  // Every queued batch holds an in-flight slot, so `this` outlives the loop
  // body; once the queue is empty the destructor may already have run.
  while (!queue.empty()) {
    Batch next = std::move(queue.front());
    queue.pop_front();
    SubmitOptions options;
    options.priority = static_cast<TaskPriority>(next.lane);
    options.tenant = std::move(next.tenant);
    service_->SubmitBatch(
        std::move(next.rows),
        [this, lane = next.lane, entries = std::move(next.entries)](
            std::vector<EstimateResult> results) mutable {
          Complete(lane, &entries, std::move(results));
        },
        options);
  }
  active = outer;
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
    } else if (lane.inflight == 0) {
      // Notify under the lock: the destructor destroys idle_cv_ as soon as
      // it observes every lane idle, so an unlocked notify could touch a
      // dead condition variable.
      idle_cv_.notify_all();
    }
  }
  if (chained) Launch(std::move(*chained));
}

}  // namespace resest
