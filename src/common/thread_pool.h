// A fixed-size worker pool with a lock-based, priority-laned task queue.
// Shared by the serving layer (batched estimation fan-out) and parallel
// model training (ResourceEstimator::Train), which is why it lives in
// src/common/ rather than src/serving/. Its lanes are the one scheduler of
// pool-bound work: a batch is a steppable entry whose chunks workers claim
// one step at a time, so priority is decided again at every chunk boundary,
// across every subsystem sharing the pool.
#ifndef RESEST_COMMON_THREAD_POOL_H_
#define RESEST_COMMON_THREAD_POOL_H_

#include <array>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace resest {

/// Scheduling lane of a submitted task. Lanes are strictly ordered: a
/// worker never starts a kNormal task (or step) while a kUrgent entry is
/// queued, and never starts a kBulk one while anything else is queued.
/// Within a lane, entries run FIFO. The serving layer maps request
/// priorities onto these lanes (admission probes ride kUrgent over kBulk
/// re-optimization scans).
enum class TaskPriority : int {
  kUrgent = 0,  ///< Small latency-critical work (admission probes).
  kNormal = 1,  ///< Default; everything that predates lanes lands here.
  kBulk = 2,    ///< Large background scans that must never delay the rest.
};
inline constexpr size_t kNumTaskPriorities = 3;
const char* TaskPriorityName(TaskPriority p);

/// Inverse of TaskPriorityName ("urgent"/"normal"/"bulk"). True (and sets
/// *out) iff `name` matches a lane.
bool ParseTaskPriority(const std::string& name, TaskPriority* out);

/// Fixed-size pool of worker threads draining prioritized FIFO task lanes.
///
/// A lane holds two kinds of entry. A one-shot task (`Submit`) is popped
/// when a worker picks it and runs once. A steppable entry (`SubmitSteps`)
/// stays at the front of its lane while workers call its step function,
/// one call per pick, until some call returns false. Every worker picks
/// again from the highest non-empty lane after each task or step, so a
/// queued urgent entry preempts a normal or bulk one at step boundaries.
/// The destructor drains every lane (every entry submitted before
/// destruction runs to completion) and joins all workers. All public
/// methods are thread-safe.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a callable on the kNormal lane; returns a future for its
  /// result. Submitting after shutdown has begun throws std::runtime_error.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<decltype(fn())> {
    return Submit(TaskPriority::kNormal, std::forward<Fn>(fn));
  }

  /// Enqueues a callable on the given lane. Strict lane ordering: the task
  /// starts only when no higher-priority task is queued.
  template <typename Fn>
  auto Submit(TaskPriority priority, Fn&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    Enqueue(priority, Entry{[task]() { (*task)(); }, nullptr});
    return result;
  }

  /// Enqueues a steppable entry on the given lane. Each worker that picks
  /// it makes one `step()` call; several workers may call it concurrently.
  /// The entry stays at the front of its lane until some call returns
  /// false, is then popped exactly once, and `step` is destroyed after the
  /// last call in progress returns. `step` must not throw, and must keep
  /// returning false if called again after it first did. Submitting after
  /// shutdown has begun throws std::runtime_error.
  void SubmitSteps(TaskPriority priority, std::function<bool()> step);

  /// Blocks until every lane is empty and no task or step is running.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Entries currently queued across all lanes: one-shot tasks not yet
  /// started plus steppable entries not yet popped.
  size_t QueueDepth() const;
  /// Entries currently queued on one lane; for tests/metrics.
  size_t QueueDepth(TaskPriority priority) const;

 private:
  /// A lane entry: a one-shot `task`, or a shared `step` that stays queued
  /// until a call returns false.
  struct Entry {
    std::function<void()> task;
    std::shared_ptr<const std::function<bool()>> step;
  };

  void Enqueue(TaskPriority priority, Entry entry);
  void WorkerLoop();
  bool AllLanesEmptyLocked() const;

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  /// Index = TaskPriority; lower index drains first, FIFO within a lane.
  std::array<std::deque<Entry>, kNumTaskPriorities> lanes_;
  std::vector<std::thread> workers_;
  size_t active_ = 0;       ///< Tasks and steps currently executing.
  bool shutdown_ = false;   ///< Set once by the destructor.
};

}  // namespace resest

#endif  // RESEST_COMMON_THREAD_POOL_H_
