#include "src/common/thread_pool.h"

#include <stdexcept>
#include <utility>

namespace resest {

const char* TaskPriorityName(TaskPriority p) {
  switch (p) {
    case TaskPriority::kUrgent:
      return "urgent";
    case TaskPriority::kNormal:
      return "normal";
    case TaskPriority::kBulk:
      return "bulk";
  }
  return "unknown";
}

bool ParseTaskPriority(const std::string& name, TaskPriority* out) {
  for (size_t i = 0; i < kNumTaskPriorities; ++i) {
    const TaskPriority p = static_cast<TaskPriority>(static_cast<int>(i));
    if (name == TaskPriorityName(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  try {
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this]() { WorkerLoop(); });
    }
  } catch (...) {
    // A failed spawn (thread exhaustion) must release the workers already
    // parked on the condition variable, or destroying joinable threads
    // calls std::terminate instead of propagating the exception.
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_available_.notify_all();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::AllLanesEmptyLocked() const {
  for (const auto& lane : lanes_) {
    if (!lane.empty()) return false;
  }
  return true;
}

void ThreadPool::Enqueue(TaskPriority priority, Entry entry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      throw std::runtime_error("ThreadPool: Submit after shutdown");
    }
    lanes_[static_cast<size_t>(priority)].push_back(std::move(entry));
  }
  work_available_.notify_one();
}

void ThreadPool::SubmitSteps(TaskPriority priority,
                             std::function<bool()> step) {
  Entry entry;
  entry.step = std::make_shared<const std::function<bool()>>(std::move(step));
  Enqueue(priority, std::move(entry));
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock,
                 [this]() { return AllLanesEmptyLocked() && active_ == 0; });
}

size_t ThreadPool::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t depth = 0;
  for (const auto& lane : lanes_) depth += lane.size();
  return depth;
}

size_t ThreadPool::QueueDepth(TaskPriority priority) const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_[static_cast<size_t>(priority)].size();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_available_.wait(
        lock, [this]() { return shutdown_ || !AllLanesEmptyLocked(); });
    // Drain every lane before exiting so ~ThreadPool never drops work.
    std::deque<Entry>* lane = nullptr;
    for (auto& candidate : lanes_) {
      if (!candidate.empty()) {
        lane = &candidate;
        break;
      }
    }
    if (lane == nullptr) return;
    Entry entry;
    if (lane->front().step != nullptr) {
      // A steppable entry stays at the front for the next pick.
      entry.step = lane->front().step;
    } else {
      entry = std::move(lane->front());
      lane->pop_front();
    }
    ++active_;
    lock.unlock();
    if (entry.step == nullptr) {
      entry.task();
    } else {
      // A sleeping worker may join the entry at once.
      work_available_.notify_one();
      if (!(*entry.step)()) {
        // Workers that picked the entry before this pop may still return
        // false from their own step; only the first finds it at the front.
        lock.lock();
        if (!lane->empty() && lane->front().step == entry.step) {
          lane->pop_front();
        }
        lock.unlock();
      }
    }
    // Released outside the lock: a task's or step's captures may run
    // arbitrary code when they are destroyed.
    entry = Entry{};
    lock.lock();
    --active_;
    if (AllLanesEmptyLocked() && active_ == 0) all_idle_.notify_all();
  }
}

}  // namespace resest
