#include "engine/thread_pool.hpp"

#include <utility>

#include "common/error.hpp"

namespace biosens::engine {

ThreadPool::ThreadPool(std::size_t workers, std::size_t queue_capacity)
    : capacity_(queue_capacity) {
  require<SpecError>(workers >= 1, "thread pool needs at least one worker");
  require<SpecError>(queue_capacity >= 1,
                     "thread pool queue capacity must be >= 1");
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::submit(std::function<void()>&& task) {
  require<SpecError>(static_cast<bool>(task), "cannot submit an empty task");
  std::unique_lock<std::mutex> lock(mutex_);
  queue_not_full_.wait(
      lock, [this] { return shutting_down_ || queue_.size() < capacity_; });
  require<SpecError>(!shutting_down_,
                     "cannot submit to a shut-down thread pool");
  queue_.push_back(std::move(task));
  lock.unlock();
  queue_not_empty_.notify_one();
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_ && workers_.empty()) return;
    shutting_down_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_not_empty_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_not_full_.notify_one();
    task();  // exceptions are the submitter's contract: tasks must not throw
  }
}

}  // namespace biosens::engine
