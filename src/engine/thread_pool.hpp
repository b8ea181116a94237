// Fixed-size worker pool over one bounded FIFO task queue.
//
// The execution substrate of the batch engine: N workers drain one
// bounded queue of type-erased tasks in submission order. The queue
// bound gives natural backpressure — submit() blocks the producer when
// the instrument pipeline is saturated instead of buffering an
// unbounded backlog. shutdown() stops accepting, finishes everything
// queued, and joins.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace biosens::engine {

class ThreadPool {
 public:
  /// @param workers        number of worker threads (>= 1)
  /// @param queue_capacity maximum queued (not yet running) tasks (>= 1)
  explicit ThreadPool(std::size_t workers, std::size_t queue_capacity = 128);

  /// Drains the queue and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; blocks while the queue is full (backpressure).
  /// Takes the task by rvalue so the callable (and any captured state)
  /// is moved straight into the queue — no copy on the submission path.
  /// Throws SpecError after shutdown().
  void submit(std::function<void()>&& task);

  /// Stops accepting tasks, finishes everything already queued, joins
  /// the workers. Idempotent; called by the destructor.
  void shutdown();

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  const std::size_t capacity_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutting_down_ = false;
};

}  // namespace biosens::engine
