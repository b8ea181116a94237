// ThreadPool lifecycle: drain-then-continue, drain-then-stop vs
// stop-now, and the two-lane priority queue.
//
// The regression the service layer depends on (docs/service.md): every
// submitted task is *accounted for* on shutdown — it either ran to
// completion (shutdown) or is reported in shutdown_now()'s discard
// count — deterministically, and drain() quiesces the pool without
// killing it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "engine/task_queue.hpp"
#include "engine/thread_pool.hpp"

namespace biosens::engine {
namespace {

TEST(TwoLaneTaskQueue, SharedCapacityAcrossLanes) {
  TwoLaneTaskQueue queue(2);
  EXPECT_TRUE(queue.push([] {}, TaskPriority::kNormal));
  EXPECT_TRUE(queue.push([] {}, TaskPriority::kHigh));
  EXPECT_FALSE(queue.push([] {}, TaskPriority::kHigh))
      << "capacity must bound both lanes together";
  EXPECT_EQ(queue.size(), 2u);
}

TEST(TwoLaneTaskQueue, PopsHighLaneFirstFifoWithinLane) {
  TwoLaneTaskQueue queue(8);
  std::vector<int> order;
  ASSERT_TRUE(queue.push([&] { order.push_back(1); }, TaskPriority::kNormal));
  ASSERT_TRUE(queue.push([&] { order.push_back(2); }, TaskPriority::kHigh));
  ASSERT_TRUE(queue.push([&] { order.push_back(3); }, TaskPriority::kHigh));
  ASSERT_TRUE(queue.push([&] { order.push_back(4); }, TaskPriority::kNormal));
  while (!queue.empty()) queue.pop()();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1, 4}));
}

TEST(TwoLaneTaskQueue, ClearReportsDroppedCount) {
  TwoLaneTaskQueue queue(8);
  ASSERT_TRUE(queue.push([] {}, TaskPriority::kHigh));
  ASSERT_TRUE(queue.push([] {}, TaskPriority::kNormal));
  ASSERT_TRUE(queue.push([] {}, TaskPriority::kNormal));
  EXPECT_EQ(queue.clear(), 3u);
  EXPECT_TRUE(queue.empty());
}

TEST(ThreadPool, ShutdownCompletesEveryQueuedTask) {
  constexpr std::size_t kTasks = 64;
  std::atomic<std::size_t> completed{0};
  {
    ThreadPool pool(2, kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.submit([&completed] {
        completed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.shutdown();
  }
  // Drain-then-stop: every queued task ran; nothing was dropped.
  EXPECT_EQ(completed.load(), kTasks);
}

TEST(ThreadPool, DrainQuiescesWithoutStopping) {
  std::atomic<std::size_t> completed{0};
  ThreadPool pool(4, 32);
  for (std::size_t i = 0; i < 16; ++i) {
    pool.submit([&completed] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      completed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.drain();
  EXPECT_EQ(completed.load(), 16u);
  EXPECT_EQ(pool.pending(), 0u);
  EXPECT_EQ(pool.active(), 0u);

  // The pool is still alive: it accepts and runs more work.
  pool.submit([&completed] {
    completed.fetch_add(1, std::memory_order_relaxed);
  });
  pool.drain();
  EXPECT_EQ(completed.load(), 17u);
}

TEST(ThreadPool, ShutdownNowReportsDiscardedTasksDeterministically) {
  constexpr std::size_t kQueued = 24;
  std::atomic<std::size_t> completed{0};
  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  std::promise<void> started;

  ThreadPool pool(1, kQueued + 1);
  // The single worker blocks inside the first task. Waiting until that
  // task has started means the worker has taken it off the queue, so the
  // next kQueued submissions are provably still queued when
  // shutdown_now() clears.
  pool.submit([&completed, &started, release] {
    started.set_value();
    release.wait();
    completed.fetch_add(1, std::memory_order_relaxed);
  });
  started.get_future().wait();
  for (std::size_t i = 0; i < kQueued; ++i) {
    pool.submit([&completed] {
      completed.fetch_add(1, std::memory_order_relaxed);
    });
  }

  std::size_t dropped = 0;
  std::thread stopper([&] { dropped = pool.shutdown_now(); });
  // shutdown_now clears the queue immediately (before joining); wait for
  // that to be observable, then release the in-flight task.
  while (pool.pending() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.set_value();
  stopper.join();

  // Stop-now accounting: the in-flight task completed, every queued one
  // is reported discarded — completed + dropped covers all submissions.
  EXPECT_EQ(completed.load(), 1u);
  EXPECT_EQ(dropped, kQueued);
}

TEST(ThreadPool, HighPriorityOvertakesQueuedNormalWork) {
  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  std::mutex order_mutex;
  std::vector<int> order;
  const auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(tag);
  };

  ThreadPool pool(1, 16);
  pool.submit([release] { release.wait(); });  // pin the single worker
  pool.submit([&record] { record(1); }, TaskPriority::kNormal);
  pool.submit([&record] { record(2); }, TaskPriority::kNormal);
  pool.submit([&record] { record(3); }, TaskPriority::kHigh);
  gate.set_value();
  pool.shutdown();

  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}))
      << "the high lane must drain before queued normal tasks";
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(1, 4);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), SpecError);
  EXPECT_THROW(pool.try_submit([] {}), SpecError);
  // Idempotent: a second stop (either flavor) is a no-op.
  EXPECT_EQ(pool.shutdown_now(), 0u);
}

}  // namespace
}  // namespace biosens::engine
