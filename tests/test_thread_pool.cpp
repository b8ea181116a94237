// ThreadPool lifecycle: drain-then-stop.
//
// The batch engine depends on every submitted task being accounted for
// on shutdown: shutdown() runs everything already queued to completion
// before it joins, and a stopped pool rejects new work loudly.
#include <gtest/gtest.h>

#include <atomic>

#include "common/error.hpp"
#include "engine/thread_pool.hpp"

namespace biosens::engine {
namespace {

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

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(1, 4);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), SpecError);
}

}  // namespace
}  // namespace biosens::engine
