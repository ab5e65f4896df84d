// Stress test for ThreadPool::parallelFor: many small back-to-back calls on
// a private 4-thread pool.  Each call must run all of its chunks and return
// only after they are done.  A completion count that a worker from the
// previous call can decrement before it is set would hang here; a wake-up
// that touches the caller's locals after the caller has returned would show
// up as a crash or a ThreadSanitizer report.  Registered with a ctest
// TIMEOUT, so a hang fails instead of blocking the suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "sim/thread_pool.hpp"

using skelcl::sim::ThreadPool;

namespace {

TEST(ThreadPoolStress, BackToBackParallelForCompletes) {
  constexpr int kCalls = 200000;
  constexpr std::uint64_t kItems = 16;  // >= 2 x pool size, so the pool splits it
  ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  for (int call = 0; call < kCalls; ++call) {
    std::atomic<std::uint64_t> covered{0};  // on the caller's stack, per call
    pool.parallelFor(kItems, [&covered](std::uint64_t b, std::uint64_t e) {
      covered.fetch_add(e - b, std::memory_order_relaxed);
    });
    ASSERT_EQ(covered.load(), kItems) << "parallelFor returned early on call " << call;
  }
}

}  // namespace
