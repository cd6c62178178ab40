// ThreadPool / ParallelFor contract tests: every index runs exactly once,
// nested calls do not deadlock, max_parallelism is honored, and a
// zero-worker pool degrades to a plain sequential loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/thread_pool.h"

namespace pythia {
namespace {

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<uint32_t>> counts(kN);
  pool.ParallelFor(0, kN, [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1u) << "index " << i;
  }
}

TEST(ThreadPoolTest, RespectsBeginOffset) {
  ThreadPool pool(2);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(100, 200, [&](size_t i) { sum.fetch_add(i); });
  uint64_t want = 0;
  for (size_t i = 100; i < 200; ++i) want += i;
  EXPECT_EQ(sum.load(), want);
}

TEST(ThreadPoolTest, EmptyRangeCallsNothing) {
  ThreadPool pool(2);
  std::atomic<uint32_t> calls{0};
  pool.ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
  pool.ParallelFor(0, 0, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  std::vector<uint32_t> counts(1000, 0);  // no atomics: must be sequential
  pool.ParallelFor(0, counts.size(), [&](size_t i) { ++counts[i]; });
  for (uint32_t c : counts) EXPECT_EQ(c, 1u);
}

TEST(ThreadPoolTest, MaxParallelismOneIsSequential) {
  ThreadPool pool(4);
  // With one lane the caller runs everything in order; record the order to
  // prove it.
  std::vector<size_t> order;
  pool.ParallelFor(
      0, 100, [&](size_t i) { order.push_back(i); },
      /*max_parallelism=*/1);
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<uint32_t> inner_calls{0};
  pool.ParallelFor(0, 8, [&](size_t) {
    // A nested call from a worker (or the participating caller) must run
    // inline rather than waiting on pool capacity.
    pool.ParallelFor(0, 16, [&](size_t) { inner_calls.fetch_add(1); });
  });
  EXPECT_EQ(inner_calls.load(), 8u * 16u);
}

TEST(ThreadPoolTest, ManySmallLoopsStress) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<uint64_t> sum{0};
    const size_t n = 1 + static_cast<size_t>(round % 7);
    pool.ParallelFor(0, n, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  }
}

TEST(ThreadPoolTest, LargeGrainsOnAllLanesStress) {
  ThreadPool pool(4);
  constexpr size_t kN = 64;
  std::vector<uint64_t> results(kN, 0);
  pool.ParallelFor(0, kN, [&](size_t i) {
    // Per-index state only; the merge below is order-independent proof
    // that lanes did not trample each other.
    uint64_t acc = 0;
    for (uint64_t j = 0; j < 20000; ++j) acc += (i + 1) * j % 97;
    results[i] = acc;
  });
  for (size_t i = 0; i < kN; ++i) {
    uint64_t want = 0;
    for (uint64_t j = 0; j < 20000; ++j) want += (i + 1) * j % 97;
    EXPECT_EQ(results[i], want) << "index " << i;
  }
}

TEST(ThreadPoolTest, GlobalPoolIsUsableAndStable) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  std::atomic<uint32_t> calls{0};
  a.ParallelFor(0, 32, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 32u);
}

}  // namespace
}  // namespace pythia
