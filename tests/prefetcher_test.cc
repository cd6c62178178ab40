#include <gtest/gtest.h>

#include "core/prefetcher.h"
#include "util/rng.h"

namespace pythia {
namespace {

class PrefetcherTest : public ::testing::Test {
 protected:
  PrefetcherTest()
      : os_cache_(OsPageCache::Options{.capacity_pages = 4096,
                                       .readahead_pages = 4},
                  latency_),
        pool_(BufferPool::Options{.capacity_pages = 64}, &os_cache_,
              latency_),
        io_(2) {}

  PrefetchSession MakeSession(std::vector<PageId> pages,
                              PrefetcherOptions options) {
    return PrefetchSession(std::move(pages), options, &pool_, &os_cache_,
                           &io_, latency_);
  }

  LatencyModel latency_;
  OsPageCache os_cache_;
  BufferPool pool_;
  IoScheduler io_;
};

TEST_F(PrefetcherTest, FileOffsetOrderSortsAndDedups) {
  PrefetcherOptions options;
  options.start_delay_us = 0;
  options.readahead_window = 100;
  PrefetchSession session = MakeSession(
      {{2, 9}, {1, 5}, {2, 9}, {1, 3}}, options);
  EXPECT_EQ(session.planned(), 3u);  // duplicate removed
  session.Pump(0);
  EXPECT_TRUE(pool_.Contains(PageId{1, 3}));
  EXPECT_TRUE(pool_.Contains(PageId{1, 5}));
  EXPECT_TRUE(pool_.Contains(PageId{2, 9}));
  EXPECT_EQ(session.stats().issued, 3u);
}

TEST_F(PrefetcherTest, StartDelayGatesIssuance) {
  PrefetcherOptions options;
  options.start_delay_us = 1000;
  PrefetchSession session = MakeSession({{1, 0}}, options);
  session.Pump(500);
  EXPECT_FALSE(pool_.Contains(PageId{1, 0}));
  session.Pump(1500);
  EXPECT_TRUE(pool_.Contains(PageId{1, 0}));
}

TEST_F(PrefetcherTest, WindowLimitsOutstanding) {
  PrefetcherOptions options;
  options.start_delay_us = 0;
  options.readahead_window = 2;
  std::vector<PageId> pages;
  for (uint32_t p = 0; p < 10; ++p) pages.push_back(PageId{1, p});
  PrefetchSession session = MakeSession(pages, options);
  session.Pump(0);
  EXPECT_EQ(session.stats().issued, 2u);
  EXPECT_FALSE(pool_.Contains(PageId{1, 2}));

  // Consuming a prefetched page slides the window by one.
  session.OnFetch(PageId{1, 0}, 10000);
  EXPECT_EQ(session.stats().issued, 3u);
  EXPECT_EQ(session.stats().consumed, 1u);
  EXPECT_TRUE(pool_.Contains(PageId{1, 2}));
}

TEST_F(PrefetcherTest, OutstandingPagesArePinned) {
  PrefetcherOptions options;
  options.start_delay_us = 0;
  options.readahead_window = 4;
  PrefetchSession session = MakeSession({{1, 0}, {1, 1}}, options);
  session.Pump(0);
  EXPECT_TRUE(pool_.IsPinned(PageId{1, 0}));
  session.OnFetch(PageId{1, 0}, 100000);
  EXPECT_FALSE(pool_.IsPinned(PageId{1, 0}));
  EXPECT_TRUE(pool_.IsPinned(PageId{1, 1}));
}

TEST_F(PrefetcherTest, FinishUnpinsEverything) {
  PrefetcherOptions options;
  options.start_delay_us = 0;
  PrefetchSession session = MakeSession({{1, 0}, {1, 1}, {1, 2}}, options);
  session.Pump(0);
  EXPECT_GT(pool_.pinned_frames(), 0u);
  session.Finish();
  EXPECT_EQ(pool_.pinned_frames(), 0u);
  // Pages stay buffered, just unpinned.
  EXPECT_TRUE(pool_.Contains(PageId{1, 0}));
}

TEST_F(PrefetcherTest, OnFetchOfUnpredictedPageIsNoop) {
  PrefetcherOptions options;
  options.start_delay_us = 0;
  PrefetchSession session = MakeSession({{1, 0}}, options);
  session.Pump(0);
  session.OnFetch(PageId{9, 9}, 10);
  EXPECT_EQ(session.stats().consumed, 0u);
}

TEST_F(PrefetcherTest, AlreadyBufferedPageIsCheapNoop) {
  pool_.FetchPage(PageId{1, 5}, 0);
  const uint64_t io_before = io_.scheduled_ops();
  PrefetcherOptions options;
  options.start_delay_us = 0;
  PrefetchSession session = MakeSession({{1, 5}}, options);
  session.Pump(10);
  EXPECT_EQ(io_.scheduled_ops(), io_before);  // no I/O issued
  EXPECT_EQ(session.stats().already_buffered, 1u);
  EXPECT_TRUE(pool_.IsPinned(PageId{1, 5}));
}

TEST_F(PrefetcherTest, BudgetCapsPrefetchVolume) {
  PrefetcherOptions options;
  options.start_delay_us = 0;
  options.max_prefetch_pages = 3;
  options.readahead_window = 100;
  std::vector<PageId> pages;
  for (uint32_t p = 0; p < 10; ++p) pages.push_back(PageId{1, p});
  PrefetchSession session = MakeSession(pages, options);
  EXPECT_EQ(session.planned(), 3u);
  EXPECT_EQ(session.stats().skipped_budget, 7u);
}

TEST_F(PrefetcherTest, DefaultBudgetDerivedFromPoolCapacity) {
  PrefetcherOptions options;
  options.start_delay_us = 0;
  std::vector<PageId> pages;
  for (uint32_t p = 0; p < 200; ++p) pages.push_back(PageId{1, p});
  PrefetchSession session = MakeSession(pages, options);
  // Pool capacity 64 -> budget 48 (3/4).
  EXPECT_EQ(session.planned(), 48u);
}

TEST_F(PrefetcherTest, SortedIssueExploitsOsReadahead) {
  PrefetcherOptions options;
  options.start_delay_us = 0;
  options.readahead_window = 64;
  std::vector<PageId> pages;
  for (uint32_t p = 0; p < 32; ++p) pages.push_back(PageId{1, p});
  PrefetchSession session = MakeSession(pages, options);
  session.Pump(0);
  // Adjacent issues: at most one random read, the rest sequential or cached.
  EXPECT_EQ(os_cache_.random_reads(), 1u);
  EXPECT_GT(os_cache_.sequential_reads() + os_cache_.hits(), 20u);
}

TEST_F(PrefetcherTest, AccessOrderPreservesGivenSequence) {
  PrefetcherOptions options;
  options.start_delay_us = 0;
  options.order = PrefetchOrder::kAccessOrder;
  options.readahead_window = 1;
  PrefetchSession session = MakeSession({{1, 9}, {1, 2}}, options);
  session.Pump(0);
  // Window 1: only the first page in *given* order (9) was issued.
  EXPECT_TRUE(pool_.Contains(PageId{1, 9}));
  EXPECT_FALSE(pool_.Contains(PageId{1, 2}));
}

TEST_F(PrefetcherTest, PumpAfterFinishDoesNothing) {
  PrefetcherOptions options;
  options.start_delay_us = 0;
  options.readahead_window = 1;
  PrefetchSession session = MakeSession({{1, 0}, {1, 1}}, options);
  session.Pump(0);
  session.Finish();
  session.Pump(10);
  EXPECT_FALSE(pool_.Contains(PageId{1, 1}));
}

TEST_F(PrefetcherTest, LifecycleIsIdempotent) {
  // Regression: double-Finish must not double-unpin, and OnFetch/Pump after
  // Finish must be no-ops rather than resurrecting the session.
  PrefetcherOptions options;
  options.start_delay_us = 0;
  options.readahead_window = 4;
  PrefetchSession session = MakeSession({{1, 0}, {1, 1}, {1, 2}}, options);
  session.Pump(0);
  ASSERT_GT(pool_.pinned_frames(), 0u);
  session.Finish();
  EXPECT_EQ(pool_.pinned_frames(), 0u);
  session.Finish();  // second Finish: no-op, no unpin underflow
  EXPECT_EQ(pool_.pinned_frames(), 0u);
  session.OnFetch(PageId{1, 0}, 100);  // stats frozen after Finish
  EXPECT_EQ(session.stats().consumed, 0u);
  session.Pump(200);
  EXPECT_EQ(session.stats().issued, 3u);
  EXPECT_EQ(pool_.pinned_frames(), 0u);
}

TEST_F(PrefetcherTest, DestructorFinishesAbandonedSession) {
  // A session dropped mid-query (e.g. replay aborted on a read error) must
  // release its pins via RAII, not leak them.
  {
    PrefetcherOptions options;
    options.start_delay_us = 0;
    options.readahead_window = 4;
    PrefetchSession session = MakeSession({{1, 0}, {1, 1}, {1, 2}}, options);
    session.Pump(0);
    ASSERT_GT(pool_.pinned_frames(), 0u);
  }  // no explicit Finish
  EXPECT_EQ(pool_.pinned_frames(), 0u);
}

TEST_F(PrefetcherTest, PinLeakStressRandomInterleavings) {
  // Invariant test: under seeded random interleavings of Pump / OnFetch /
  // Finish — including sessions abandoned mid-flight — the pool must end
  // every session with zero pinned frames.
  Pcg32 rng(0xfeedULL, 17);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<PageId> pages;
    const uint32_t n = 1 + rng.UniformU32(30);
    for (uint32_t i = 0; i < n; ++i) {
      pages.push_back(PageId{1 + rng.UniformU32(3), rng.UniformU32(500)});
    }
    PrefetcherOptions options;
    options.start_delay_us = rng.UniformU32(2) == 0 ? 0 : 100;
    options.readahead_window = 1 + rng.UniformU32(8);
    if (rng.UniformU32(3) == 0) options.prefetch_timeout_us = 500;

    {
      PrefetchSession session = MakeSession(pages, options);
      SimTime now = 0;
      const uint32_t ops = rng.UniformU32(40);
      for (uint32_t op = 0; op < ops; ++op) {
        now += rng.UniformU32(400);
        switch (rng.UniformU32(4)) {
          case 0:
            session.Pump(now);
            break;
          case 1:
            session.OnFetch(pages[rng.UniformU32(n)], now);
            break;
          case 2:
            session.Pump(now);
            session.OnFetch(pages[rng.UniformU32(n)], now);
            break;
          case 3:
            if (rng.UniformU32(8) == 0) session.Finish();
            break;
        }
      }
      if (rng.UniformU32(2) == 0) {
        session.Finish();  // explicit finish for half the sessions...
      }
    }  // ...RAII for the rest (abandoned mid-query)
    ASSERT_EQ(pool_.pinned_frames(), 0u) << "trial " << trial;
  }
}

// Regression for the planned()/remaining() split: planned() used to be read
// as "work left" by progress displays, but it is (and stays) the total
// budget-trimmed plan. remaining() is the part the cursor has not issued.
TEST_F(PrefetcherTest, PlannedIsConstantWhileRemainingShrinks) {
  PrefetcherOptions options;
  options.start_delay_us = 0;
  options.readahead_window = 2;
  std::vector<PageId> pages;
  for (uint32_t p = 0; p < 6; ++p) pages.push_back(PageId{1, p});
  PrefetchSession session = MakeSession(pages, options);
  EXPECT_EQ(session.planned(), 6u);
  EXPECT_EQ(session.remaining(), 6u);

  session.Pump(0);  // fills the window: 2 issued
  EXPECT_EQ(session.planned(), 6u);
  EXPECT_EQ(session.remaining(), 4u);

  session.OnFetch(PageId{1, 0}, 100);  // consume slides the window by one
  EXPECT_EQ(session.planned(), 6u);
  EXPECT_EQ(session.remaining(), 3u);

  session.OnFetch(PageId{1, 1}, 200);
  session.OnFetch(PageId{1, 2}, 300);
  session.OnFetch(PageId{1, 3}, 400);
  EXPECT_EQ(session.remaining(), 0u);
  EXPECT_EQ(session.planned(), 6u);
}

}  // namespace
}  // namespace pythia
