#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "bufmgr/buffer_pool.h"
#include "bufmgr/replacement.h"
#include "util/rng.h"

namespace pythia {
namespace {

// ---------------------------------------------------------------------------
// Replacement policies.
// ---------------------------------------------------------------------------

std::function<bool(size_t)> AllEvictable() {
  return [](size_t) { return true; };
}

TEST(ClockPolicyTest, EvictsUnusedFrameFirst) {
  ClockPolicy clock(3);
  clock.OnInsert(0);
  clock.OnInsert(1);
  clock.OnInsert(2);
  clock.OnAccess(1);  // frame 1 has higher usage
  // Frame 0 is reached first by the hand and decremented to 0, then evicted
  // on the second pass before frame 1.
  auto victim = clock.PickVictim(AllEvictable());
  ASSERT_TRUE(victim.has_value());
  EXPECT_NE(*victim, 1u);
}

TEST(ClockPolicyTest, RespectsEvictableFilter) {
  ClockPolicy clock(2);
  clock.OnInsert(0);
  clock.OnInsert(1);
  auto victim =
      clock.PickVictim([](size_t frame) { return frame == 1; });
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 1u);
}

TEST(ClockPolicyTest, NoVictimWhenNothingEvictable) {
  ClockPolicy clock(2);
  clock.OnInsert(0);
  clock.OnInsert(1);
  EXPECT_FALSE(clock.PickVictim([](size_t) { return false; }).has_value());
}

TEST(ClockPolicyTest, UsageSaturatesAndStillEvicts) {
  ClockPolicy clock(1);
  clock.OnInsert(0);
  for (int i = 0; i < 100; ++i) clock.OnAccess(0);  // saturates at 5
  auto victim = clock.PickVictim(AllEvictable());
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0u);
}

TEST(RecencyPolicyTest, LruEvictsLeastRecent) {
  RecencyPolicy lru(/*evict_most_recent=*/false);
  lru.OnInsert(0);
  lru.OnInsert(1);
  lru.OnInsert(2);
  lru.OnAccess(0);  // 0 becomes most recent; LRU order: 1 oldest
  auto victim = lru.PickVictim(AllEvictable());
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 1u);
}

TEST(RecencyPolicyTest, MruEvictsMostRecent) {
  RecencyPolicy mru(/*evict_most_recent=*/true);
  mru.OnInsert(0);
  mru.OnInsert(1);
  mru.OnAccess(0);
  auto victim = mru.PickVictim(AllEvictable());
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0u);
}

TEST(RecencyPolicyTest, RemoveForgetsFrame) {
  RecencyPolicy lru(false);
  lru.OnInsert(0);
  lru.OnRemove(0);
  EXPECT_FALSE(lru.PickVictim(AllEvictable()).has_value());
}

TEST(ClockPolicyTest, ResetRewindsHandAndForgetsFrames) {
  ClockPolicy clock(4);
  for (size_t f = 0; f < 4; ++f) clock.OnInsert(f);
  // Advance the hand mid-sweep: the first eviction leaves it parked past
  // the frames it decremented.
  ASSERT_TRUE(clock.PickVictim(AllEvictable()).has_value());
  ASSERT_NE(clock.hand(), 0u);
  clock.Reset();
  EXPECT_EQ(clock.hand(), 0u);
  // All frames forgotten: nothing is evictable until reinserted.
  EXPECT_FALSE(clock.PickVictim(AllEvictable()).has_value());
  // And a post-Reset insert sequence behaves like a fresh policy.
  ClockPolicy fresh(4);
  for (size_t f = 0; f < 4; ++f) {
    clock.OnInsert(f);
    fresh.OnInsert(f);
  }
  EXPECT_EQ(clock.PickVictim(AllEvictable()),
            fresh.PickVictim(AllEvictable()));
}

TEST(RecencyPolicyTest, ResetForgetsAllFrames) {
  RecencyPolicy lru(/*evict_most_recent=*/false);
  lru.OnInsert(0);
  lru.OnInsert(1);
  lru.Reset();
  EXPECT_FALSE(lru.PickVictim(AllEvictable()).has_value());
  lru.OnInsert(2);
  auto victim = lru.PickVictim(AllEvictable());
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);
}

TEST(ClockPolicyTest, SkipsPinnedFramesUnderPressure) {
  // Models pin pressure: frames 0 and 1 unevictable (pinned), victim must
  // come from {2, 3} no matter how the usage counts stand.
  ClockPolicy clock(4);
  for (size_t f = 0; f < 4; ++f) clock.OnInsert(f);
  clock.OnAccess(2);
  clock.OnAccess(2);
  clock.OnAccess(3);
  auto evictable = [](size_t f) { return f >= 2; };
  for (int i = 0; i < 2; ++i) {
    auto victim = clock.PickVictim(evictable);
    ASSERT_TRUE(victim.has_value());
    EXPECT_GE(*victim, 2u);
    clock.OnRemove(*victim);
  }
  // Both evictable frames gone; only pinned ones remain.
  EXPECT_FALSE(clock.PickVictim(evictable).has_value());
}

TEST(RecencyPolicyTest, LruSkipsUnevictableUnderPressure) {
  RecencyPolicy lru(/*evict_most_recent=*/false);
  for (size_t f = 0; f < 4; ++f) lru.OnInsert(f);  // LRU order: 0 oldest
  // Frames 0 and 1 are "in flight" (unevictable): the victim must be the
  // oldest among the rest — frame 2.
  auto victim = lru.PickVictim([](size_t f) { return f >= 2; });
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);
}

TEST(ReplacementFactoryTest, ProducesRequestedKinds) {
  for (auto kind : {ReplacementPolicyKind::kClock, ReplacementPolicyKind::kLru,
                    ReplacementPolicyKind::kMru}) {
    auto policy = MakeReplacementPolicy(kind, 8);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->kind(), kind);
  }
  EXPECT_STREQ(ReplacementPolicyName(ReplacementPolicyKind::kClock), "Clock");
  EXPECT_STREQ(ReplacementPolicyName(ReplacementPolicyKind::kLru), "LRU");
  EXPECT_STREQ(ReplacementPolicyName(ReplacementPolicyKind::kMru), "MRU");
}

// ---------------------------------------------------------------------------
// Buffer pool.
// ---------------------------------------------------------------------------

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest()
      : os_cache_(OsPageCache::Options{.capacity_pages = 1024,
                                       .readahead_pages = 0},
                  latency_),
        pool_(BufferPool::Options{.capacity_pages = 4,
                                  .policy = ReplacementPolicyKind::kClock},
              &os_cache_, latency_) {}
  LatencyModel latency_;
  OsPageCache os_cache_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  const FetchResult miss = *pool_.FetchPage(PageId{1, 0}, 0);
  EXPECT_EQ(miss.source, AccessSource::kDiskRandom);
  EXPECT_EQ(miss.latency_us, latency_.disk_random_read_us);
  const FetchResult hit = *pool_.FetchPage(PageId{1, 0}, 1000);
  EXPECT_EQ(hit.source, AccessSource::kBufferHit);
  EXPECT_EQ(hit.latency_us, latency_.buffer_hit_us);
  EXPECT_EQ(pool_.stats().fetches, 2u);
  EXPECT_EQ(pool_.stats().buffer_hits, 1u);
  EXPECT_EQ(pool_.stats().disk_random_reads, 1u);
}

TEST_F(BufferPoolTest, EvictionWhenFull) {
  for (uint32_t p = 0; p < 5; ++p) pool_.FetchPage(PageId{1, p}, p);
  EXPECT_EQ(pool_.used_frames(), 4u);
  EXPECT_EQ(pool_.stats().evictions, 1u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  pool_.FetchPage(PageId{1, 0}, 0);
  pool_.Pin(PageId{1, 0});
  for (uint32_t p = 1; p < 10; ++p) pool_.FetchPage(PageId{1, p}, p);
  EXPECT_TRUE(pool_.Contains(PageId{1, 0}));
  EXPECT_TRUE(pool_.IsPinned(PageId{1, 0}));
  pool_.Unpin(PageId{1, 0});
  EXPECT_FALSE(pool_.IsPinned(PageId{1, 0}));
}

TEST_F(BufferPoolTest, UnpinUnknownPageIsNoop) {
  pool_.Unpin(PageId{9, 9});  // must not crash or underflow
  pool_.FetchPage(PageId{1, 0}, 0);
  pool_.Unpin(PageId{1, 0});  // pin_count already 0
  EXPECT_FALSE(pool_.IsPinned(PageId{1, 0}));
}

TEST_F(BufferPoolTest, AllPinnedFallsBackToUncachedRead) {
  for (uint32_t p = 0; p < 4; ++p) {
    pool_.FetchPage(PageId{1, p}, 0);
    pool_.Pin(PageId{1, p});
  }
  const FetchResult r = *pool_.FetchPage(PageId{1, 99}, 10);
  EXPECT_EQ(r.source, AccessSource::kDiskRandom);
  EXPECT_FALSE(pool_.Contains(PageId{1, 99}));
  EXPECT_EQ(pool_.stats().uncached_reads, 1u);
}

TEST_F(BufferPoolTest, PrefetchInstallsInFlightFrame) {
  ASSERT_TRUE(pool_.StartPrefetch(PageId{2, 0}, /*completion=*/500,
                                  /*pin=*/true, /*now=*/0)
                  .ok());
  EXPECT_TRUE(pool_.Contains(PageId{2, 0}));
  EXPECT_TRUE(pool_.IsInFlight(PageId{2, 0}, 100));
  EXPECT_FALSE(pool_.IsInFlight(PageId{2, 0}, 600));
}

TEST_F(BufferPoolTest, FetchWaitsForInFlightPrefetch) {
  pool_.StartPrefetch(PageId{2, 0}, /*completion=*/500, /*pin=*/false, 0);
  const FetchResult r = *pool_.FetchPage(PageId{2, 0}, /*now=*/200);
  EXPECT_TRUE(r.served_by_prefetch);
  EXPECT_EQ(r.prefetch_wait_us, 300u);
  EXPECT_EQ(r.latency_us, 300u + latency_.buffer_hit_us);
  // The query blocked on the device: that is a prefetch_wait_hit, NOT a
  // buffer/prefetch hit — the old accounting credited a full hit here and
  // inflated the useful-prefetch ratio.
  EXPECT_EQ(pool_.stats().prefetch_wait_hits, 1u);
  EXPECT_EQ(pool_.stats().prefetch_hits, 0u);
  EXPECT_EQ(pool_.stats().buffer_hits, 0u);
}

TEST_F(BufferPoolTest, FetchAfterArrivalIsPlainHit) {
  pool_.StartPrefetch(PageId{2, 0}, 500, false, 0);
  const FetchResult r = *pool_.FetchPage(PageId{2, 0}, 800);
  EXPECT_EQ(r.prefetch_wait_us, 0u);
  EXPECT_EQ(r.latency_us, latency_.buffer_hit_us);
  EXPECT_TRUE(r.served_by_prefetch);
  EXPECT_EQ(pool_.stats().prefetch_hits, 1u);
  EXPECT_EQ(pool_.stats().buffer_hits, 1u);
}

TEST_F(BufferPoolTest, PrefetchCreditIsFirstConsumptionOnly) {
  pool_.StartPrefetch(PageId{2, 0}, 500, false, 0);
  const FetchResult first = *pool_.FetchPage(PageId{2, 0}, 800);
  EXPECT_TRUE(first.served_by_prefetch);
  // Re-hits on the same resident frame are plain buffer hits: the prefetch
  // already got its one credit, so repeat hits cannot permanently inflate
  // the watchdog's useful-prefetch ratio.
  for (int i = 0; i < 3; ++i) {
    const FetchResult again = *pool_.FetchPage(PageId{2, 0}, 900 + i);
    EXPECT_FALSE(again.served_by_prefetch);
  }
  EXPECT_EQ(pool_.stats().prefetch_hits, 1u);
  EXPECT_EQ(pool_.stats().buffer_hits, 4u);
}

TEST_F(BufferPoolTest, WaitHitConsumesThePrefetchCredit) {
  pool_.StartPrefetch(PageId{2, 0}, 500, false, 0);
  const FetchResult wait = *pool_.FetchPage(PageId{2, 0}, 200);
  EXPECT_TRUE(wait.served_by_prefetch);
  const FetchResult again = *pool_.FetchPage(PageId{2, 0}, 900);
  EXPECT_FALSE(again.served_by_prefetch);
  EXPECT_EQ(pool_.stats().prefetch_wait_hits, 1u);
  EXPECT_EQ(pool_.stats().prefetch_hits, 0u);
  EXPECT_EQ(pool_.stats().buffer_hits, 1u);
}

TEST_F(BufferPoolTest, PrefetchOfBufferedPageBumpsUsageOnly) {
  pool_.FetchPage(PageId{3, 0}, 0);
  const uint64_t started = pool_.stats().prefetches_started;
  ASSERT_TRUE(pool_.StartPrefetch(PageId{3, 0}, 100, /*pin=*/true, 0).ok());
  EXPECT_EQ(pool_.stats().prefetches_started, started);  // no new I/O
  EXPECT_TRUE(pool_.IsPinned(PageId{3, 0}));
}

TEST_F(BufferPoolTest, PrefetchRejectedWhenAllPinned) {
  for (uint32_t p = 0; p < 4; ++p) {
    pool_.FetchPage(PageId{1, p}, 0);
    pool_.Pin(PageId{1, p});
  }
  const Status s = pool_.StartPrefetch(PageId{1, 50}, 100, true, 0);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool_.stats().prefetches_rejected, 1u);
}

TEST_F(BufferPoolTest, InFlightUnpinnedFrameNotEvictedBeforeArrival) {
  pool_.StartPrefetch(PageId{7, 0}, /*completion=*/1000, /*pin=*/false, 0);
  // Fill the pool at now=10 (< arrival): the in-flight frame must survive.
  for (uint32_t p = 0; p < 6; ++p) pool_.FetchPage(PageId{1, p}, 10);
  EXPECT_TRUE(pool_.Contains(PageId{7, 0}));
  // After arrival it becomes evictable.
  for (uint32_t p = 10; p < 16; ++p) pool_.FetchPage(PageId{1, p}, 2000);
  EXPECT_FALSE(pool_.Contains(PageId{7, 0}));
}

TEST_F(BufferPoolTest, ResetEmptiesPool) {
  pool_.FetchPage(PageId{1, 0}, 0);
  pool_.Pin(PageId{1, 0});
  EXPECT_EQ(pool_.pinned_frames(), 1u);
  pool_.Reset();
  EXPECT_EQ(pool_.used_frames(), 0u);
  EXPECT_EQ(pool_.pinned_frames(), 0u);
  EXPECT_DOUBLE_EQ(pool_.UnevictablePressure(0), 0.0);
  EXPECT_FALSE(pool_.Contains(PageId{1, 0}));
  // Pool usable after reset.
  pool_.FetchPage(PageId{1, 1}, 0);
  EXPECT_TRUE(pool_.Contains(PageId{1, 1}));
}

TEST_F(BufferPoolTest, ResetMatchesFreshPoolEvictionSequence) {
  // Regression for the Clock-hand Reset bug: Reset() used to empty the
  // frames but leave the sweep hand wherever the prior run parked it, so a
  // "Postgres restart" made different eviction decisions than a fresh pool
  // on the identical trace. Drive the hand well away from 0, Reset, replay,
  // and require the exact final contents a fresh pool produces.
  auto replay = [](BufferPool* pool) {
    for (uint32_t p = 0; p < 7; ++p) pool->FetchPage(PageId{1, p}, p);
    pool->FetchPage(PageId{1, 1}, 10);  // bump a survivor's usage
    for (uint32_t p = 20; p < 23; ++p) pool->FetchPage(PageId{1, p}, p);
  };
  replay(&pool_);  // parks the hand mid-sweep
  pool_.Reset();
  replay(&pool_);

  OsPageCache fresh_os(
      OsPageCache::Options{.capacity_pages = 1024, .readahead_pages = 0},
      latency_);
  BufferPool fresh(BufferPool::Options{.capacity_pages = 4,
                                       .policy = ReplacementPolicyKind::kClock},
                   &fresh_os, latency_);
  replay(&fresh);

  for (uint32_t p = 0; p < 25; ++p) {
    const PageId page{1, p};
    EXPECT_EQ(pool_.Contains(page), fresh.Contains(page))
        << "page " << p << " diverged after Reset";
  }
}

TEST_F(BufferPoolTest, UnevictablePressureCountsPinsAndInFlight) {
  EXPECT_DOUBLE_EQ(pool_.UnevictablePressure(0), 0.0);
  pool_.FetchPage(PageId{1, 0}, 0);
  EXPECT_DOUBLE_EQ(pool_.UnevictablePressure(0), 0.0);  // resident != pinned
  pool_.Pin(PageId{1, 0});
  EXPECT_DOUBLE_EQ(pool_.UnevictablePressure(0), 0.25);
  pool_.StartPrefetch(PageId{2, 0}, /*completion=*/500, /*pin=*/false, 0);
  // In-flight counts only until its arrival time.
  EXPECT_DOUBLE_EQ(pool_.UnevictablePressure(100), 0.5);
  EXPECT_DOUBLE_EQ(pool_.UnevictablePressure(600), 0.25);
  pool_.Unpin(PageId{1, 0});
  EXPECT_DOUBLE_EQ(pool_.UnevictablePressure(600), 0.0);
}

TEST_F(BufferPoolTest, UncachedBypassDoesNotTouchResidentFrames) {
  for (uint32_t p = 0; p < 4; ++p) {
    pool_.FetchPage(PageId{1, p}, 0);
    pool_.Pin(PageId{1, p});
  }
  const uint64_t evictions = pool_.stats().evictions;
  const FetchResult r = *pool_.FetchPage(PageId{1, 99}, 10);
  EXPECT_FALSE(r.served_by_prefetch);
  EXPECT_EQ(pool_.stats().uncached_reads, 1u);
  EXPECT_EQ(pool_.stats().evictions, evictions);  // nobody was evicted
  EXPECT_EQ(pool_.used_frames(), 4u);
  for (uint32_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(pool_.Contains(PageId{1, p}));
    pool_.Unpin(PageId{1, p});
  }
}

TEST_F(BufferPoolTest, OsCacheServesSecondMissCheaply) {
  // Page read once, evicted from the (tiny) pool, but still in OS cache:
  // the re-read is a memory copy, not a disk read.
  pool_.FetchPage(PageId{1, 0}, 0);
  for (uint32_t p = 1; p < 6; ++p) pool_.FetchPage(PageId{1, p}, 0);
  ASSERT_FALSE(pool_.Contains(PageId{1, 0}));
  const FetchResult r = *pool_.FetchPage(PageId{1, 0}, 10);
  EXPECT_EQ(r.source, AccessSource::kOsCache);
}

// ---------------------------------------------------------------------------
// Pool invariants under random and concurrent operation.
// ---------------------------------------------------------------------------

TEST(BufferPoolInvariantTest, UnevictableCountMatchesPerPageReference) {
  // The pool keeps its unevictable count as frames change. Seeded random
  // fetches, pinned and unpinned prefetches, pins, unpins and resets, with
  // `now` drawn out of order as the replay loop's governor calls are, must
  // leave UnevictablePressure(t) equal, at every probe time t, to a count
  // over the public per-page queries. Probes below an earlier operation's
  // `now` are what a count pruned at the latest `now` would get wrong.
  LatencyModel latency;
  constexpr size_t kCapacity = 16;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    OsPageCache os(OsPageCache::Options{.capacity_pages = 256,
                                        .readahead_pages = 0},
                   latency);
    BufferPool pool(BufferPool::Options{.capacity_pages = kCapacity}, &os,
                    latency);
    Pcg32 rng(seed, 1);
    std::set<PageId> touched;
    for (int op = 0; op < 1500; ++op) {
      const SimTime now = rng.UniformU32(1000);
      const PageId page{1 + rng.UniformU32(2), rng.UniformU32(24)};
      touched.insert(page);
      const uint32_t kind = rng.UniformU32(100);
      if (kind < 30) {
        ASSERT_TRUE(pool.FetchPage(page, now).ok());
      } else if (kind < 65) {
        // Rejected when the pool is all pinned or in flight; the count
        // must not move then either.
        const SimTime completion = now + rng.UniformU32(600);
        (void)pool.StartPrefetch(page, completion, /*pin=*/kind >= 50, now);
      } else if (kind < 75) {
        pool.Pin(page);
      } else if (kind < 99) {
        pool.Unpin(page);
      } else {
        pool.Reset();
      }
      const SimTime probes[] = {0, now, now + 1, rng.UniformU32(1600),
                                rng.UniformU32(1600), 1u << 20};
      for (const SimTime t : probes) {
        size_t expected = 0;
        for (const PageId& p : touched) {
          if (pool.Contains(p) &&
              (pool.IsPinned(p) || pool.IsInFlight(p, t))) {
            ++expected;
          }
        }
        ASSERT_DOUBLE_EQ(pool.UnevictablePressure(t),
                         static_cast<double>(expected) / kCapacity)
            << "seed " << seed << " op " << op << " t " << t;
      }
    }
  }
}

TEST(BufferPoolInvariantTest, ConcurrentFetchesKeepInvariants) {
  // Real threads against one pool: whatever the interleaving, the fetch
  // count is exact, pins are balanced, and the pool never overfills. This
  // is the TSan soak target for the pool mutex.
  LatencyModel latency;
  OsPageCache os(OsPageCache::Options{.capacity_pages = 4096,
                                      .readahead_pages = 0},
                 latency);
  BufferPool pool(BufferPool::Options{.capacity_pages = 256}, &os, latency);

  constexpr int kThreads = 4;
  constexpr int kFetchesPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, t] {
      Pcg32 rng(0xfeed + t, t);
      for (int i = 0; i < kFetchesPerThread; ++i) {
        const PageId page{1 + rng.UniformU32(8), rng.UniformU32(2048)};
        ASSERT_TRUE(pool.FetchPage(page, i).ok());
        if (i % 16 == 0) {
          pool.Pin(page);
          pool.Unpin(page);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(pool.stats().fetches,
            static_cast<uint64_t>(kThreads) * kFetchesPerThread);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_LE(pool.used_frames(), pool.capacity());
}

class BufferPoolPolicyTest
    : public ::testing::TestWithParam<ReplacementPolicyKind> {};

TEST_P(BufferPoolPolicyTest, BasicWorkingSetBehaviour) {
  LatencyModel latency;
  OsPageCache os(OsPageCache::Options{.capacity_pages = 256,
                                      .readahead_pages = 0},
                 latency);
  BufferPool pool(
      BufferPool::Options{.capacity_pages = 8, .policy = GetParam()}, &os,
      latency);
  // Touch 16 pages twice; any policy must produce 16 misses on the first
  // pass and keep the pool exactly full.
  for (uint32_t p = 0; p < 16; ++p) pool.FetchPage(PageId{1, p}, p);
  EXPECT_EQ(pool.used_frames(), 8u);
  EXPECT_EQ(pool.stats().fetches, 16u);
  EXPECT_EQ(pool.stats().buffer_hits, 0u);
  // A small working set inside capacity: Clock and LRU keep it resident and
  // serve hits. MRU deliberately evicts the most recently used frame, so a
  // cold-started working set keeps evicting itself — the pathology
  // Figure 12e observes.
  for (int round = 0; round < 3; ++round) {
    for (uint32_t p = 100; p < 104; ++p) pool.FetchPage(PageId{1, p}, 50);
  }
  if (GetParam() == ReplacementPolicyKind::kMru) {
    EXPECT_LT(pool.stats().buffer_hits, 8u);
  } else {
    EXPECT_GE(pool.stats().buffer_hits, 8u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, BufferPoolPolicyTest,
                         ::testing::Values(ReplacementPolicyKind::kClock,
                                           ReplacementPolicyKind::kLru,
                                           ReplacementPolicyKind::kMru));

}  // namespace
}  // namespace pythia
