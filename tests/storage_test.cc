#include <gtest/gtest.h>

#include <vector>

#include "storage/io_scheduler.h"
#include "storage/latency_model.h"
#include "storage/os_cache.h"
#include "storage/page_id.h"

namespace pythia {
namespace {

TEST(PageIdTest, OrderingIsObjectThenPage) {
  EXPECT_LT((PageId{1, 5}), (PageId{2, 0}));
  EXPECT_LT((PageId{1, 5}), (PageId{1, 6}));
  EXPECT_FALSE((PageId{2, 0}) < (PageId{1, 5}));
}

TEST(PageIdTest, PackUnpackRoundTrip) {
  const PageId p{0xdeadbeefu, 0x12345678u};
  EXPECT_EQ(PageId::Unpack(p.Pack()), p);
}

TEST(PageIdTest, HashDistinguishesObjectAndPage) {
  const PageIdHash h;
  EXPECT_NE(h(PageId{1, 2}), h(PageId{2, 1}));
}

class OsCacheTest : public ::testing::Test {
 protected:
  OsCacheTest()
      : cache_(OsPageCache::Options{.capacity_pages = 64,
                                    .readahead_pages = 4},
               latency_) {}
  LatencyModel latency_;
  OsPageCache cache_;
};

TEST_F(OsCacheTest, FirstReadIsRandom) {
  const OsReadResult r = *cache_.Read(PageId{1, 10});
  EXPECT_EQ(r.source, AccessSource::kDiskRandom);
  EXPECT_EQ(r.latency_us, latency_.disk_random_read_us);
}

TEST_F(OsCacheTest, SequentialReadDetected) {
  cache_.Read(PageId{1, 10});
  const OsReadResult r = *cache_.Read(PageId{1, 11});
  EXPECT_EQ(r.source, AccessSource::kDiskSequential);
  EXPECT_EQ(r.latency_us, latency_.disk_seq_read_us);
}

TEST_F(OsCacheTest, ReadaheadFillsFollowingPages) {
  cache_.Read(PageId{1, 0});
  cache_.Read(PageId{1, 1});  // sequential: pages 2..5 prefilled
  for (uint32_t p = 2; p <= 5; ++p) {
    EXPECT_TRUE(cache_.Contains(PageId{1, p})) << p;
  }
  const OsReadResult r = *cache_.Read(PageId{1, 2});
  EXPECT_EQ(r.source, AccessSource::kOsCache);
  EXPECT_EQ(r.latency_us, latency_.os_cache_copy_us);
}

TEST_F(OsCacheTest, SequentialRunSurvivesCacheHits) {
  // A long scan keeps its readahead run alive even while hits are served.
  cache_.Read(PageId{1, 0});
  cache_.Read(PageId{1, 1});   // seq; readahead 2..5
  cache_.Read(PageId{1, 2});   // hit
  cache_.Read(PageId{1, 3});   // hit
  // After the readahead window, page 6 continues the run: sequential again.
  cache_.Read(PageId{1, 4});
  cache_.Read(PageId{1, 5});
  const OsReadResult r = *cache_.Read(PageId{1, 6});
  EXPECT_EQ(r.source, AccessSource::kDiskSequential);
}

TEST_F(OsCacheTest, PerObjectRunTracking) {
  cache_.Read(PageId{1, 10});
  cache_.Read(PageId{2, 11});  // different object: random
  EXPECT_EQ(cache_.random_reads(), 2u);
  const OsReadResult r = *cache_.Read(PageId{1, 11});  // continues object 1
  EXPECT_EQ(r.source, AccessSource::kDiskSequential);
}

TEST_F(OsCacheTest, DropCachesForgetsEverything) {
  cache_.Read(PageId{1, 0});
  cache_.Read(PageId{1, 1});
  EXPECT_GT(cache_.cached_pages(), 0u);
  cache_.DropCaches();
  EXPECT_EQ(cache_.cached_pages(), 0u);
  // Run state cleared too: the next read is random even though page 2 would
  // have continued the run.
  const OsReadResult r = *cache_.Read(PageId{1, 2});
  EXPECT_EQ(r.source, AccessSource::kDiskRandom);
}

TEST_F(OsCacheTest, LruEviction) {
  OsPageCache small(
      OsPageCache::Options{.capacity_pages = 2, .readahead_pages = 0},
      latency_);
  small.Read(PageId{1, 100});
  small.Read(PageId{1, 200});
  small.Read(PageId{1, 300});  // evicts 100
  EXPECT_FALSE(small.Contains(PageId{1, 100}));
  EXPECT_TRUE(small.Contains(PageId{1, 200}));
  EXPECT_TRUE(small.Contains(PageId{1, 300}));
}

TEST_F(OsCacheTest, CountersAccumulate) {
  cache_.Read(PageId{3, 7});   // random
  cache_.Read(PageId{3, 8});   // sequential
  cache_.Read(PageId{3, 9});   // hit (readahead)
  EXPECT_EQ(cache_.random_reads(), 1u);
  EXPECT_EQ(cache_.sequential_reads(), 1u);
  EXPECT_EQ(cache_.hits(), 1u);
}

TEST(IoSchedulerTest, SingleChannelSerializes) {
  IoScheduler io(1);
  EXPECT_EQ(io.Schedule(0, 100), 100u);
  EXPECT_EQ(io.Schedule(0, 100), 200u);  // queued behind the first
  EXPECT_EQ(io.Schedule(500, 100), 600u);  // idle until 500
}

TEST(IoSchedulerTest, ParallelChannelsOverlap) {
  IoScheduler io(2);
  EXPECT_EQ(io.Schedule(0, 100), 100u);
  EXPECT_EQ(io.Schedule(0, 100), 100u);  // second channel
  EXPECT_EQ(io.Schedule(0, 100), 200u);  // back to channel 0
}

TEST(IoSchedulerTest, ResetClearsTimelines) {
  IoScheduler io(1);
  io.Schedule(0, 1000);
  io.Reset();
  EXPECT_EQ(io.Schedule(0, 10), 10u);
  EXPECT_EQ(io.scheduled_ops(), 1u);
}

TEST(IoSchedulerTest, ZeroChannelsClampedToOne) {
  IoScheduler io(0);
  EXPECT_EQ(io.num_channels(), 1u);
}

// ---------------------------------------------------------------------------
// Striped OS cache channels.
// ---------------------------------------------------------------------------

TEST(StripedOsCacheTest, ChannelsKeyedByObjectId) {
  LatencyModel latency;
  OsPageCache cache(
      OsPageCache::Options{.capacity_pages = 256, .num_channels = 4},
      latency);
  EXPECT_EQ(cache.num_channels(), 4u);
  // Every page of an object lands on the same channel — the invariant that
  // keeps sequential-run detection whole. PageId-hash keying would break it.
  for (ObjectId obj = 1; obj < 20; ++obj) {
    const size_t channel = cache.ChannelOf(PageId{obj, 0});
    for (uint32_t p = 1; p < 50; ++p) {
      EXPECT_EQ(cache.ChannelOf(PageId{obj, p}), channel);
    }
  }
}

TEST(StripedOsCacheTest, SequentialDetectionSurvivesStriping) {
  LatencyModel latency;
  OsPageCache cache(OsPageCache::Options{.capacity_pages = 1024,
                                         .readahead_pages = 4,
                                         .num_channels = 4},
                    latency);
  // Interleave scans of several objects (they hash to various channels):
  // each scan's run must still be detected as sequential from its second
  // page on, exactly as with the unstriped cache.
  for (uint32_t p = 0; p < 8; ++p) {
    for (ObjectId obj = 1; obj <= 6; ++obj) {
      const OsReadResult r = *cache.Read(PageId{obj, p});
      if (p == 0) {
        EXPECT_EQ(r.source, AccessSource::kDiskRandom) << "obj " << obj;
      } else {
        // Page p is either a readahead hit or (first page past the window)
        // a detected-sequential device read — never a random read.
        EXPECT_NE(r.source, AccessSource::kDiskRandom)
            << "obj " << obj << " page " << p;
      }
    }
  }
  EXPECT_EQ(cache.random_reads(), 6u);  // one cold start per object
}

TEST(StripedOsCacheTest, CountersSumOverChannels) {
  LatencyModel latency;
  OsPageCache cache(
      OsPageCache::Options{.capacity_pages = 512,
                           .readahead_pages = 0,
                           .num_channels = 3},
      latency);
  for (ObjectId obj = 1; obj <= 9; ++obj) {
    cache.Read(PageId{obj, 0});     // random
    cache.Read(PageId{obj, 1});     // sequential
    cache.Read(PageId{obj, 0});     // hit
  }
  EXPECT_EQ(cache.random_reads(), 9u);
  EXPECT_EQ(cache.sequential_reads(), 9u);
  EXPECT_EQ(cache.hits(), 9u);
  EXPECT_EQ(cache.cached_pages(), 18u);
  cache.DropCaches();
  EXPECT_EQ(cache.cached_pages(), 0u);
  // Counters are cumulative, not cleared by DropCaches.
  EXPECT_EQ(cache.hits(), 9u);
}

TEST(StripedOsCacheTest, SingleChannelMatchesStripedOnSameTrace) {
  // Same read sequence against 1 and 4 channels: per-read outcomes must be
  // identical (striping partitions state, it must not change semantics).
  LatencyModel latency;
  auto run = [&](size_t channels) {
    OsPageCache cache(OsPageCache::Options{.capacity_pages = 1024,
                                           .readahead_pages = 8,
                                           .num_channels = channels},
                      latency);
    std::vector<AccessSource> sources;
    for (uint32_t p = 0; p < 20; ++p) {
      for (ObjectId obj = 1; obj <= 5; ++obj) {
        sources.push_back((*cache.Read(PageId{obj, p})).source);
      }
    }
    return sources;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(LatencyModelTest, DefaultOrdering) {
  // The hierarchy must be strictly ordered for the simulation to make sense.
  const LatencyModel lat;
  EXPECT_LT(lat.buffer_hit_us, lat.os_cache_copy_us);
  EXPECT_LT(lat.os_cache_copy_us, lat.disk_seq_read_us);
  EXPECT_LT(lat.disk_seq_read_us, lat.disk_random_read_us);
}

}  // namespace
}  // namespace pythia
