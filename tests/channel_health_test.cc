// Gray-failure resilience: channel health tracking, hedged reads, brownout
// fault injection and the per-channel brownout breakers.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/channel_breaker.h"
#include "core/governor.h"
#include "core/prefetcher.h"
#include "core/replay.h"
#include "exec/trace.h"
#include "storage/channel_health.h"
#include "storage/fault_injector.h"
#include "storage/io_scheduler.h"
#include "storage/os_cache.h"
#include "util/metrics_registry.h"

namespace pythia {
namespace {

// --------------------------------------------------------------------------
// ChannelHealthTracker
// --------------------------------------------------------------------------

TEST(ChannelHealthTrackerTest, EwmaTracksServiceTime) {
  ChannelHealthOptions opts;
  opts.ewma_alpha = 0.5;
  ChannelHealthTracker tracker(2, opts);
  tracker.RecordRead(0, 100);
  EXPECT_DOUBLE_EQ(tracker.Ewma(0), 100.0);  // first sample seeds the EWMA
  tracker.RecordRead(0, 300);
  EXPECT_DOUBLE_EQ(tracker.Ewma(0), 200.0);
  EXPECT_EQ(tracker.SampleCount(0), 2u);
  EXPECT_EQ(tracker.SampleCount(1), 0u);
}

TEST(ChannelHealthTrackerTest, WindowP99PublishedWhenWindowFills) {
  ChannelHealthOptions opts;
  opts.window_samples = 8;
  ChannelHealthTracker tracker(2, opts);
  for (int i = 0; i < 7; ++i) tracker.RecordRead(0, 900);
  EXPECT_FALSE(tracker.Warm(0));
  EXPECT_EQ(tracker.CompletedP99Us(0), 0u);
  tracker.RecordRead(0, 900);  // window fills
  EXPECT_TRUE(tracker.Warm(0));
  // All samples land in the log2 bucket [512, 1023]; the interpolated p99
  // lies inside that bucket.
  EXPECT_GE(tracker.CompletedP99Us(0), 512u);
  EXPECT_LE(tracker.CompletedP99Us(0), 1023u);
  EXPECT_FALSE(tracker.Warm(1));
}

TEST(ChannelHealthTrackerTest, SameFeedIsBitIdentical) {
  ChannelHealthOptions opts;
  opts.window_samples = 4;
  ChannelHealthTracker a(3, opts);
  ChannelHealthTracker b(3, opts);
  for (int i = 0; i < 100; ++i) {
    const size_t ch = static_cast<size_t>(i) % 3;
    const SimTime lat = 100 + static_cast<SimTime>((i * 37) % 900);
    a.RecordRead(ch, lat);
    b.RecordRead(ch, lat);
  }
  for (size_t ch = 0; ch < 3; ++ch) {
    EXPECT_DOUBLE_EQ(a.Ewma(ch), b.Ewma(ch));
    EXPECT_EQ(a.CompletedP99Us(ch), b.CompletedP99Us(ch));
    EXPECT_EQ(a.SampleCount(ch), b.SampleCount(ch));
  }
}

TEST(ChannelHealthTrackerTest, ScoreIsSlowdownVsHealthiestWarmChannel) {
  ChannelHealthOptions opts;
  opts.window_samples = 4;
  opts.ewma_alpha = 1.0;  // EWMA == last sample, for exact arithmetic
  ChannelHealthTracker tracker(3, opts);
  EXPECT_DOUBLE_EQ(tracker.Score(0), 1.0);  // nothing warm: no basis
  for (int i = 0; i < 4; ++i) tracker.RecordRead(0, 100);
  for (int i = 0; i < 4; ++i) tracker.RecordRead(1, 900);
  EXPECT_DOUBLE_EQ(tracker.Score(1), 9.0);
  EXPECT_DOUBLE_EQ(tracker.Score(0), 1.0);
}

TEST(ChannelHealthTrackerTest, HedgeDeadlineUsesOtherChannelsNeverOwnTail) {
  ChannelHealthOptions opts;
  opts.window_samples = 4;
  opts.hedging_enabled = true;
  opts.hedge_deadline_mult = 2.0;
  ChannelHealthTracker tracker(2, opts);
  // Only channel 0 is warm: a read on channel 0 has no OTHER warm channel
  // to reference, so it must not hedge.
  for (int i = 0; i < 4; ++i) tracker.RecordRead(0, 900);
  EXPECT_EQ(tracker.HedgeDeadlineUs(0), 0u);
  EXPECT_GT(tracker.HedgeDeadlineUs(1), 0u);
  // Channel 1 goes warm with a 10x-inflated window (a sustained brownout).
  // Channel 1's own deadline still derives from channel 0's healthy p99 —
  // a brownout must not inflate its own deadline and disable hedging.
  for (int i = 0; i < 4; ++i) tracker.RecordRead(1, 9000);
  const SimTime d1 = tracker.HedgeDeadlineUs(1);
  EXPECT_GT(d1, 0u);
  EXPECT_LE(d1, 2 * 1023u);  // 2x channel 0's bucket-interpolated p99
  // And channel 0's deadline now references channel 1's browned tail: much
  // larger, so healthy-channel reads will not spuriously hedge.
  EXPECT_GT(tracker.HedgeDeadlineUs(0), d1);
}

TEST(ChannelHealthTrackerTest, HealthiestOtherPicksLowestEwmaTiesToIndex) {
  ChannelHealthOptions opts;
  opts.window_samples = 2;
  opts.ewma_alpha = 1.0;
  ChannelHealthTracker tracker(4, opts);
  EXPECT_EQ(tracker.HealthiestOther(0), 0u);  // nothing warm: no target
  for (int i = 0; i < 2; ++i) tracker.RecordRead(1, 500);
  for (int i = 0; i < 2; ++i) tracker.RecordRead(2, 100);
  for (int i = 0; i < 2; ++i) tracker.RecordRead(3, 100);
  EXPECT_EQ(tracker.HealthiestOther(0), 2u);  // tie 2 vs 3 -> lowest index
  EXPECT_EQ(tracker.HealthiestOther(2), 3u);  // never itself
}

TEST(ChannelHealthTrackerTest, HedgeBudgetConservationHoldsAtEveryInstant) {
  ChannelHealthOptions opts;
  opts.hedge_budget_fraction = 0.1;
  ChannelHealthTracker tracker(2, opts);
  uint64_t issued = 0;
  for (int i = 0; i < 200; ++i) {
    tracker.RecordRead(i % 2, 900);
    if (tracker.TryAcquireHedge()) {
      ++issued;
      tracker.RecordHedgeOutcome(i % 3 == 0);
    }
    // The invariant the budget exists for, checked at every instant.
    const ChannelHealthCounters c = tracker.counters();
    EXPECT_LE(static_cast<double>(c.hedges_issued),
              opts.hedge_budget_fraction *
                  static_cast<double>(c.reads_observed));
  }
  const ChannelHealthCounters c = tracker.counters();
  EXPECT_EQ(c.hedges_issued, issued);
  EXPECT_EQ(c.hedges_issued, c.hedges_won + c.hedges_wasted);
  EXPECT_GT(c.hedges_denied_budget, 0u);
  // 10% of 200 reads = 20 hedge tokens.
  EXPECT_EQ(issued, 20u);
}

TEST(ChannelHealthTrackerTest, SuppressionDisablesDeadline) {
  ChannelHealthOptions opts;
  opts.window_samples = 2;
  opts.hedging_enabled = true;
  ChannelHealthTracker tracker(2, opts);
  for (int i = 0; i < 2; ++i) tracker.RecordRead(0, 900);
  EXPECT_GT(tracker.HedgeDeadlineUs(1), 0u);
  tracker.set_hedging_suppressed(true);
  EXPECT_EQ(tracker.HedgeDeadlineUs(1), 0u);
  tracker.set_hedging_suppressed(false);
  EXPECT_GT(tracker.HedgeDeadlineUs(1), 0u);
}

TEST(ChannelHealthTrackerTest, ResetRestoresConstructedState) {
  ChannelHealthOptions opts;
  opts.window_samples = 2;
  opts.hedge_budget_fraction = 1.0;
  ChannelHealthTracker tracker(2, opts);
  for (int i = 0; i < 4; ++i) tracker.RecordRead(0, 900);
  ASSERT_TRUE(tracker.TryAcquireHedge());
  tracker.RecordHedgeOutcome(true);
  tracker.set_hedging_suppressed(true);
  tracker.Reset();
  EXPECT_FALSE(tracker.Warm(0));
  EXPECT_EQ(tracker.SampleCount(0), 0u);
  EXPECT_DOUBLE_EQ(tracker.Ewma(0), 0.0);
  EXPECT_FALSE(tracker.hedging_suppressed());
  const ChannelHealthCounters c = tracker.counters();
  EXPECT_EQ(c.reads_observed, 0u);
  EXPECT_EQ(c.hedges_issued, 0u);
  EXPECT_EQ(c.hedges_won, 0u);
}

// --------------------------------------------------------------------------
// FaultInjector: brownout windows and stream isolation
// --------------------------------------------------------------------------

TEST(BrownoutInjectionTest, WindowCoversExactReadOrdinals) {
  FaultConfig config;
  config.brownout_latency_mult = 10.0;
  config.brownout_start_read = 2;
  config.brownout_duration_reads = 3;
  config.seed = 7;
  ASSERT_TRUE(config.brownout_enabled());
  ASSERT_TRUE(config.enabled());
  FaultInjector injector(config);
  std::vector<SimTime> extra;
  for (int i = 0; i < 7; ++i) {
    extra.push_back(injector.OnDiskRead(900).extra_latency_us);
  }
  const SimTime slow = 900 * 9;  // (mult - 1) x base
  EXPECT_EQ(extra, (std::vector<SimTime>{0, 0, slow, slow, slow, 0, 0}));
  EXPECT_EQ(injector.stats().injected_brownout_reads, 3u);
  EXPECT_EQ(injector.stats().injected_brownout_us, 3 * slow);
  EXPECT_EQ(injector.stats().injected_errors, 0u);  // slow, never an error
  EXPECT_EQ(injector.stats().injected_spikes, 0u);
}

TEST(BrownoutInjectionTest, BrownoutDoesNotPerturbErrorOrSpikeStreams) {
  FaultConfig base;
  base.transient_error_prob = 0.2;
  base.tail_latency_prob = 0.2;
  base.seed = 42;
  FaultConfig browned = base;
  browned.brownout_latency_mult = 10.0;
  browned.brownout_start_read = 0;
  browned.brownout_duration_reads = 1000;
  browned.brownout_jitter = 0.5;
  FaultInjector plain(base);
  FaultInjector gray(browned);
  for (int i = 0; i < 500; ++i) {
    const DiskReadFault a = plain.OnDiskRead(900);
    const DiskReadFault b = gray.OnDiskRead(900);
    // Identical error decisions read for read; a browned read's extra
    // latency is >= the plain read's (spike + brownout slowdown on top).
    EXPECT_EQ(a.transient_error, b.transient_error);
    if (!a.transient_error) {
      EXPECT_GE(b.extra_latency_us, a.extra_latency_us);
    }
  }
  EXPECT_EQ(plain.stats().injected_errors, gray.stats().injected_errors);
  EXPECT_EQ(plain.stats().injected_spikes, gray.stats().injected_spikes);
  EXPECT_GT(gray.stats().injected_brownout_reads, 0u);
}

TEST(BrownoutInjectionTest, JitteredBrownoutIsSeedDeterministic) {
  FaultConfig config;
  config.brownout_latency_mult = 10.0;
  config.brownout_duration_reads = 100;
  config.brownout_jitter = 0.3;
  config.seed = 99;
  FaultInjector a(config);
  FaultInjector b(config);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.OnDiskRead(900).extra_latency_us,
              b.OnDiskRead(900).extra_latency_us);
  }
  a.Reset();
  FaultInjector fresh(config);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.OnDiskRead(900).extra_latency_us,
              fresh.OnDiskRead(900).extra_latency_us);
  }
}

TEST(StallStreamTest, ResetStallStreamReplaysStallsButKeepsStats) {
  FaultConfig config;
  config.aio_stall_prob = 0.5;
  config.aio_stall_us = 1000;
  config.seed = 5;
  FaultInjector injector(config);
  std::vector<SimTime> first;
  for (int i = 0; i < 50; ++i) first.push_back(injector.OnAioSchedule());
  const uint64_t stalls_after_first = injector.stats().injected_stalls;
  ASSERT_GT(stalls_after_first, 0u);
  injector.ResetStallStream();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(injector.OnAioSchedule(), first[i]);
  // Stats are cumulative device history: the rewind does NOT clear them.
  EXPECT_EQ(injector.stats().injected_stalls, 2 * stalls_after_first);
}

TEST(StallStreamTest, StallDrawsDoNotPerturbReadStreams) {
  FaultConfig config;
  config.transient_error_prob = 0.2;
  config.tail_latency_prob = 0.2;
  config.aio_stall_prob = 0.5;
  config.seed = 11;
  FaultInjector plain(config);
  FaultInjector interleaved(config);
  for (int i = 0; i < 300; ++i) {
    const DiskReadFault a = plain.OnDiskRead(900);
    interleaved.OnAioSchedule();  // extra stall draws between reads
    const DiskReadFault b = interleaved.OnDiskRead(900);
    EXPECT_EQ(a.transient_error, b.transient_error);
    EXPECT_EQ(a.extra_latency_us, b.extra_latency_us);
  }
}

// --------------------------------------------------------------------------
// IoScheduler: incremental min tracking, per-channel counters, Reset
// --------------------------------------------------------------------------

// The scheduler's per-channel counters live in the process-wide registry
// and only grow, so tests read them as deltas.
uint64_t ChannelCounter(size_t channel, const char* field) {
  return MetricsRegistry::Global()
      .counter("io.channel." + std::to_string(channel) + "." + field)
      .value();
}

TEST(IoSchedulerChannelTest, TieBreaksToLowestIndexLikeTheLinearScan) {
  IoScheduler io(3);
  uint64_t before[3];
  for (size_t c = 0; c < 3; ++c) before[c] = ChannelCounter(c, "ops");
  // All channels free at 0: successive requests at now=0 must take
  // channels 0, 1, 2 in that order (the old scan's choice).
  EXPECT_EQ(io.Schedule(0, 10), 10u);
  EXPECT_EQ(io.Schedule(0, 10), 10u);
  EXPECT_EQ(io.Schedule(0, 10), 10u);
  EXPECT_EQ(ChannelCounter(0, "ops") - before[0], 1u);
  EXPECT_EQ(ChannelCounter(1, "ops") - before[1], 1u);
  EXPECT_EQ(ChannelCounter(2, "ops") - before[2], 1u);
  // Next request queues behind the earliest-free channel (all tie at 10:
  // channel 0 again).
  EXPECT_EQ(io.Schedule(0, 5), 15u);
  EXPECT_EQ(ChannelCounter(0, "ops") - before[0], 2u);
}

TEST(IoSchedulerChannelTest, PerChannelCountersSumToTotals) {
  // The per-channel counters are process-cumulative: they keep counting
  // across Reset() — every cold restart resets the scheduler, and device
  // busy time is measured from deltas around a whole run of cold queries —
  // while scheduled_ops() restarts from zero.
  IoScheduler io(4);
  uint64_t ops_before = 0;
  uint64_t busy_before = 0;
  for (size_t c = 0; c < io.num_channels(); ++c) {
    ops_before += ChannelCounter(c, "ops");
    busy_before += ChannelCounter(c, "busy_us");
  }
  SimTime busy_expected = 0;
  auto burst = [&](int requests) {
    for (int i = 0; i < requests; ++i) {
      const SimTime lat = 10 + static_cast<SimTime>(i % 7) * 3;
      io.Schedule(static_cast<SimTime>(i), lat);
      busy_expected += lat;
    }
  };
  burst(100);
  EXPECT_EQ(io.scheduled_ops(), 100u);
  io.Reset();
  burst(60);
  uint64_t ops = 0;
  uint64_t busy = 0;
  for (size_t c = 0; c < io.num_channels(); ++c) {
    ops += ChannelCounter(c, "ops");
    busy += ChannelCounter(c, "busy_us");
  }
  EXPECT_EQ(ops - ops_before, 160u);
  EXPECT_EQ(busy - busy_before, busy_expected);
  EXPECT_EQ(io.scheduled_ops(), 60u);
}

TEST(IoSchedulerChannelTest, ResetThenReplayIsBitIdenticalToFreshScheduler) {
  FaultConfig config;
  config.aio_stall_prob = 0.4;
  config.aio_stall_us = 500;
  config.seed = 21;

  FaultInjector injector(config);
  IoScheduler io(4);
  io.set_fault_injector(&injector);

  std::vector<SimTime> first;
  for (int i = 0; i < 200; ++i) {
    first.push_back(io.Schedule(static_cast<SimTime>(i * 3), 50));
  }
  // Reset rewinds the channel timelines AND the injector's stall stream:
  // the replayed sequence must be bit-identical — this was the reset
  // contract bug (the old Reset left the stall stream mid-sequence).
  io.Reset();
  EXPECT_EQ(io.scheduled_ops(), 0u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(io.Schedule(static_cast<SimTime>(i * 3), 50), first[i]);
  }
  // And identical to a scheduler + injector built from scratch.
  FaultInjector fresh_injector(config);
  IoScheduler fresh(4);
  fresh.set_fault_injector(&fresh_injector);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(fresh.Schedule(static_cast<SimTime>(i * 3), 50), first[i]);
  }
}

// --------------------------------------------------------------------------
// OsPageCache: per-channel injector isolation and hedged reads
// --------------------------------------------------------------------------

// Finds an object id owned by `channel` in a cache with this many channels.
ObjectId ObjectOnChannel(const OsPageCache& cache, size_t channel) {
  for (ObjectId obj = 1; obj < 100000; ++obj) {
    if (cache.ChannelOf(PageId{obj, 0}) == channel) return obj;
  }
  ADD_FAILURE() << "no object found for channel " << channel;
  return 0;
}

TEST(StripedCacheFaultIsolationTest, ChannelFaultsNeverPerturbOtherChannels) {
  const LatencyModel latency;
  OsPageCache::Options opts;
  opts.capacity_pages = 64;
  opts.readahead_pages = 0;
  opts.num_channels = 2;

  FaultConfig config;
  config.tail_latency_prob = 0.5;
  config.transient_error_prob = 0.2;
  config.seed = 31;

  const OsPageCache probe(opts, latency);
  const ObjectId obj0 = ObjectOnChannel(probe, 0);
  const ObjectId obj1 = ObjectOnChannel(probe, 1);

  // Arm A: only channel 0 traffic. Arm B: the same channel-0 reads with
  // channel-1 reads interleaved (channel 1 running its own injector).
  // Channel 0's observed fault sequence must be identical: channel streams
  // are isolated, so traffic on one channel can never shift another's.
  auto run = [&](bool interleave) {
    OsPageCache cache(opts, latency);
    FaultInjector inj0(config);
    FaultConfig config1 = config;
    config1.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
    FaultInjector inj1(config1);
    cache.set_channel_fault_injector(0, &inj0);
    cache.set_channel_fault_injector(1, &inj1);
    std::vector<SimTime> lat0;
    for (uint32_t i = 0; i < 200; ++i) {
      const Result<OsReadResult> r = cache.Read(PageId{obj0, i * 2});
      lat0.push_back(r.ok() ? r->latency_us : 0);
      if (interleave) cache.Read(PageId{obj1, i * 2});
    }
    return lat0;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(StripedCacheFaultIsolationTest, ChannelStreamsStableAcrossReset) {
  const LatencyModel latency;
  OsPageCache::Options opts;
  opts.capacity_pages = 64;
  opts.readahead_pages = 0;
  opts.num_channels = 2;
  OsPageCache cache(opts, latency);
  const ObjectId obj1 = ObjectOnChannel(cache, 1);

  FaultConfig config;
  config.tail_latency_prob = 0.6;
  config.seed = 77;
  FaultInjector inj(config);
  cache.set_channel_fault_injector(1, &inj);

  auto sweep = [&] {
    std::vector<SimTime> lats;
    for (uint32_t i = 0; i < 100; ++i) {
      lats.push_back(cache.Read(PageId{obj1, i * 2})->latency_us);
    }
    return lats;
  };
  const std::vector<SimTime> first = sweep();
  cache.DropCaches();
  inj.Reset();  // same seed: the channel's fault stream replays identically
  EXPECT_EQ(sweep(), first);
}

class HedgedReadTest : public ::testing::Test {
 protected:
  HedgedReadTest() {
    cache_opts_.capacity_pages = 256;
    cache_opts_.readahead_pages = 0;
    cache_opts_.num_channels = 4;
    health_opts_.enabled = true;
    health_opts_.window_samples = 8;
    health_opts_.hedging_enabled = true;
    health_opts_.hedge_deadline_mult = 1.5;
    health_opts_.hedge_budget_fraction = 0.25;
  }

  // Builds a cache + tracker where channels other than `victim` are warm at
  // healthy 900us service time.
  void WarmOthers(OsPageCache* cache, ChannelHealthTracker* tracker,
                  size_t victim) {
    cache->set_health_tracker(tracker);
    for (size_t c = 0; c < cache_opts_.num_channels; ++c) {
      if (c == victim) continue;
      for (uint64_t i = 0; i < health_opts_.window_samples; ++i) {
        tracker->RecordRead(c, 900);
      }
    }
  }

  LatencyModel latency_;
  OsPageCache::Options cache_opts_;
  ChannelHealthOptions health_opts_;
};

TEST_F(HedgedReadTest, SlowForegroundReadHedgesAndFirstCompletionWins) {
  OsPageCache cache(cache_opts_, latency_);
  ChannelHealthTracker tracker(cache.num_channels(), health_opts_);
  const size_t victim = 2;
  WarmOthers(&cache, &tracker, victim);
  const ObjectId obj = ObjectOnChannel(cache, victim);

  FaultConfig config;
  config.brownout_latency_mult = 10.0;
  config.brownout_duration_reads = 1u << 30;
  config.seed = 3;
  FaultInjector inj(config);
  cache.set_channel_fault_injector(victim, &inj);

  const Result<OsReadResult> r = cache.Read(PageId{obj, 0});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->hedged);
  EXPECT_TRUE(r->hedge_won);
  EXPECT_EQ(r->primary_latency_us, 9000u);
  EXPECT_NE(r->hedge_channel, victim);
  // First completion wins: deadline + hedge service, well under the browned
  // primary.
  EXPECT_EQ(r->latency_us, r->hedge_deadline_us + r->hedge_latency_us);
  EXPECT_LT(r->latency_us, r->primary_latency_us);
  const ChannelHealthCounters c = tracker.counters();
  EXPECT_EQ(c.hedges_issued, 1u);
  EXPECT_EQ(c.hedges_won, 1u);
  // The detector saw the PRIMARY latency: hedging must not hide the
  // disease.
  EXPECT_DOUBLE_EQ(tracker.Ewma(victim), 9000.0);
}

TEST_F(HedgedReadTest, SpeculativeReadsNeverHedge) {
  OsPageCache cache(cache_opts_, latency_);
  ChannelHealthTracker tracker(cache.num_channels(), health_opts_);
  const size_t victim = 2;
  WarmOthers(&cache, &tracker, victim);
  const ObjectId obj = ObjectOnChannel(cache, victim);

  FaultConfig config;
  config.brownout_latency_mult = 10.0;
  config.brownout_duration_reads = 1u << 30;
  config.seed = 3;
  FaultInjector inj(config);
  cache.set_channel_fault_injector(victim, &inj);

  const Result<OsReadResult> r =
      cache.Read(PageId{obj, 0}, /*hedge_eligible=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->hedged);
  EXPECT_EQ(r->latency_us, 9000u);
  EXPECT_EQ(tracker.counters().hedges_issued, 0u);
}

TEST_F(HedgedReadTest, HealthyReadsDoNotHedge) {
  OsPageCache cache(cache_opts_, latency_);
  ChannelHealthTracker tracker(cache.num_channels(), health_opts_);
  WarmOthers(&cache, &tracker, /*victim=*/2);
  const ObjectId obj = ObjectOnChannel(cache, 0);
  const Result<OsReadResult> r = cache.Read(PageId{obj, 0});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->hedged);
  EXPECT_EQ(r->latency_us, latency_.disk_random_read_us);
}

// --------------------------------------------------------------------------
// ChannelBreakerBoard
// --------------------------------------------------------------------------

class ChannelBreakerTest : public ::testing::Test {
 protected:
  ChannelBreakerTest() : tracker_(MakeTracker()), board_(options_, &tracker_) {}

  static ChannelHealthTracker MakeTracker() {
    ChannelHealthOptions opts;
    opts.window_samples = 4;
    opts.ewma_alpha = 1.0;  // EWMA == last sample: exact state control
    return ChannelHealthTracker(2, opts);
  }

  void Feed(size_t channel, SimTime latency, int n) {
    for (int i = 0; i < n; ++i) tracker_.RecordRead(channel, latency);
  }

  ChannelBreakerOptions options_{.quarantine_score = 4.0,
                                 .close_score = 1.5,
                                 .min_samples = 4,
                                 .probe_budget = 3};
  ChannelHealthTracker tracker_;
  ChannelBreakerBoard board_;
};

TEST_F(ChannelBreakerTest, QuarantinesOnSustainedSlownessNotBeforeWarm) {
  // Channel 0 slow from the start — but nothing is warm yet, so no verdict.
  Feed(0, 9000, 2);
  EXPECT_TRUE(board_.AllowSpeculative(0));
  EXPECT_EQ(board_.state(0), BreakerState::kClosed);
  // Channel 1 warms up healthy; channel 0 reaches min_samples at 10x.
  Feed(1, 900, 4);
  Feed(0, 9000, 2);
  EXPECT_FALSE(board_.AllowSpeculative(0));
  EXPECT_EQ(board_.state(0), BreakerState::kOpen);
  EXPECT_TRUE(board_.AllowSpeculative(1));  // healthy channel unaffected
  EXPECT_EQ(board_.stats().quarantines, 1u);
}

TEST_F(ChannelBreakerTest, RecoversThroughHalfOpenProbes) {
  Feed(1, 900, 4);
  Feed(0, 9000, 4);
  ASSERT_FALSE(board_.AllowSpeculative(0));
  // Still browned: stays open, speculative reads keep being denied.
  Feed(0, 9000, 2);
  EXPECT_FALSE(board_.AllowSpeculative(0));
  EXPECT_GE(board_.stats().speculative_denied, 2u);
  // Recovery: score back to ~1.0 -> half-open, probe_budget=3 probes then
  // closed.
  Feed(0, 900, 4);
  EXPECT_TRUE(board_.AllowSpeculative(0));  // probe 1 (enters half-open)
  EXPECT_EQ(board_.state(0), BreakerState::kHalfOpen);
  EXPECT_TRUE(board_.AllowSpeculative(0));  // probe 2
  EXPECT_TRUE(board_.AllowSpeculative(0));  // probe 3: budget drained
  EXPECT_EQ(board_.state(0), BreakerState::kClosed);
  EXPECT_EQ(board_.stats().reinstatements, 1u);
  EXPECT_EQ(board_.stats().probes, 3u);
}

TEST_F(ChannelBreakerTest, RequarantinesWhenProbePhaseDegrades) {
  Feed(1, 900, 4);
  Feed(0, 9000, 4);
  ASSERT_FALSE(board_.AllowSpeculative(0));
  Feed(0, 900, 4);
  ASSERT_TRUE(board_.AllowSpeculative(0));  // half-open
  // The brownout comes back mid-probe: straight back to quarantine.
  Feed(0, 9000, 2);
  EXPECT_FALSE(board_.AllowSpeculative(0));
  EXPECT_EQ(board_.state(0), BreakerState::kOpen);
  EXPECT_EQ(board_.stats().requarantines, 1u);
}

TEST_F(ChannelBreakerTest, ResetClosesEverythingAndZeroesStats) {
  Feed(1, 900, 4);
  Feed(0, 9000, 4);
  ASSERT_FALSE(board_.AllowSpeculative(0));
  board_.Reset();
  EXPECT_EQ(board_.state(0), BreakerState::kClosed);
  EXPECT_EQ(board_.stats().quarantines, 0u);
  EXPECT_EQ(board_.stats().speculative_denied, 0u);
}

// --------------------------------------------------------------------------
// PrefetchSession brownout shedding
// --------------------------------------------------------------------------

TEST(PrefetchBrownoutShedTest, QuarantinedChannelPagesDropWithoutPinLeak) {
  const LatencyModel latency;
  OsPageCache::Options cache_opts;
  cache_opts.capacity_pages = 256;
  cache_opts.readahead_pages = 0;
  cache_opts.num_channels = 2;
  OsPageCache cache(cache_opts, latency);

  ChannelHealthOptions health_opts;
  health_opts.window_samples = 4;
  health_opts.ewma_alpha = 1.0;
  ChannelHealthTracker tracker(2, health_opts);
  ChannelBreakerOptions breaker_opts;
  breaker_opts.min_samples = 4;
  ChannelBreakerBoard board(breaker_opts, &tracker);
  // Channel 1 browned 10x, channel 0 healthy and warm.
  for (int i = 0; i < 4; ++i) tracker.RecordRead(0, 900);
  for (int i = 0; i < 4; ++i) tracker.RecordRead(1, 9000);

  BufferPool::Options pool_opts;
  pool_opts.capacity_pages = 128;
  BufferPool pool(pool_opts, &cache, latency);
  IoScheduler io(2);

  const ObjectId healthy_obj = ObjectOnChannel(cache, 0);
  const ObjectId browned_obj = ObjectOnChannel(cache, 1);
  std::vector<PageId> pages;
  for (uint32_t i = 0; i < 8; ++i) pages.push_back(PageId{healthy_obj, i * 2});
  for (uint32_t i = 0; i < 8; ++i) pages.push_back(PageId{browned_obj, i * 2});

  PrefetcherOptions opts;
  opts.start_delay_us = 0;
  opts.channel_breakers = &board;
  PrefetchSession session(pages, opts, &pool, &cache, &io, latency);
  session.Pump(1000);
  EXPECT_EQ(session.stats().dropped_brownout, 8u);
  EXPECT_EQ(session.stats().issued, 8u);  // healthy-channel pages went out
  // Dropped pages released their (would-be) pins; issued ones hold theirs.
  EXPECT_EQ(pool.pinned_frames(), 8u);
  session.Finish();
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_EQ(board.stats().speculative_denied, 8u);
}

// --------------------------------------------------------------------------
// Governor hedging suppression
// --------------------------------------------------------------------------

TEST(GovernorHedgingTest, LadderSuppressesAndRestoresHedging) {
  const LatencyModel latency;
  OsPageCache::Options cache_opts;
  cache_opts.num_channels = 2;
  OsPageCache cache(cache_opts, latency);
  ChannelHealthOptions health_opts;
  health_opts.hedging_enabled = true;
  ChannelHealthTracker tracker(2, health_opts);
  cache.set_health_tracker(&tracker);

  BufferPool::Options pool_opts;
  pool_opts.capacity_pages = 4;
  BufferPool pool(pool_opts, &cache, latency);
  IoScheduler io(2);
  GovernorOptions gov_opts;  // hedging is suppressed from kReadahead on
  PrefetchGovernor governor(gov_opts, &pool, &io, &cache);

  // Saturate the pool: every frame pinned -> pressure 1.0 -> kNoPrefetch.
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.FetchPage(PageId{1, i * 2}, 0).ok());
    pool.Pin(PageId{1, i * 2});
  }
  EXPECT_EQ(governor.Evaluate(1000), DegradationRung::kNoPrefetch);
  EXPECT_TRUE(tracker.hedging_suppressed());

  // Pressure released: the ladder steps back one rung per Evaluate; hedging
  // resumes as soon as the rung falls below kReadahead.
  for (uint32_t i = 0; i < 4; ++i) pool.Unpin(PageId{1, i * 2});
  EXPECT_EQ(governor.Evaluate(2000), DegradationRung::kReadahead);
  EXPECT_TRUE(tracker.hedging_suppressed());
  EXPECT_EQ(governor.Evaluate(3000), DegradationRung::kCachedOnly);
  EXPECT_FALSE(tracker.hedging_suppressed());
  governor.Evaluate(4000);
  EXPECT_FALSE(tracker.hedging_suppressed());
}

// --------------------------------------------------------------------------
// End-to-end: SimEnvironment wiring, determinism, hedging under brownout
// --------------------------------------------------------------------------

// A trace of unique random-read pages spread over many objects (stride-3
// page numbers defeat sequential detection, so every access is a cold
// 900us random device read).
QueryTrace RandomTrace(size_t accesses, ObjectId objects) {
  QueryTrace trace;
  for (size_t i = 0; i < accesses; ++i) {
    PageAccess a;
    a.page = PageId{static_cast<ObjectId>(1 + (i % objects)),
                    static_cast<uint32_t>(3 * (i / objects))};
    a.cpu_tuples_before = 1;
    trace.accesses.push_back(a);
  }
  return trace;
}

SimOptions GrayEnvOptions(bool hedging) {
  SimOptions opts;
  opts.buffer_pages = 64;  // far smaller than the trace: every access misses
  opts.os_cache_pages = 64;
  opts.os_readahead_pages = 0;
  opts.storage_channels = 4;
  opts.channel_health.enabled = true;
  opts.channel_health.window_samples = 16;
  opts.channel_health.hedging_enabled = hedging;
  opts.channel_health.hedge_budget_fraction = 0.4;
  opts.faults.brownout_latency_mult = 10.0;
  opts.faults.brownout_start_read = 24;
  opts.faults.brownout_duration_reads = 1u << 30;
  opts.faults.seed = 1234;
  return opts;
}

TEST(GrayFailureEndToEndTest, HedgedReplayIsDeterministicAndFaster) {
  const QueryTrace trace = RandomTrace(1200, 48);
  // Pick the brownout victim: the channel owning the first object.
  SimOptions probe_opts = GrayEnvOptions(true);
  SimEnvironment probe(probe_opts);
  const int victim = static_cast<int>(
      probe.os_cache().ChannelOf(trace.accesses[0].page));

  auto run = [&](bool hedging) {
    SimOptions opts = GrayEnvOptions(hedging);
    opts.brownout_channel = victim;
    SimEnvironment env(opts);
    const QueryRunMetrics r = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.completed_accesses, trace.accesses.size());
    return std::make_pair(r.elapsed_us, r.pool_stats);
  };

  const auto hedged_a = run(true);
  const auto hedged_b = run(true);
  // Same seed, hedging on: bit-identical reruns.
  EXPECT_EQ(hedged_a.first, hedged_b.first);
  EXPECT_EQ(hedged_a.second.hedged_reads, hedged_b.second.hedged_reads);
  EXPECT_EQ(hedged_a.second.hedge_wins, hedged_b.second.hedge_wins);
  EXPECT_GT(hedged_a.second.hedged_reads, 0u);
  EXPECT_GT(hedged_a.second.hedge_wins, 0u);

  const auto unhedged = run(false);
  EXPECT_EQ(unhedged.second.hedged_reads, 0u);
  // Hedging routes around the browned channel: strictly faster end to end.
  EXPECT_LT(hedged_a.first, unhedged.first);
}

TEST(GrayFailureEndToEndTest, BrownoutChannelScopingConfinesInjection) {
  const QueryTrace trace = RandomTrace(800, 48);
  SimOptions opts = GrayEnvOptions(false);
  SimEnvironment probe(opts);
  const size_t victim = probe.os_cache().ChannelOf(trace.accesses[0].page);
  opts.brownout_channel = static_cast<int>(victim);
  SimEnvironment env(opts);
  const QueryRunMetrics r = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  ASSERT_TRUE(r.status.ok());
  for (size_t c = 0; c < env.os_cache().num_channels(); ++c) {
    const FaultInjector* inj = env.os_cache().channel_fault_injector(c);
    ASSERT_NE(inj, nullptr);
    if (c == victim) {
      EXPECT_GT(inj->stats().injected_brownout_reads, 0u);
    } else {
      EXPECT_EQ(inj->stats().injected_brownout_reads, 0u);
    }
  }
  // And the victim's health score shows the brownout.
  ASSERT_NE(env.channel_health(), nullptr);
  EXPECT_GT(env.channel_health()->Score(victim), 4.0);
}

TEST(GrayFailureEndToEndTest, ResetChannelHealthRestoresColdTracker) {
  SimOptions opts = GrayEnvOptions(true);
  opts.channel_breakers = true;
  SimEnvironment env(opts);
  const QueryTrace trace = RandomTrace(400, 48);
  ASSERT_TRUE(ReplayQuery(trace, {}, PrefetcherOptions{}, &env).status.ok());
  ASSERT_NE(env.channel_health(), nullptr);
  ASSERT_NE(env.channel_breakers(), nullptr);
  EXPECT_GT(env.channel_health()->counters().reads_observed, 0u);
  env.ResetChannelHealth();
  EXPECT_EQ(env.channel_health()->counters().reads_observed, 0u);
  for (size_t c = 0; c < env.os_cache().num_channels(); ++c) {
    EXPECT_FALSE(env.channel_health()->Warm(c));
    EXPECT_EQ(env.channel_breakers()->state(c), BreakerState::kClosed);
  }
}

// TSan soak: a real thread fleet hammering the striped cache with hedging
// and breakers armed, so the tracker's atomics/mutex discipline and the
// breaker board's locking are exercised under genuine concurrency
// (scripts/run_sanitized_tests.sh runs this under -fsanitize=thread).
TEST(GrayFailureEndToEndTest, HedgeSoakParallelFleet) {
  SimOptions opts = GrayEnvOptions(true);
  opts.buffer_pages = 512;
  opts.channel_breakers = true;
  opts.faults.brownout_start_read = 8;
  SimEnvironment env(opts);

  const size_t kThreads = 8;
  std::vector<QueryTrace> traces;
  for (size_t t = 0; t < kThreads; ++t) {
    traces.push_back(RandomTrace(300, 16 + t));
  }
  std::vector<ConcurrentQuery> fleet(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    fleet[t].trace = &traces[t];
    fleet[t].prefetch_options.start_delay_us = 0;
    if (t % 2 == 1) {
      // Odd threads also run a speculative session over their own pages, so
      // breaker denials and hedged foreground reads interleave.
      for (const PageAccess& a : traces[t].accesses) {
        fleet[t].prefetch_pages.push_back(a.page);
      }
    }
  }
  const ParallelReplayResult result = ReplayParallelFleet(fleet, &env);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(result.threads[t].status.ok()) << "thread " << t;
    EXPECT_EQ(result.threads[t].completed_accesses,
              traces[t].accesses.size());
  }
  EXPECT_EQ(env.pool().pinned_frames(), 0u);  // no pin leaks
  // Budget conservation held under concurrency.
  const ChannelHealthCounters c = env.channel_health()->counters();
  EXPECT_LE(static_cast<double>(c.hedges_issued),
            opts.channel_health.hedge_budget_fraction *
                static_cast<double>(c.reads_observed));
  EXPECT_EQ(c.hedges_issued, c.hedges_won + c.hedges_wasted);
}

}  // namespace
}  // namespace pythia
