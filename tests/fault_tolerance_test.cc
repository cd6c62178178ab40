#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/baselines.h"
#include "core/circuit_breaker.h"
#include "core/predictor.h"
#include "core/replay.h"
#include "core/watchdog.h"
#include "storage/fault_injector.h"
#include "storage/sim_disk.h"
#include "util/metrics.h"
#include "util/metrics_registry.h"

namespace pythia {
namespace {

QueryTrace MakeMixedTrace(uint32_t seq, uint32_t random_pages) {
  QueryTrace trace;
  for (uint32_t p = 0; p < seq; ++p) {
    trace.accesses.push_back(PageAccess{PageId{1, p}, true, 5});
  }
  for (uint32_t i = 0; i < random_pages; ++i) {
    trace.accesses.push_back(
        PageAccess{PageId{2, (i * 37) % 1000}, false, 5});
  }
  return trace;
}

SimOptions FaultySim(double error_prob, double spike_prob,
                     uint64_t seed = 1234) {
  SimOptions options;
  options.buffer_pages = 512;
  options.os_cache_pages = 2048;
  options.faults.transient_error_prob = error_prob;
  options.faults.tail_latency_prob = spike_prob;
  options.faults.seed = seed;
  return options;
}

// ---------------------------------------------------------------------------
// FaultInjector.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DisabledConfigNeverFaults) {
  FaultInjector injector{FaultConfig{}};
  for (int i = 0; i < 1000; ++i) {
    const DiskReadFault f = injector.OnDiskRead(900);
    EXPECT_FALSE(f.transient_error);
    EXPECT_EQ(f.extra_latency_us, 0u);
    EXPECT_EQ(injector.OnAioSchedule(), 0u);
  }
  EXPECT_EQ(injector.stats().disk_reads_probed, 0u);
}

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  FaultConfig config;
  config.transient_error_prob = 0.05;
  config.tail_latency_prob = 0.02;
  config.aio_stall_prob = 0.01;
  config.seed = 99;
  FaultInjector a(config), b(config);
  for (int i = 0; i < 5000; ++i) {
    const DiskReadFault fa = a.OnDiskRead(900);
    const DiskReadFault fb = b.OnDiskRead(900);
    EXPECT_EQ(fa.transient_error, fb.transient_error);
    EXPECT_EQ(fa.extra_latency_us, fb.extra_latency_us);
    EXPECT_EQ(a.OnAioSchedule(), b.OnAioSchedule());
  }
  EXPECT_EQ(a.stats().injected_errors, b.stats().injected_errors);
  EXPECT_GT(a.stats().injected_errors, 0u);
  EXPECT_GT(a.stats().injected_spikes, 0u);
}

TEST(FaultInjectorTest, ResetRewindsTheSequence) {
  FaultConfig config;
  config.transient_error_prob = 0.1;
  config.seed = 7;
  FaultInjector injector(config);
  std::vector<bool> first;
  for (int i = 0; i < 200; ++i) {
    first.push_back(injector.OnDiskRead(900).transient_error);
  }
  injector.Reset();
  EXPECT_EQ(injector.stats().injected_errors, 0u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(injector.OnDiskRead(900).transient_error, first[i]) << i;
  }
}

TEST(FaultInjectorTest, SpikeMagnitudeWithinConfiguredBand) {
  FaultConfig config;
  config.tail_latency_prob = 1.0;
  config.tail_latency_min_mult = 10.0;
  config.tail_latency_max_mult = 50.0;
  config.seed = 5;
  FaultInjector injector(config);
  for (int i = 0; i < 500; ++i) {
    const DiskReadFault f = injector.OnDiskRead(900);
    ASSERT_FALSE(f.transient_error);
    EXPECT_GE(f.extra_latency_us, 9000u);
    EXPECT_LT(f.extra_latency_us, 45000u);
  }
}

TEST(FaultInjectorTest, RetryBackoffIsCappedExponentialWithJitter) {
  FaultConfig config;
  config.transient_error_prob = 0.1;  // enabled
  config.seed = 3;
  FaultInjector injector(config);
  RetryPolicy policy;
  policy.initial_backoff_us = 100;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_us = 800;
  for (uint32_t attempt = 1; attempt <= 10; ++attempt) {
    const SimTime backoff = injector.RetryBackoff(policy, attempt);
    // Jitter spans [0.5, 1.5) of the capped exponential value.
    EXPECT_GE(backoff, 50u);
    EXPECT_LT(backoff, 1200u);
  }
}

// ---------------------------------------------------------------------------
// Fallible read paths: OS cache, buffer pool, I/O scheduler.
// ---------------------------------------------------------------------------

TEST(FaultyOsCacheTest, TransientErrorLeavesCacheUntouched) {
  LatencyModel latency;
  FaultConfig config;
  config.transient_error_prob = 1.0;
  FaultInjector injector(config);
  OsPageCache cache(
      OsPageCache::Options{.capacity_pages = 64, .readahead_pages = 4},
      latency);
  cache.set_channel_fault_injector(0, &injector);
  const Result<OsReadResult> r = cache.Read(PageId{1, 10});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(cache.cached_pages(), 0u);
  EXPECT_EQ(cache.failed_reads(), 1u);
  // Hits never fault: preload a page with injection off, then re-enable.
  cache.set_channel_fault_injector(0, nullptr);
  ASSERT_TRUE(cache.Read(PageId{2, 0}).ok());
  cache.set_channel_fault_injector(0, &injector);
  const Result<OsReadResult> hit = cache.Read(PageId{2, 0});
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->source, AccessSource::kOsCache);
}

TEST(FaultyBufferPoolTest, ForegroundReadRetriesUntilSuccess) {
  LatencyModel latency;
  // 0.3^8 ~ 7e-5: exhausting all 8 attempts is effectively impossible, so
  // every fetch succeeds after some retries.
  FaultConfig config;
  config.transient_error_prob = 0.3;
  config.seed = 21;
  FaultInjector injector(config);
  OsPageCache cache(
      OsPageCache::Options{.capacity_pages = 256, .readahead_pages = 0},
      latency);
  cache.set_channel_fault_injector(0, &injector);
  BufferPool pool(BufferPool::Options{.capacity_pages = 64}, &cache,
                  latency);
  uint64_t total_retries = 0;
  for (uint32_t p = 0; p < 100; ++p) {
    const Result<FetchResult> r = pool.FetchPage(PageId{1, p * 3}, p);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    total_retries += r->retries;
    if (r->retries > 0) {
      // Each failed attempt costs at least the device time it burned.
      EXPECT_GT(r->latency_us,
                latency.disk_random_read_us * r->retries);
    }
  }
  EXPECT_GT(total_retries, 0u);
  EXPECT_EQ(pool.stats().read_retries, total_retries);
  EXPECT_EQ(pool.stats().failed_fetches, 0u);
}

TEST(FaultyBufferPoolTest, ExhaustedRetriesSurfaceIoError) {
  LatencyModel latency;
  FaultConfig config;
  config.transient_error_prob = 1.0;  // every attempt fails
  FaultInjector injector(config);
  OsPageCache cache(OsPageCache::Options{}, latency);
  cache.set_channel_fault_injector(0, &injector);
  BufferPool::Options options;
  options.capacity_pages = 8;
  options.retry.max_attempts = 3;
  BufferPool pool(options, &cache, latency);
  const Result<FetchResult> r = pool.FetchPage(PageId{1, 0}, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(pool.stats().failed_fetches, 1u);
  EXPECT_EQ(pool.stats().read_retries, 2u);  // attempts 1 and 2 retried
  EXPECT_FALSE(pool.Contains(PageId{1, 0}));
}

TEST(FaultyIoSchedulerTest, StalledChannelDelaysCompletion) {
  FaultConfig config;
  config.aio_stall_prob = 1.0;
  config.aio_stall_us = 5000;
  FaultInjector injector(config);
  IoScheduler io(1);
  io.set_fault_injector(&injector);
  EXPECT_EQ(io.Schedule(0, 100), 5100u);
  EXPECT_EQ(injector.stats().injected_stalls, 1u);
}

// ---------------------------------------------------------------------------
// Replay under faults: correctness of accounting, no lost reads, no leaks.
// ---------------------------------------------------------------------------

TEST(FaultyReplayTest, QueriesCompleteWithCorrectAccounting) {
  // 1% transient errors + 0.1% tail spikes: every access must still be
  // served and counted, with zero pins left behind.
  const QueryTrace trace = MakeMixedTrace(60, 240);
  SimEnvironment env(FaultySim(0.01, 0.001));
  PrefetcherOptions options;
  options.start_delay_us = 0;
  const std::vector<PageId> oracle = OraclePages(trace);
  const QueryRunMetrics r = ReplayQuery(trace, oracle, options, &env);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.completed_accesses, trace.accesses.size());
  EXPECT_EQ(r.pool_stats.fetches, trace.accesses.size());
  EXPECT_EQ(r.pool_stats.failed_fetches, 0u);
  EXPECT_EQ(env.pool().pinned_frames(), 0u);
  const FaultInjector* injector = env.os_cache().channel_fault_injector(0);
  ASSERT_NE(injector, nullptr);
  EXPECT_GT(injector->stats().disk_reads_probed, 0u);
}

TEST(FaultyReplayTest, FaultsCostTimeButKeepPrefetchWinning) {
  const QueryTrace trace = MakeMixedTrace(60, 240);

  SimEnvironment clean(FaultySim(0.0, 0.0));
  const QueryRunMetrics base =
      ReplayQuery(trace, {}, PrefetcherOptions{}, &clean);

  SimEnvironment faulty(FaultySim(0.01, 0.001));
  const QueryRunMetrics dflt =
      ReplayQuery(trace, {}, PrefetcherOptions{}, &faulty);
  EXPECT_GE(dflt.elapsed_us, base.elapsed_us);

  faulty.ColdRestart();
  PrefetcherOptions options;
  options.start_delay_us = 0;
  const QueryRunMetrics fetched =
      ReplayQuery(trace, OraclePages(trace), options, &faulty);
  ASSERT_TRUE(fetched.status.ok());
  EXPECT_LT(fetched.elapsed_us, dflt.elapsed_us);
}

TEST(FaultyReplayTest, DeterministicGivenSeed) {
  const QueryTrace trace = MakeMixedTrace(40, 200);
  const std::vector<PageId> oracle = OraclePages(trace);
  PrefetcherOptions options;
  options.start_delay_us = 0;

  auto run = [&](uint64_t seed) {
    SimEnvironment env(FaultySim(0.02, 0.005, seed));
    return ReplayQuery(trace, oracle, options, &env);
  };
  const QueryRunMetrics a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.pool_stats.read_retries, b.pool_stats.read_retries);
  EXPECT_EQ(a.prefetch_stats.dropped_faulty, b.prefetch_stats.dropped_faulty);
  EXPECT_EQ(a.prefetch_stats.issued, b.prefetch_stats.issued);
  // A different seed produces a different fault pattern (overwhelmingly).
  EXPECT_NE(a.elapsed_us, c.elapsed_us);
}

TEST(FaultyReplayTest, PrefetchDropsAreNeverQueryFailures) {
  // Massive speculative fault rate: prefetches get dropped, but the
  // foreground path retries through and the query completes.
  const QueryTrace trace = MakeMixedTrace(10, 120);
  SimEnvironment env(FaultySim(0.30, 0.0, 77));
  PrefetcherOptions options;
  options.start_delay_us = 0;
  const QueryRunMetrics r =
      ReplayQuery(trace, OraclePages(trace), options, &env);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.completed_accesses, trace.accesses.size());
  EXPECT_GT(r.prefetch_stats.dropped_faulty, 0u);
  EXPECT_EQ(env.pool().pinned_frames(), 0u);
}

TEST(FaultyReplayTest, ConcurrentBatchSurvivesFaults) {
  const QueryTrace t1 = MakeMixedTrace(30, 150);
  const QueryTrace t2 = MakeMixedTrace(30, 150);
  SimEnvironment env(FaultySim(0.01, 0.001, 11));
  ConcurrentQuery a, b;
  a.trace = &t1;
  b.trace = &t2;
  a.prefetch_pages = OraclePages(t1);
  b.prefetch_pages = OraclePages(t2);
  a.prefetch_options.start_delay_us = 0;
  b.prefetch_options.start_delay_us = 0;
  const ConcurrentResult r = ReplayConcurrent({a, b}, {}, &env);
  ASSERT_EQ(r.queries.size(), 2u);
  EXPECT_TRUE(r.queries[0].status.ok());
  EXPECT_TRUE(r.queries[1].status.ok());
  EXPECT_EQ(env.pool().pinned_frames(), 0u);
}

// ---------------------------------------------------------------------------
// Prefetch deadline accounting.
// ---------------------------------------------------------------------------

TEST(PrefetchTimeoutTest, StaleOutstandingPrefetchesAreWrittenOff) {
  LatencyModel latency;
  OsPageCache cache(OsPageCache::Options{.capacity_pages = 1024,
                                         .readahead_pages = 0},
                    latency);
  BufferPool pool(BufferPool::Options{.capacity_pages = 64}, &cache,
                  latency);
  IoScheduler io(2);
  PrefetcherOptions options;
  options.start_delay_us = 0;
  options.readahead_window = 4;
  options.prefetch_timeout_us = 1000;
  PrefetchSession session({{1, 0}, {1, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 5}},
                          options, &pool, &cache, &io, latency);
  session.Pump(0);
  EXPECT_EQ(session.outstanding(), 4u);
  EXPECT_GT(pool.pinned_frames(), 0u);
  // Far past the deadline with nothing consumed: the stale pins are
  // released and the window slides to the remaining pages.
  session.Pump(10000);
  EXPECT_EQ(session.stats().timed_out, 4u);
  EXPECT_EQ(session.stats().issued, 6u);  // remaining two pages issued
  session.Finish();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

// ---------------------------------------------------------------------------
// Circuit breaker.
// ---------------------------------------------------------------------------

TEST(HealthPolicyTest, JudgesFaultAndWasteFractions) {
  PrefetchHealthPolicy policy;
  PrefetchSessionStats healthy;
  healthy.issued = 100;
  healthy.consumed = 80;
  EXPECT_TRUE(IsHealthyPrefetch(healthy, policy));

  PrefetchSessionStats faulty = healthy;
  faulty.dropped_faulty = 60;
  EXPECT_FALSE(IsHealthyPrefetch(faulty, policy));

  PrefetchSessionStats wasted;
  wasted.issued = 100;
  wasted.consumed = 2;
  EXPECT_FALSE(IsHealthyPrefetch(wasted, policy));

  PrefetchSessionStats tiny;  // below min_attempted: never judged
  tiny.issued = 3;
  EXPECT_TRUE(IsHealthyPrefetch(tiny, policy));
}

TEST(CircuitBreakerTest, TripsUnderSustainedFaultsAndRecovers) {
  CircuitBreakerOptions options;
  options.window = 4;
  options.min_samples = 4;
  options.failure_threshold = 0.5;
  options.cooldown_queries = 3;
  options.required_probe_successes = 2;
  CircuitBreaker breaker(options);

  // Healthy traffic keeps it closed.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(breaker.AllowPrefetch());
    breaker.Record(true);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  // Sustained faults trip it open: with window 4 and threshold 0.5, the
  // second unhealthy verdict crosses the line.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(breaker.AllowPrefetch());
    breaker.Record(false);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().trips, 1u);

  // Open: prefetching denied for the cooldown.
  EXPECT_FALSE(breaker.AllowPrefetch());
  EXPECT_FALSE(breaker.AllowPrefetch());
  EXPECT_FALSE(breaker.AllowPrefetch());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);

  // Half-open: probes allowed; healthy probes close it again.
  EXPECT_TRUE(breaker.AllowPrefetch());
  breaker.Record(true);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowPrefetch());
  breaker.Record(true);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().recoveries, 1u);
  EXPECT_EQ(breaker.stats().probes, 2u);
}

// ---------------------------------------------------------------------------
// SimulatedDisk: page images, checksums, corruption classes.
// ---------------------------------------------------------------------------

TEST(SimulatedDiskTest, MaterializedImagesVerifyAndAreDeterministic) {
  SimulatedDisk disk;
  const PageId page{3, 17};
  const SimulatedDisk::PageImage a = disk.Materialize(page, 1);
  const SimulatedDisk::PageImage b = disk.Materialize(page, 1);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(disk.VerifyImage(a, page, 1).ok());
  // A different version or a different page yields a different image that
  // fails verification against the original identity/version.
  EXPECT_NE(disk.Materialize(page, 2), a);
  EXPECT_FALSE(disk.VerifyImage(a, page, 2).ok());
  EXPECT_FALSE(disk.VerifyImage(a, PageId{3, 18}, 1).ok());
}

TEST(SimulatedDiskTest, CleanReadsVerifyOk) {
  SimulatedDisk disk;
  for (uint32_t p = 0; p < 50; ++p) {
    ASSERT_TRUE(disk.ReadPage(PageId{1, p}).ok());
  }
  EXPECT_EQ(disk.stats().reads, 50u);
  EXPECT_EQ(disk.stats().verified_ok, 50u);
  EXPECT_EQ(disk.stats().checksum_failures, 0u);
}

TEST(SimulatedDiskTest, WriteBumpsVersionAndOldImageIsStale) {
  SimulatedDisk disk;
  const PageId page{2, 9};
  EXPECT_EQ(disk.CurrentVersion(page), 1u);
  const SimulatedDisk::PageImage v1 = disk.Materialize(page, 1);
  disk.WritePage(page);
  EXPECT_EQ(disk.CurrentVersion(page), 2u);
  // The old image is internally consistent (CRC and identity pass) but no
  // longer the current version — exactly the stale-read failure mode.
  const Status stale = disk.VerifyImage(v1, page, 2);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kDataCorruption);
}

TEST(SimulatedDiskTest, BitFlipsAreCaughtByChecksum) {
  FaultConfig config;
  config.bit_flip_prob = 1.0;
  config.seed = 5;
  FaultInjector injector(config);
  SimulatedDisk disk(0x5eedd15c, &injector);
  for (uint32_t p = 0; p < 20; ++p) {
    const Result<SimulatedDisk::PageImage> r = disk.ReadPage(PageId{1, p});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDataCorruption);
  }
  EXPECT_EQ(disk.stats().checksum_failures, 20u);
  EXPECT_EQ(injector.stats().injected_bit_flips, 20u);
}

TEST(SimulatedDiskTest, TornWritesAreCaughtByChecksum) {
  FaultConfig config;
  config.torn_write_prob = 1.0;
  FaultInjector injector(config);
  SimulatedDisk disk(0x5eedd15c, &injector);
  const Result<SimulatedDisk::PageImage> r = disk.ReadPage(PageId{4, 2});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataCorruption);
  EXPECT_EQ(disk.stats().checksum_failures, 1u);
  EXPECT_EQ(injector.stats().injected_torn_writes, 1u);
}

TEST(SimulatedDiskTest, StaleReadsAreCaughtByVersionCheck) {
  FaultConfig config;
  config.stale_read_prob = 1.0;
  FaultInjector injector(config);
  SimulatedDisk disk(0x5eedd15c, &injector);
  const PageId page{6, 1};
  disk.WritePage(page);  // current version 2; a stale read returns v1
  const Result<SimulatedDisk::PageImage> r = disk.ReadPage(page);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataCorruption);
  EXPECT_EQ(disk.stats().stale_reads_caught, 1u);
  EXPECT_EQ(disk.stats().checksum_failures, 0u);
}

TEST(SimulatedDiskTest, CorruptionStreamDoesNotPerturbErrorStream) {
  // Enabling corruption must not change the transient-error/spike sequence:
  // the injector draws corruption from its own RNG stream.
  FaultConfig base;
  base.transient_error_prob = 0.05;
  base.tail_latency_prob = 0.02;
  base.seed = 99;
  FaultConfig with_corruption = base;
  with_corruption.bit_flip_prob = 0.5;
  FaultInjector a(base), b(with_corruption);
  for (int i = 0; i < 2000; ++i) {
    const DiskReadFault fa = a.OnDiskRead(900);
    const DiskReadFault fb = b.OnDiskRead(900);
    ASSERT_EQ(fa.transient_error, fb.transient_error) << i;
    ASSERT_EQ(fa.extra_latency_us, fb.extra_latency_us) << i;
    b.OnPageImage();  // interleave corruption draws
  }
}

// ---------------------------------------------------------------------------
// Corruption on the read paths: foreground retries, speculative drops.
// ---------------------------------------------------------------------------

SimOptions CorruptSim(double bit_flip_prob, uint64_t seed = 1234) {
  SimOptions options;
  options.buffer_pages = 512;
  options.os_cache_pages = 2048;
  options.faults.bit_flip_prob = bit_flip_prob;
  options.faults.seed = seed;
  return options;
}

TEST(CorruptReadTest, ForegroundReadRecoversViaRetry) {
  // 20% of device reads come back corrupt; 0.2^8 makes exhausting all 8
  // attempts effectively impossible, so every fetch eventually verifies.
  const QueryTrace trace = MakeMixedTrace(40, 200);
  SimEnvironment env(CorruptSim(0.20, 42));
  const QueryRunMetrics r = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.completed_accesses, trace.accesses.size());
  EXPECT_GT(r.pool_stats.corrupt_retries, 0u);
  EXPECT_GT(env.os_cache().corrupt_reads(), 0u);
  EXPECT_EQ(env.pool().pinned_frames(), 0u);
  const SimulatedDisk* disk = env.os_cache().channel_disk(0);
  ASSERT_NE(disk, nullptr);
  EXPECT_GT(disk->stats().checksum_failures, 0u);
  // Every page the query received was verified.
  EXPECT_GT(disk->stats().verified_ok, 0u);
}

TEST(CorruptReadTest, PrefetchDropsCorruptPagesWithoutPinning) {
  const QueryTrace trace = MakeMixedTrace(10, 150);
  SimEnvironment env(CorruptSim(0.30, 77));
  PrefetcherOptions options;
  options.start_delay_us = 0;
  const QueryRunMetrics r =
      ReplayQuery(trace, OraclePages(trace), options, &env);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.completed_accesses, trace.accesses.size());
  // Corrupt speculative reads are dropped and classified separately from
  // transient-fault drops; no corrupt page ever stays pinned.
  EXPECT_GT(r.prefetch_stats.dropped_corrupt, 0u);
  EXPECT_EQ(r.prefetch_stats.dropped_faulty, 0u);
  EXPECT_EQ(env.pool().pinned_frames(), 0u);
}

TEST(CorruptReadTest, LowRateCorruptionIsTransparentToQueries) {
  // The ISSUE acceptance rate: 1e-4 bit flips. Queries must complete with
  // full accounting and the run must stay deterministic per seed.
  const QueryTrace trace = MakeMixedTrace(60, 240);
  auto run = [&](uint64_t seed) {
    SimEnvironment env(CorruptSim(1e-4, seed));
    PrefetcherOptions options;
    options.start_delay_us = 0;
    return ReplayQuery(trace, OraclePages(trace), options, &env);
  };
  const QueryRunMetrics a = run(9), b = run(9);
  ASSERT_TRUE(a.status.ok());
  EXPECT_EQ(a.completed_accesses, trace.accesses.size());
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.pool_stats.corrupt_retries, b.pool_stats.corrupt_retries);
}

TEST(CorruptReadTest, ReadaheadVerifiesBeforeInsert) {
  LatencyModel latency;
  FaultConfig config;
  config.bit_flip_prob = 0.5;
  config.seed = 13;
  FaultInjector injector(config);
  SimulatedDisk disk(0x5eedd15c, &injector);
  OsPageCache cache(
      OsPageCache::Options{.capacity_pages = 256, .readahead_pages = 8},
      latency);
  cache.set_channel_disk(0, &disk);
  // Sequential scan: the readahead window pulls pages ahead of the cursor
  // and must drop (not cache) the ones that fail verification.
  for (uint32_t p = 0; p < 64; ++p) {
    cache.Read(PageId{1, p});
  }
  EXPECT_GT(cache.readahead_dropped_corrupt(), 0u);
}

// ---------------------------------------------------------------------------
// Model-file integrity: header verification, quarantine, retrain.
// ---------------------------------------------------------------------------

// Writes raw bytes to `path`.
void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

TEST(ModelIntegrityTest, GarbageFileIsQuarantined) {
  const std::string path = ::testing::TempDir() + "/garbage.pywm";
  WriteFile(path, "this is not a model file at all");
  const uint64_t quarantined_before = ModelIntegritySnapshot().quarantined;
  const Result<WorkloadModel> r = WorkloadModel::Load(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataCorruption);
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(FileExists(path + ".corrupt"));
  EXPECT_EQ(ModelIntegritySnapshot().quarantined, quarantined_before + 1);
  std::remove((path + ".corrupt").c_str());
}

TEST(ModelIntegrityTest, VersionMismatchRetrainsWithoutQuarantine) {
  // Magic is right, version is old: a stale cache, not corruption. The file
  // must be left in place for the retrain path to overwrite.
  const std::string path = ::testing::TempDir() + "/oldversion.pywm";
  std::string bytes;
  const uint32_t magic = 0x5059574d;  // "PYWM"
  const uint32_t old_version = 2;
  bytes.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  bytes.append(reinterpret_cast<const char*>(&old_version),
               sizeof(old_version));
  WriteFile(path, bytes);
  const Result<WorkloadModel> r = WorkloadModel::Load(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".corrupt"));
  std::remove(path.c_str());
}

TEST(ModelIntegrityTest, TruncatedFileIsQuarantined) {
  // Valid magic and version but a payload length the file cannot back: the
  // torn-write / truncation case.
  const std::string path = ::testing::TempDir() + "/truncated.pywm";
  std::string bytes;
  const uint32_t magic = 0x5059574d;
  const uint32_t version = 3;
  const uint64_t claimed_size = 4096;  // file ends long before this
  const uint32_t crc = 0;
  bytes.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.append(reinterpret_cast<const char*>(&claimed_size),
               sizeof(claimed_size));
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  bytes.append("short payload");
  WriteFile(path, bytes);
  const uint64_t corrupt_before = ModelIntegritySnapshot().corrupt_files;
  const Result<WorkloadModel> r = WorkloadModel::Load(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataCorruption);
  EXPECT_TRUE(FileExists(path + ".corrupt"));
  EXPECT_EQ(ModelIntegritySnapshot().corrupt_files, corrupt_before + 1);
  std::remove((path + ".corrupt").c_str());
}

namespace {

// Flips one bit in the middle of `path` (the CRC will catch it on load).
void FlipMiddleByte(const std::string& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  ASSERT_GT(size, 64);
  const std::streamoff target = size / 2;
  f.seekg(target);
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x10;
  f.seekp(target);
  f.write(&byte, 1);
}

}  // namespace

TEST(ModelIntegrityTest, BitFlippedCacheIsQuarantinedAndRetrained) {
  // Full self-healing path with no last-known-good snapshot available:
  // train + save, flip one payload byte, delete the .lkg copy, then ask the
  // cache layer again — it must quarantine the corrupt file, retrain
  // transparently, and rewrite a loadable cache.
  auto db = BuildDsbDatabase(DsbConfig{5, 42});
  WorkloadOptions wopts;
  wopts.num_queries = 30;
  wopts.test_fraction = 0.1;
  Result<Workload> wl = GenerateWorkload(*db, TemplateId::kDsb91, wopts);
  ASSERT_TRUE(wl.ok());
  PredictorOptions popts;
  popts.epochs = 1;
  popts.num_threads = 1;
  const std::string path = ::testing::TempDir() + "/selfheal.pywm";
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
  std::remove((path + ".lkg").c_str());

  Result<WorkloadModel> first =
      GetOrTrainWorkloadModel(path, *db, *wl, popts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(FileExists(path));
  // A fresh save also leaves a last-known-good copy next to the cache.
  EXPECT_TRUE(FileExists(path + ".lkg"));

  FlipMiddleByte(path);
  // Remove the snapshot so the only way out is a retrain.
  std::remove((path + ".lkg").c_str());

  const ModelIntegrityCounters before = ModelIntegritySnapshot();
  Result<WorkloadModel> healed =
      GetOrTrainWorkloadModel(path, *db, *wl, popts);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  const ModelIntegrityCounters after = ModelIntegritySnapshot();
  EXPECT_EQ(after.corrupt_files, before.corrupt_files + 1);
  EXPECT_EQ(after.quarantined, before.quarantined + 1);
  EXPECT_EQ(after.retrains_after_corruption,
            before.retrains_after_corruption + 1);
  EXPECT_EQ(after.lkg_restores, before.lkg_restores);
  EXPECT_TRUE(FileExists(path + ".corrupt"));
  // The retrain rewrote a valid cache; a third call loads it cleanly.
  EXPECT_TRUE(FileExists(path));
  Result<WorkloadModel> reloaded = WorkloadModel::Load(path);
  EXPECT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(after.atomic_saves, before.atomic_saves + 1);
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
  std::remove((path + ".lkg").c_str());
}

TEST(ModelIntegrityTest, BitFlippedCacheIsRestoredFromLastKnownGood) {
  // Cheaper self-healing path: when the .lkg snapshot survives, a corrupt
  // primary cache is quarantined and healed from the snapshot WITHOUT a
  // retrain (and without a fresh atomic save — the copy is a raw byte
  // restore, not a Save()).
  auto db = BuildDsbDatabase(DsbConfig{5, 42});
  WorkloadOptions wopts;
  wopts.num_queries = 30;
  wopts.test_fraction = 0.1;
  Result<Workload> wl = GenerateWorkload(*db, TemplateId::kDsb91, wopts);
  ASSERT_TRUE(wl.ok());
  PredictorOptions popts;
  popts.epochs = 1;
  popts.num_threads = 1;
  const std::string path = ::testing::TempDir() + "/lkgheal.pywm";
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
  std::remove((path + ".lkg").c_str());

  Result<WorkloadModel> first =
      GetOrTrainWorkloadModel(path, *db, *wl, popts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(FileExists(path + ".lkg"));
  const std::unordered_set<PageId> want =
      first->Predict(wl->queries[wl->test_indices[0]].tokens);

  FlipMiddleByte(path);

  const ModelIntegrityCounters before = ModelIntegritySnapshot();
  Result<WorkloadModel> healed =
      GetOrTrainWorkloadModel(path, *db, *wl, popts);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  const ModelIntegrityCounters after = ModelIntegritySnapshot();
  EXPECT_EQ(after.quarantined, before.quarantined + 1);
  EXPECT_EQ(after.lkg_restores, before.lkg_restores + 1);
  EXPECT_EQ(after.retrains_after_corruption,
            before.retrains_after_corruption);
  EXPECT_EQ(after.atomic_saves, before.atomic_saves);
  // The restored model is the saved one: identical predictions.
  EXPECT_EQ(healed->Predict(wl->queries[wl->test_indices[0]].tokens), want);
  // The primary cache is valid again; a third call loads it cleanly.
  Result<WorkloadModel> reloaded = WorkloadModel::Load(path);
  EXPECT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
  std::remove((path + ".lkg").c_str());
}

TEST(ModelIntegrityTest, MissingPrimaryIsServedFromLastKnownGood) {
  // A primary that is gone (not corrupt) is healed from the .lkg snapshot
  // the same way: the snapshot's weights serve, nothing retrains or Saves,
  // and the snapshot's bytes are republished as the primary.
  auto db = BuildDsbDatabase(DsbConfig{5, 42});
  WorkloadOptions wopts;
  wopts.num_queries = 30;
  wopts.test_fraction = 0.1;
  Result<Workload> wl = GenerateWorkload(*db, TemplateId::kDsb91, wopts);
  ASSERT_TRUE(wl.ok());
  PredictorOptions popts;
  popts.epochs = 1;
  popts.num_threads = 1;
  const std::string path = ::testing::TempDir() + "/lkgonly.pywm";
  std::remove(path.c_str());
  std::remove((path + ".lkg").c_str());

  Result<WorkloadModel> first =
      GetOrTrainWorkloadModel(path, *db, *wl, popts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::vector<std::string>& probe =
      wl->queries[wl->test_indices[0]].tokens;
  const std::unordered_set<PageId> want = first->Predict(probe);
  std::remove(path.c_str());

  const ModelIntegrityCounters before = ModelIntegritySnapshot();
  Result<WorkloadModel> served =
      GetOrTrainWorkloadModel(path, *db, *wl, popts);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const ModelIntegrityCounters after = ModelIntegritySnapshot();
  EXPECT_EQ(after.atomic_saves, before.atomic_saves);
  EXPECT_EQ(after.lkg_restores, before.lkg_restores + 1);
  EXPECT_EQ(served->Predict(probe), want);
  EXPECT_TRUE(FileIdentityOf(path) == FileIdentityOf(path + ".lkg"));
  std::remove(path.c_str());
  std::remove((path + ".lkg").c_str());
}

TEST(ModelIntegrityTest, StaleSidecarIsRewrittenFromPrimary) {
  // A valid sidecar that is not the primary's copy (a crash between the
  // primary's publish and the sidecar write leaves one) is rewritten from
  // the primary that serves.
  auto db = BuildDsbDatabase(DsbConfig{5, 42});
  WorkloadOptions wopts;
  wopts.num_queries = 30;
  wopts.test_fraction = 0.1;
  Result<Workload> wl = GenerateWorkload(*db, TemplateId::kDsb91, wopts);
  ASSERT_TRUE(wl.ok());
  PredictorOptions popts;
  popts.epochs = 1;
  popts.num_threads = 1;
  const std::string path = ::testing::TempDir() + "/stalelkg.pywm";
  std::remove(path.c_str());
  std::remove((path + ".lkg").c_str());

  Result<WorkloadModel> first =
      GetOrTrainWorkloadModel(path, *db, *wl, popts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  WorkloadModel older = first->Clone();
  older.set_threshold(popts.threshold + 0.2f);
  ASSERT_TRUE(older.Save(path + ".lkg").ok());
  ASSERT_FALSE(FileIdentityOf(path) == FileIdentityOf(path + ".lkg"));

  const ModelIntegrityCounters before = ModelIntegritySnapshot();
  ASSERT_TRUE(GetOrTrainWorkloadModel(path, *db, *wl, popts).ok());
  const ModelIntegrityCounters after = ModelIntegritySnapshot();
  EXPECT_EQ(after.lkg_snapshots, before.lkg_snapshots + 1);
  EXPECT_EQ(after.lkg_restores, before.lkg_restores);
  EXPECT_TRUE(FileIdentityOf(path) == FileIdentityOf(path + ".lkg"));
  std::remove(path.c_str());
  std::remove((path + ".lkg").c_str());
}

// ---------------------------------------------------------------------------
// Prediction-health watchdog.
// ---------------------------------------------------------------------------

WatchdogOptions SmallWatchdog() {
  WatchdogOptions o;
  o.window = 4;
  o.min_samples = 4;
  o.min_useful_ratio = 0.25;
  o.min_attempted = 8;
  o.probation_queries = 3;
  o.required_probe_successes = 2;
  return o;
}

TEST(WatchdogTest, HealthyModelStaysHealthy) {
  PredictionWatchdog dog(SmallWatchdog());
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(dog.AllowPrediction());
    dog.Record(100, 80);
  }
  EXPECT_EQ(dog.health(), ModelHealth::kHealthy);
  EXPECT_EQ(dog.stats().demotions, 0u);
  EXPECT_NEAR(dog.WindowRatio(), 0.8, 1e-9);
}

TEST(WatchdogTest, TinySessionsAreNeverJudged) {
  PredictionWatchdog dog(SmallWatchdog());
  for (int i = 0; i < 50; ++i) {
    dog.Record(4, 0);  // below min_attempted: useless but tiny
  }
  EXPECT_EQ(dog.health(), ModelHealth::kHealthy);
  EXPECT_EQ(dog.stats().sessions_judged, 0u);
}

TEST(WatchdogTest, SustainedUselessnessDemotes) {
  PredictionWatchdog dog(SmallWatchdog());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(dog.AllowPrediction());
    dog.Record(100, 5);  // 5% useful, floor is 25%
  }
  EXPECT_EQ(dog.health(), ModelHealth::kDegraded);
  EXPECT_EQ(dog.stats().demotions, 1u);
  // Degraded: predictions denied for the probation period.
  EXPECT_FALSE(dog.AllowPrediction());
  EXPECT_EQ(dog.stats().degraded_queries, 1u);
}

TEST(WatchdogTest, ProbationProbesAndReinstates) {
  PredictionWatchdog dog(SmallWatchdog());
  for (int i = 0; i < 4; ++i) dog.Record(100, 0);
  ASSERT_EQ(dog.health(), ModelHealth::kDegraded);
  // Burn down probation (3 queries run on the baseline).
  EXPECT_FALSE(dog.AllowPrediction());
  EXPECT_FALSE(dog.AllowPrediction());
  EXPECT_FALSE(dog.AllowPrediction());
  EXPECT_EQ(dog.health(), ModelHealth::kProbation);
  // Two useful probes reinstate.
  EXPECT_TRUE(dog.AllowPrediction());
  dog.Record(100, 60);
  EXPECT_EQ(dog.health(), ModelHealth::kProbation);
  EXPECT_TRUE(dog.AllowPrediction());
  dog.Record(100, 60);
  EXPECT_EQ(dog.health(), ModelHealth::kHealthy);
  EXPECT_EQ(dog.stats().reinstatements, 1u);
  EXPECT_EQ(dog.stats().probes, 2u);
}

TEST(WatchdogTest, UselessProbeDemotesAgain) {
  PredictionWatchdog dog(SmallWatchdog());
  for (int i = 0; i < 4; ++i) dog.Record(100, 0);
  for (int i = 0; i < 3; ++i) dog.AllowPrediction();
  ASSERT_EQ(dog.health(), ModelHealth::kProbation);
  EXPECT_TRUE(dog.AllowPrediction());
  dog.Record(100, 0);  // probe still useless
  EXPECT_EQ(dog.health(), ModelHealth::kDegraded);
  EXPECT_EQ(dog.stats().demotions, 2u);
}

TEST(WatchdogTest, ResetRestoresHealthy) {
  PredictionWatchdog dog(SmallWatchdog());
  for (int i = 0; i < 4; ++i) dog.Record(100, 0);
  ASSERT_EQ(dog.health(), ModelHealth::kDegraded);
  dog.Reset();
  EXPECT_EQ(dog.health(), ModelHealth::kHealthy);
  EXPECT_TRUE(dog.AllowPrediction());
  EXPECT_EQ(dog.stats().demotions, 0u);
}

TEST(CircuitBreakerTest, UnhealthyProbeReopens) {
  CircuitBreakerOptions options;
  options.window = 2;
  options.min_samples = 2;
  options.cooldown_queries = 1;
  CircuitBreaker breaker(options);
  breaker.Record(false);
  breaker.Record(false);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowPrefetch());  // cooldown consumed
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowPrefetch());
  breaker.Record(false);  // probe fails
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().trips, 2u);
}

}  // namespace
}  // namespace pythia
