#include <gtest/gtest.h>

#include <cstring>

#include "core/baselines.h"
#include "core/replay.h"

namespace pythia {
namespace {

// A trace with `seq` sequential pages of object 1 followed by `random_pages`
// scattered accesses to object 2, mimicking fact-scan + dimension probes.
QueryTrace MakeMixedTrace(uint32_t seq, uint32_t random_pages) {
  QueryTrace trace;
  for (uint32_t p = 0; p < seq; ++p) {
    trace.accesses.push_back(PageAccess{PageId{1, p}, true, 5});
  }
  for (uint32_t i = 0; i < random_pages; ++i) {
    // Stride to avoid accidental sequential runs.
    trace.accesses.push_back(
        PageAccess{PageId{2, (i * 37) % 1000}, false, 5});
  }
  return trace;
}

SimOptions SmallSim() {
  SimOptions options;
  options.buffer_pages = 512;
  options.os_cache_pages = 2048;
  return options;
}

TEST(ReplayTest, ElapsedAccountsCpuAndIo) {
  SimEnvironment env(SmallSim());
  QueryTrace trace;
  trace.accesses.push_back(PageAccess{PageId{1, 0}, false, 10});
  const QueryRunMetrics r = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  const LatencyModel& lat = env.options().latency;
  EXPECT_EQ(r.elapsed_us, 10 * lat.cpu_per_tuple_us +
                              lat.disk_random_read_us);
}

TEST(ReplayTest, RepeatAccessIsBufferHit) {
  SimEnvironment env(SmallSim());
  QueryTrace trace;
  trace.accesses.push_back(PageAccess{PageId{1, 0}, false, 0});
  trace.accesses.push_back(PageAccess{PageId{1, 0}, false, 0});
  const QueryRunMetrics r = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  EXPECT_EQ(r.pool_stats.buffer_hits, 1u);
  EXPECT_EQ(r.pool_stats.disk_random_reads, 1u);
}

TEST(ReplayTest, SequentialScanUsesReadahead) {
  SimEnvironment env(SmallSim());
  const QueryTrace trace = MakeMixedTrace(100, 0);
  const QueryRunMetrics r = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  // OS readahead turns most of the scan into cache copies.
  EXPECT_GT(r.pool_stats.os_cache_copies, 50u);
  EXPECT_LT(r.pool_stats.disk_random_reads, 5u);
}

TEST(ReplayTest, PrefetchingNonSeqPagesSpeedsUpQuery) {
  const QueryTrace trace = MakeMixedTrace(50, 200);

  SimEnvironment env(SmallSim());
  const QueryRunMetrics dflt =
      ReplayQuery(trace, {}, PrefetcherOptions{}, &env);

  env.ColdRestart();
  PrefetcherOptions options;
  options.start_delay_us = 0;
  const std::vector<PageId> oracle = OraclePages(trace);
  const QueryRunMetrics prefetched = ReplayQuery(trace, oracle, options, &env);

  EXPECT_LT(prefetched.elapsed_us, dflt.elapsed_us);
  // A substantial speedup, not a rounding artifact.
  EXPECT_GT(static_cast<double>(dflt.elapsed_us) / prefetched.elapsed_us,
            1.5);
  // Clean hits plus wait-hits: both were served out of prefetched frames
  // (wait-hits paid part of the device time and are tracked separately).
  EXPECT_GT(prefetched.pool_stats.prefetch_hits +
                prefetched.pool_stats.prefetch_wait_hits,
            100u);
}

TEST(ReplayTest, ColdRestartResetsState) {
  SimEnvironment env(SmallSim());
  const QueryTrace trace = MakeMixedTrace(20, 50);
  const QueryRunMetrics first =
      ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  // Warm rerun is much faster; after ColdRestart timing matches cold run.
  const QueryRunMetrics warm =
      ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  EXPECT_LT(warm.elapsed_us, first.elapsed_us);
  env.ColdRestart();
  const QueryRunMetrics cold =
      ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  EXPECT_EQ(cold.elapsed_us, first.elapsed_us);
}

TEST(ReplayTest, WrongPrefetchDoesNotSlowQueryMuch) {
  // Prefetching useless pages must cost (almost) nothing for the query
  // itself — the paper's "practically no regression" claim.
  const QueryTrace trace = MakeMixedTrace(50, 100);
  SimEnvironment env(SmallSim());
  const QueryRunMetrics dflt =
      ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  env.ColdRestart();
  std::vector<PageId> wrong;
  for (uint32_t p = 0; p < 100; ++p) wrong.push_back(PageId{9, p});
  PrefetcherOptions options;
  options.start_delay_us = 0;
  const QueryRunMetrics r = ReplayQuery(trace, wrong, options, &env);
  EXPECT_LT(r.elapsed_us, dflt.elapsed_us * 1.10);
}

// Stats structs are plain runs of 64-bit counters, so byte equality is
// field-for-field equality.
template <typename Stats>
bool SameCounters(const Stats& a, const Stats& b) {
  static_assert(sizeof(Stats) % sizeof(uint64_t) == 0);
  return std::memcmp(&a, &b, sizeof(Stats)) == 0;
}

TEST(ReplayTest, ConcurrentSingleQueryMatchesSolo) {
  // The three solo entry points (ReplayQuery, a one-query ReplayConcurrent
  // and a one-thread ReplayParallelFleet) must agree bit for bit on a
  // faulty, striped, hedged environment with an oracle prefetch plan.
  //
  // 1,400 scattered reads over 28 objects, so every storage channel
  // carries traffic and the small pool and cache miss on most accesses.
  QueryTrace trace;
  for (uint32_t i = 0; i < 1400; ++i) {
    trace.accesses.push_back(PageAccess{PageId{1 + i % 28, 3 * (i / 28)},
                                        false, 1});
  }
  SimOptions sim = SmallSim();
  sim.buffer_pages = 128;
  sim.os_cache_pages = 128;
  sim.os_readahead_pages = 0;
  sim.storage_channels = 4;
  sim.faults.transient_error_prob = 0.01;
  sim.faults.tail_latency_prob = 0.01;
  sim.faults.aio_stall_prob = 0.01;
  sim.faults.bit_flip_prob = 0.005;
  sim.faults.brownout_latency_mult = 8.0;
  sim.faults.brownout_start_read = 24;
  sim.faults.brownout_duration_reads = 600;
  sim.faults.seed = 4242;
  sim.brownout_channel = 1;
  sim.channel_health.enabled = true;
  sim.channel_health.window_samples = 16;
  sim.channel_health.hedging_enabled = true;
  sim.channel_breakers = true;
  PrefetcherOptions prefetch;
  prefetch.start_delay_us = 0;
  const std::vector<PageId> plan = OraclePages(trace);

  // All three return QueryRunMetrics. A fleet thread's pool_stats stays
  // zero (its batch-of-one delta would count the other threads), so each
  // fresh environment's pool totals are compared too.
  QueryRunMetrics solo, batch, fleet;
  BufferPoolStats solo_pool, batch_pool, fleet_pool;
  ConcurrentQuery q;
  q.trace = &trace;
  q.prefetch_pages = plan;
  q.prefetch_options = prefetch;
  {
    SimEnvironment env(sim);
    solo = ReplayQuery(trace, plan, prefetch, &env);
    solo_pool = env.pool().stats();
    EXPECT_EQ(solo.pool_stats, solo_pool);
  }
  {
    SimEnvironment env(sim);
    const ConcurrentResult r = ReplayConcurrent({q}, {}, &env);
    EXPECT_EQ(r.makespan_us, r.queries[0].elapsed_us);
    batch = r.queries[0];
    batch_pool = env.pool().stats();
  }
  {
    SimEnvironment env(sim);
    const ParallelReplayResult r = ReplayParallelFleet({q}, &env);
    ASSERT_EQ(r.threads.size(), 1u);
    fleet = r.threads[0];
    fleet_pool = env.pool().stats();
    EXPECT_EQ(fleet.pool_stats, BufferPoolStats{});
    EXPECT_EQ(r.pool_stats, fleet_pool);
  }

  ASSERT_TRUE(solo.status.ok()) << solo.status.ToString();
  EXPECT_EQ(solo.completed_accesses, trace.accesses.size());
  // The environment really exercised the fault and gray-failure paths.
  EXPECT_GT(solo_pool.read_retries, 0u);
  EXPECT_GT(solo_pool.hedged_reads, 0u);
  EXPECT_GT(solo.prefetch_stats.issued, 0u);
  EXPECT_EQ(batch.pool_stats, solo.pool_stats);
  for (const QueryRunMetrics* other : {&batch, &fleet}) {
    EXPECT_EQ(other->status.code(), solo.status.code());
    EXPECT_EQ(other->elapsed_us, solo.elapsed_us);
    EXPECT_EQ(other->completed_accesses, solo.completed_accesses);
    EXPECT_EQ(other->rung, solo.rung);
    EXPECT_EQ(other->degraded_by_governor, solo.degraded_by_governor);
    EXPECT_EQ(other->deadline_exceeded, solo.deadline_exceeded);
    EXPECT_EQ(other->queue_wait_us, solo.queue_wait_us);
    EXPECT_TRUE(SameCounters(other->prefetch_stats, solo.prefetch_stats));
  }
  for (const BufferPoolStats* other : {&batch_pool, &fleet_pool}) {
    EXPECT_EQ(*other, solo_pool);
  }
}

// The storage stack is wired one way at every width: each channel owns one
// fault injector (channel c seeded faults.seed ^ (0x9e3779b97f4a7c15 * c))
// and one disk that draws corruption from that injector. AIO stalls come
// from channel 0's injector on one channel and from a dedicated injector on
// more.
TEST(ReplayTest, EveryStorageChannelHasItsOwnInjectorAndDisk) {
  // 600 scattered reads over 12 objects, with an oracle plan so the AIO
  // scheduler carries prefetch traffic too.
  QueryTrace trace;
  for (uint32_t i = 0; i < 600; ++i) {
    trace.accesses.push_back(PageAccess{PageId{1 + i % 12, 5 * (i / 12)},
                                        false, 1});
  }
  PrefetcherOptions prefetch;
  prefetch.start_delay_us = 0;
  for (const size_t channels : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(channels);
    SimOptions sim = SmallSim();
    sim.buffer_pages = 64;
    sim.os_cache_pages = 64;
    sim.os_readahead_pages = 0;
    sim.storage_channels = channels;
    sim.faults.transient_error_prob = 0.01;
    sim.faults.aio_stall_prob = 0.2;
    sim.faults.bit_flip_prob = 0.05;
    sim.faults.seed = 77;
    sim.verify_page_checksums = true;
    SimEnvironment env(sim);
    OsPageCache& cache = env.os_cache();
    ASSERT_EQ(cache.num_channels(), channels);

    const QueryRunMetrics r =
        ReplayQuery(trace, OraclePages(trace), prefetch, &env);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();

    uint64_t channel_stalls = 0;
    for (size_t c = 0; c < channels; ++c) {
      SCOPED_TRACE(c);
      const FaultInjector* injector = cache.channel_fault_injector(c);
      const SimulatedDisk* disk = cache.channel_disk(c);
      ASSERT_NE(injector, nullptr);
      ASSERT_NE(disk, nullptr);
      EXPECT_EQ(injector->config().seed,
                sim.faults.seed ^ (0x9e3779b97f4a7c15ULL * c));
      for (size_t other = 0; other < c; ++other) {
        EXPECT_NE(injector, cache.channel_fault_injector(other));
        EXPECT_NE(disk, cache.channel_disk(other));
      }
      // A disk's bit flips come from its own channel's injector: every flip
      // the injector drew fails that disk's checksum.
      EXPECT_GT(disk->stats().reads, 0u);
      EXPECT_EQ(disk->stats().checksum_failures,
                injector->stats().injected_bit_flips);
      channel_stalls += injector->stats().injected_stalls;
    }
    if (channels == 1) {
      EXPECT_GT(channel_stalls, 0u);
    } else {
      EXPECT_EQ(channel_stalls, 0u);
    }
  }
}

TEST(ReplayTest, ConcurrentQueriesShareBufferPool) {
  // Two identical queries running together: the second benefits from pages
  // the first brought in, so total time < 2x solo cold time.
  const QueryTrace trace = MakeMixedTrace(30, 120);
  SimEnvironment env(SmallSim());
  const QueryRunMetrics solo =
      ReplayQuery(trace, {}, PrefetcherOptions{}, &env);

  env.ColdRestart();
  ConcurrentQuery a, b;
  a.trace = &trace;
  b.trace = &trace;
  const ConcurrentResult conc = ReplayConcurrent({a, b}, {}, &env);
  EXPECT_LT(conc.total_query_us, 2 * solo.elapsed_us);
  // Both arrive at 0 and their clocks tie until their paths part, so these
  // golden times pin the event order's tie rule: among equal clocks the
  // lowest index runs first.
  EXPECT_EQ(conc.start_us[0], 0u);
  EXPECT_EQ(conc.start_us[1], 0u);
  EXPECT_EQ(conc.end_us[0], 56489u);
  EXPECT_EQ(conc.end_us[1], 55977u);
}

TEST(ReplayTest, ArrivalWinsATieWithARunningClock) {
  // One slot and no queue. `b` arrives at the instant `a`'s first access
  // ends, which is `a`'s clock for its second access. The arrival goes
  // first, finds the slot taken and is rejected; stepping `a` first would
  // have finished it and freed the slot.
  SimEnvironment env(SmallSim());
  const LatencyModel& lat = env.options().latency;
  QueryTrace two;
  two.accesses.push_back(PageAccess{PageId{1, 0}, false, 10});
  two.accesses.push_back(PageAccess{PageId{1, 500}, false, 10});
  QueryTrace one;
  one.accesses.push_back(PageAccess{PageId{2, 0}, false, 10});
  ConcurrentQuery a, b;
  a.trace = &two;
  b.trace = &one;
  b.arrival_us = 10 * lat.cpu_per_tuple_us + lat.disk_random_read_us;
  ConcurrentOptions options;
  options.max_active_queries = 1;
  options.admission_queue_limit = 0;
  const ConcurrentResult conc = ReplayConcurrent({a, b}, options, &env);
  EXPECT_TRUE(conc.queries[0].status.ok());
  EXPECT_EQ(conc.queries[1].status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(conc.admission.rejected, 1u);
}

TEST(ReplayTest, ArrivalTimesRespected) {
  const QueryTrace trace = MakeMixedTrace(5, 5);
  SimEnvironment env(SmallSim());
  ConcurrentQuery a, b;
  a.trace = &trace;
  b.trace = &trace;
  b.arrival_us = 1000000;
  const ConcurrentResult conc = ReplayConcurrent({a, b}, {}, &env);
  EXPECT_EQ(conc.start_us[1], 1000000u);
  EXPECT_GT(conc.end_us[1], 1000000u);
  EXPECT_LT(conc.end_us[0], conc.end_us[1]);
}

TEST(ReplayTest, ConcurrentWithPrefetchBeatsWithout) {
  const QueryTrace t1 = MakeMixedTrace(30, 150);
  const QueryTrace t2 = MakeMixedTrace(30, 150);
  SimEnvironment env(SmallSim());

  ConcurrentQuery a, b;
  a.trace = &t1;
  b.trace = &t2;
  const ConcurrentResult plain = ReplayConcurrent({a, b}, {}, &env);

  env.ColdRestart();
  a.prefetch_pages = OraclePages(t1);
  b.prefetch_pages = OraclePages(t2);
  a.prefetch_options.start_delay_us = 0;
  b.prefetch_options.start_delay_us = 0;
  const ConcurrentResult fetched = ReplayConcurrent({a, b}, {}, &env);
  EXPECT_LT(fetched.total_query_us, plain.total_query_us);
}

TEST(ReplayTest, EmptyTraceCompletesImmediately) {
  SimEnvironment env(SmallSim());
  QueryTrace empty;
  const QueryRunMetrics r = ReplayQuery(empty, {}, PrefetcherOptions{}, &env);
  EXPECT_EQ(r.elapsed_us, 0u);
  ConcurrentQuery q;
  q.trace = &empty;
  q.arrival_us = 42;
  const ConcurrentResult conc = ReplayConcurrent({q}, {}, &env);
  EXPECT_EQ(conc.end_us[0], 42u);
}

// ---------------------------------------------------------------------------
// Striped storage channels + multi-threaded fleet replay.
// ---------------------------------------------------------------------------

TEST(StripedReplayTest, TwoChannelSoloReplayMatchesOneChannel) {
  // Pool and cache capacity well above the trace's distinct pages:
  // striping the storage channels must be invisible to a fault-free replay
  // — same elapsed time, same counters, field for field.
  const QueryTrace trace = MakeMixedTrace(40, 120);
  auto run = [&](size_t channels) {
    SimOptions sim = SmallSim();
    sim.storage_channels = channels;
    SimEnvironment env(sim);
    return ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  };
  const QueryRunMetrics one = run(1);
  const QueryRunMetrics two = run(2);
  ASSERT_TRUE(one.status.ok());
  ASSERT_TRUE(two.status.ok());
  EXPECT_EQ(one.elapsed_us, two.elapsed_us);
  EXPECT_EQ(one.pool_stats.fetches, two.pool_stats.fetches);
  EXPECT_EQ(one.pool_stats.buffer_hits, two.pool_stats.buffer_hits);
  EXPECT_EQ(one.pool_stats.os_cache_copies, two.pool_stats.os_cache_copies);
  EXPECT_EQ(one.pool_stats.disk_seq_reads, two.pool_stats.disk_seq_reads);
  EXPECT_EQ(one.pool_stats.disk_random_reads,
            two.pool_stats.disk_random_reads);
}

TEST(StripedReplayTest, StripedEnvironmentWithFaultsIsDeterministic) {
  // Multi-channel environment with per-channel fault streams: the same
  // single-threaded replay twice from the same seeds must be bit-identical
  // (derived per-channel injector seeds are pure functions of the base
  // seed), and ResetFaults must rewind every channel's stream.
  const QueryTrace trace = MakeMixedTrace(30, 90);
  SimOptions sim = SmallSim();
  sim.storage_channels = 4;
  sim.faults.transient_error_prob = 0.05;
  sim.faults.tail_latency_prob = 0.05;
  sim.faults.seed = 1234;
  SimEnvironment env(sim);
  const QueryRunMetrics a = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  env.ColdRestart();
  env.ResetFaults();
  const QueryRunMetrics b = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  ASSERT_TRUE(a.status.ok());
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.pool_stats.read_retries, b.pool_stats.read_retries);
  EXPECT_EQ(a.pool_stats.disk_random_reads, b.pool_stats.disk_random_reads);
}

TEST(StripedReplayTest, ParallelFleetCompletesEveryThread) {
  SimOptions sim = SmallSim();
  sim.storage_channels = 2;
  SimEnvironment env(sim);

  // Give each thread its own object so prefetch plans and scans are
  // distinguishable per thread; thread 0 runs demand-only.
  std::vector<QueryTrace> traces;
  std::vector<ConcurrentQuery> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    QueryTrace trace;
    for (uint32_t i = 0; i < 200; ++i) {
      trace.accesses.push_back(
          PageAccess{PageId{10 + t, (i * 37) % 500}, false, 2});
    }
    traces.push_back(std::move(trace));
  }
  for (uint32_t t = 0; t < 4; ++t) {
    ConcurrentQuery thread;
    thread.trace = &traces[t];
    if (t != 0) {
      for (uint32_t i = 0; i < 200; ++i) {
        thread.prefetch_pages.push_back(PageId{10 + t, (i * 37) % 500});
      }
    }
    threads.push_back(std::move(thread));
  }

  const ParallelReplayResult r = ReplayParallelFleet(threads, &env);
  ASSERT_EQ(r.threads.size(), 4u);
  uint64_t completed = 0;
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_TRUE(r.threads[t].status.ok()) << "thread " << t;
    EXPECT_EQ(r.threads[t].completed_accesses, 200u) << "thread " << t;
    completed += r.threads[t].completed_accesses;
  }
  EXPECT_EQ(r.pool_stats.fetches, completed);
  // Prefetching threads actually prefetched.
  EXPECT_GT(r.pool_stats.prefetches_started, 0u);
  // No pins survive the joined sessions, whatever the interleaving.
  EXPECT_EQ(env.pool().pinned_frames(), 0u);
}

TEST(OraclePagesTest, AccessOrderPreserved) {
  QueryTrace trace;
  trace.accesses.push_back(PageAccess{PageId{2, 9}, false, 0});
  trace.accesses.push_back(PageAccess{PageId{1, 3}, false, 0});
  trace.accesses.push_back(PageAccess{PageId{2, 9}, false, 0});  // dup
  trace.accesses.push_back(PageAccess{PageId{1, 0}, true, 0});   // seq
  const std::vector<PageId> pages = OraclePages(trace);
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[0], (PageId{2, 9}));
  EXPECT_EQ(pages[1], (PageId{1, 3}));
}

}  // namespace
}  // namespace pythia
