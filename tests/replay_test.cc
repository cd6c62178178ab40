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
  const ReplayResult r = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  const LatencyModel& lat = env.options().latency;
  EXPECT_EQ(r.elapsed_us, 10 * lat.cpu_per_tuple_us +
                              lat.disk_random_read_us);
}

TEST(ReplayTest, RepeatAccessIsBufferHit) {
  SimEnvironment env(SmallSim());
  QueryTrace trace;
  trace.accesses.push_back(PageAccess{PageId{1, 0}, false, 0});
  trace.accesses.push_back(PageAccess{PageId{1, 0}, false, 0});
  const ReplayResult r = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  EXPECT_EQ(r.pool_stats.buffer_hits, 1u);
  EXPECT_EQ(r.pool_stats.disk_random_reads, 1u);
}

TEST(ReplayTest, SequentialScanUsesReadahead) {
  SimEnvironment env(SmallSim());
  const QueryTrace trace = MakeMixedTrace(100, 0);
  const ReplayResult r = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  // OS readahead turns most of the scan into cache copies.
  EXPECT_GT(r.pool_stats.os_cache_copies, 50u);
  EXPECT_LT(r.pool_stats.disk_random_reads, 5u);
}

TEST(ReplayTest, PrefetchingNonSeqPagesSpeedsUpQuery) {
  const QueryTrace trace = MakeMixedTrace(50, 200);

  SimEnvironment env(SmallSim());
  const ReplayResult dflt = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);

  env.ColdRestart();
  PrefetcherOptions options;
  options.start_delay_us = 0;
  const std::vector<PageId> oracle = OraclePages(trace);
  const ReplayResult prefetched = ReplayQuery(trace, oracle, options, &env);

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
  const ReplayResult first = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  // Warm rerun is much faster; after ColdRestart timing matches cold run.
  const ReplayResult warm = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  EXPECT_LT(warm.elapsed_us, first.elapsed_us);
  env.ColdRestart();
  const ReplayResult cold = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  EXPECT_EQ(cold.elapsed_us, first.elapsed_us);
}

TEST(ReplayTest, WrongPrefetchDoesNotSlowQueryMuch) {
  // Prefetching useless pages must cost (almost) nothing for the query
  // itself — the paper's "practically no regression" claim.
  const QueryTrace trace = MakeMixedTrace(50, 100);
  SimEnvironment env(SmallSim());
  const ReplayResult dflt = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  env.ColdRestart();
  std::vector<PageId> wrong;
  for (uint32_t p = 0; p < 100; ++p) wrong.push_back(PageId{9, p});
  PrefetcherOptions options;
  options.start_delay_us = 0;
  const ReplayResult r = ReplayQuery(trace, wrong, options, &env);
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
  sim.buffer_shards = 2;
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

  struct Outcome {
    Status status;
    SimTime elapsed_us = 0;
    uint64_t completed_accesses = 0;
    PrefetchSessionStats prefetch_stats;
    BufferPoolStats pool_stats;  // the fresh environment's totals
  };
  Outcome solo, batch, fleet;
  {
    SimEnvironment env(sim);
    const ReplayResult r = ReplayQuery(trace, plan, prefetch, &env);
    solo = {r.status, r.elapsed_us, r.completed_accesses, r.prefetch_stats,
            env.pool().stats()};
    EXPECT_TRUE(SameCounters(r.pool_stats, solo.pool_stats));
  }
  {
    SimEnvironment env(sim);
    ConcurrentQuery q;
    q.trace = &trace;
    q.prefetch_pages = plan;
    q.prefetch_options = prefetch;
    const ConcurrentResult r = ReplayConcurrent({q}, {}, &env);
    EXPECT_EQ(r.makespan_us, r.queries[0].elapsed_us);
    batch = {r.queries[0].status, r.queries[0].elapsed_us,
             r.queries[0].completed_accesses, r.queries[0].prefetch_stats,
             env.pool().stats()};
  }
  {
    SimEnvironment env(sim);
    ParallelReplayThread thread;
    thread.trace = &trace;
    thread.prefetch_pages = plan;
    ParallelReplayOptions options;
    options.prefetch = prefetch;
    const ParallelReplayResult r =
        ReplayParallelFleet({thread}, options, &env);
    const ParallelThreadResult& t = r.threads[0];
    fleet = {t.status, t.elapsed_us, t.completed_accesses, t.prefetch_stats,
             env.pool().stats()};
  }

  ASSERT_TRUE(solo.status.ok()) << solo.status.ToString();
  EXPECT_EQ(solo.completed_accesses, trace.accesses.size());
  // The environment really exercised the fault and gray-failure paths.
  EXPECT_GT(solo.pool_stats.read_retries, 0u);
  EXPECT_GT(solo.pool_stats.hedged_reads, 0u);
  EXPECT_GT(solo.prefetch_stats.issued, 0u);
  for (const Outcome* other : {&batch, &fleet}) {
    EXPECT_EQ(other->status.code(), solo.status.code());
    EXPECT_EQ(other->elapsed_us, solo.elapsed_us);
    EXPECT_EQ(other->completed_accesses, solo.completed_accesses);
    EXPECT_TRUE(SameCounters(other->prefetch_stats, solo.prefetch_stats));
    EXPECT_TRUE(SameCounters(other->pool_stats, solo.pool_stats));
  }
}

TEST(ReplayTest, ConcurrentQueriesShareBufferPool) {
  // Two identical queries running together: the second benefits from pages
  // the first brought in, so total time < 2x solo cold time.
  const QueryTrace trace = MakeMixedTrace(30, 120);
  SimEnvironment env(SmallSim());
  const ReplayResult solo = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);

  env.ColdRestart();
  ConcurrentQuery a, b;
  a.trace = &trace;
  b.trace = &trace;
  const ConcurrentResult conc = ReplayConcurrent({a, b}, {}, &env);
  EXPECT_LT(conc.total_query_us, 2 * solo.elapsed_us);
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
  const ReplayResult r = ReplayQuery(empty, {}, PrefetcherOptions{}, &env);
  EXPECT_EQ(r.elapsed_us, 0u);
  ConcurrentQuery q;
  q.trace = &empty;
  q.arrival_us = 42;
  const ConcurrentResult conc = ReplayConcurrent({q}, {}, &env);
  EXPECT_EQ(conc.end_us[0], 42u);
}

// ---------------------------------------------------------------------------
// Sharded environment + multi-threaded fleet replay.
// ---------------------------------------------------------------------------

TEST(ShardedReplayTest, ShardedSoloReplayMatchesUnsharded) {
  // Capacity well above the trace's distinct pages: sharding must be
  // invisible — same elapsed time, same counters, field for field.
  const QueryTrace trace = MakeMixedTrace(40, 120);
  auto run = [&](size_t shards, size_t channels) {
    SimOptions sim = SmallSim();
    sim.buffer_shards = shards;
    sim.storage_channels = channels;
    SimEnvironment env(sim);
    return ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  };
  const ReplayResult base = run(1, 1);
  const ReplayResult sharded = run(4, 2);
  ASSERT_TRUE(base.status.ok());
  ASSERT_TRUE(sharded.status.ok());
  EXPECT_EQ(base.elapsed_us, sharded.elapsed_us);
  EXPECT_EQ(base.pool_stats.fetches, sharded.pool_stats.fetches);
  EXPECT_EQ(base.pool_stats.buffer_hits, sharded.pool_stats.buffer_hits);
  EXPECT_EQ(base.pool_stats.os_cache_copies,
            sharded.pool_stats.os_cache_copies);
  EXPECT_EQ(base.pool_stats.disk_seq_reads, sharded.pool_stats.disk_seq_reads);
  EXPECT_EQ(base.pool_stats.disk_random_reads,
            sharded.pool_stats.disk_random_reads);
}

TEST(ShardedReplayTest, StripedEnvironmentWithFaultsIsDeterministic) {
  // Multi-channel environment with per-channel fault streams: the same
  // single-threaded replay twice from the same seeds must be bit-identical
  // (derived per-channel injector seeds are pure functions of the base
  // seed), and ResetFaults must rewind every channel's stream.
  const QueryTrace trace = MakeMixedTrace(30, 90);
  SimOptions sim = SmallSim();
  sim.buffer_shards = 2;
  sim.storage_channels = 4;
  sim.faults.transient_error_prob = 0.05;
  sim.faults.tail_latency_prob = 0.05;
  sim.faults.seed = 1234;
  SimEnvironment env(sim);
  const ReplayResult a = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  env.ColdRestart();
  env.ResetFaults();
  const ReplayResult b = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  ASSERT_TRUE(a.status.ok());
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.pool_stats.read_retries, b.pool_stats.read_retries);
  EXPECT_EQ(a.pool_stats.disk_random_reads, b.pool_stats.disk_random_reads);
}

TEST(ShardedReplayTest, ParallelFleetCompletesEveryThread) {
  SimOptions sim = SmallSim();
  sim.buffer_shards = 4;
  sim.storage_channels = 2;
  sim.profile_pool_locks = true;
  SimEnvironment env(sim);

  // Give each thread its own object so prefetch plans and scans are
  // distinguishable per thread; thread 0 runs demand-only.
  std::vector<QueryTrace> traces;
  std::vector<ParallelReplayThread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    QueryTrace trace;
    for (uint32_t i = 0; i < 200; ++i) {
      trace.accesses.push_back(
          PageAccess{PageId{10 + t, (i * 37) % 500}, false, 2});
    }
    traces.push_back(std::move(trace));
  }
  for (uint32_t t = 0; t < 4; ++t) {
    ParallelReplayThread thread;
    thread.trace = &traces[t];
    if (t != 0) {
      for (uint32_t i = 0; i < 200; ++i) {
        thread.prefetch_pages.push_back(PageId{10 + t, (i * 37) % 500});
      }
    }
    threads.push_back(std::move(thread));
  }

  const ParallelReplayResult r =
      ReplayParallelFleet(threads, ParallelReplayOptions{}, &env);
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
  // Lock profiling saw at least one acquisition per fetch.
  EXPECT_GE(r.lock_stats.acquisitions, completed);
  EXPECT_GE(r.wall_ms, 0.0);
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
