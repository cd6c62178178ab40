// Overload protection: PrefetchGovernor budgets and shedding, the
// graceful-degradation ladder (with hysteresis), admission control and
// deadline budgets in ReplayConcurrent, and determinism/pin-leak invariants
// under seeded fault storms.
#include <gtest/gtest.h>

#include <vector>

#include "core/governor.h"
#include "core/replay.h"
#include "util/rng.h"

namespace pythia {
namespace {

// Raw-component fixture (mirrors prefetcher_test): sessions built directly
// against a pool/cache/scheduler triple, plus a governor.
class GovernorTest : public ::testing::Test {
 protected:
  GovernorTest()
      : os_cache_(OsPageCache::Options{.capacity_pages = 4096,
                                       .readahead_pages = 4},
                  latency_),
        pool_(BufferPool::Options{.capacity_pages = 64}, &os_cache_,
              latency_),
        io_(2) {}

  // Thresholds above the [0, 1] pressure range disable the ladder so the
  // pin-budget mechanics can be tested in isolation.
  static GovernorOptions NoLadder(size_t max_pinned, size_t max_aio = 1000) {
    GovernorOptions g;
    g.max_pinned_pages = max_pinned;
    g.max_outstanding_aio = max_aio;
    g.cached_only_above = 2.0;
    g.readahead_above = 2.0;
    g.no_prefetch_above = 2.0;
    return g;
  }

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

TEST_F(GovernorTest, PinBudgetDeniesAtCapExactCounters) {
  PrefetchGovernor governor(NoLadder(4), &pool_, &io_, &os_cache_);
  PrefetcherOptions opts;
  opts.start_delay_us = 0;
  opts.readahead_window = 100;
  opts.governor = &governor;

  // A fills the whole budget; B (equal priority) must be denied, never
  // shed against A.
  PrefetchSession a =
      MakeSession({{1, 0}, {1, 1}, {1, 2}, {1, 3}}, opts);
  a.Pump(0);
  EXPECT_EQ(a.stats().issued, 4u);
  EXPECT_EQ(governor.pinned_pages(), 4u);
  EXPECT_EQ(governor.stats().pin_grants, 4u);

  PrefetchSession b = MakeSession({{2, 0}, {2, 1}}, opts);
  b.Pump(0);
  EXPECT_EQ(b.stats().issued, 0u);
  EXPECT_EQ(b.stats().denied_by_governor, 1u);
  EXPECT_EQ(governor.stats().pin_denials, 1u);
  EXPECT_EQ(governor.stats().shed_events, 0u);

  // Consuming one of A's pages frees exactly one token for B.
  a.OnFetch(PageId{1, 0}, 1000000);
  EXPECT_EQ(governor.pinned_pages(), 3u);
  b.Pump(1000000);
  EXPECT_EQ(b.stats().issued, 1u);
  EXPECT_EQ(b.stats().denied_by_governor, 2u);
  EXPECT_EQ(governor.stats().pin_grants, 5u);
  EXPECT_EQ(governor.stats().pin_denials, 2u);
  EXPECT_EQ(governor.pinned_pages(), 4u);
  EXPECT_EQ(pool_.pinned_frames(), 4u);  // 3 of A's + 1 of B's

  // Finishing returns every token; the ledgers agree with the pool.
  a.Finish();
  b.Finish();
  EXPECT_EQ(governor.pinned_pages(), 0u);
  EXPECT_EQ(pool_.pinned_frames(), 0u);
  EXPECT_EQ(governor.live_sessions(), 0u);
}

TEST_F(GovernorTest, ShedsStrictlyLowerPriorityFirstNeverEqual) {
  PrefetchGovernor governor(NoLadder(2), &pool_, &io_, &os_cache_);
  PrefetcherOptions low;
  low.start_delay_us = 0;
  low.readahead_window = 100;
  low.governor = &governor;
  low.priority = 0;
  PrefetcherOptions high = low;
  high.priority = 1;

  PrefetchSession victim = MakeSession({{1, 0}, {1, 1}}, low);
  victim.Pump(0);
  EXPECT_EQ(governor.pinned_pages(), 2u);

  // The high-priority session takes the saturated budget page by page:
  // each acquisition sheds one of the victim's outstanding pages.
  PrefetchSession vip = MakeSession({{2, 0}, {2, 1}}, high);
  vip.Pump(0);
  EXPECT_EQ(vip.stats().issued, 2u);
  EXPECT_EQ(vip.stats().denied_by_governor, 0u);
  EXPECT_EQ(victim.stats().shed_by_governor, 2u);
  EXPECT_EQ(governor.stats().shed_events, 2u);
  EXPECT_EQ(governor.stats().pages_shed, 2u);
  EXPECT_EQ(governor.stats().pin_denials, 0u);
  EXPECT_EQ(governor.pinned_pages(), 2u);  // budget respected throughout

  // Shed pages are unpinned (still buffered); the vip's pages are pinned.
  EXPECT_FALSE(pool_.IsPinned(PageId{1, 0}));
  EXPECT_FALSE(pool_.IsPinned(PageId{1, 1}));
  EXPECT_TRUE(pool_.IsPinned(PageId{2, 0}));

  // A second priority-1 session finds only priority-1 pins: equal priority
  // is never shed for a peer, so it is denied instead.
  PrefetchSession peer = MakeSession({{3, 0}}, high);
  peer.Pump(0);
  EXPECT_EQ(peer.stats().issued, 0u);
  EXPECT_EQ(peer.stats().denied_by_governor, 1u);
  EXPECT_EQ(governor.stats().pages_shed, 2u);  // unchanged

  victim.Finish();
  vip.Finish();
  peer.Finish();
  EXPECT_EQ(governor.pinned_pages(), 0u);
  EXPECT_EQ(pool_.pinned_frames(), 0u);
}

TEST_F(GovernorTest, AioCapDefersUntilReadsComplete) {
  PrefetchGovernor governor(NoLadder(100, /*max_aio=*/1), &pool_, &io_,
                            &os_cache_);
  PrefetcherOptions opts;
  opts.start_delay_us = 0;
  opts.readahead_window = 100;
  opts.governor = &governor;

  // Cold pages issue async reads; with the in-flight cap at one, the first
  // Pump issues exactly one read and defers the rest.
  PrefetchSession session =
      MakeSession({{1, 0}, {1, 500}, {1, 900}}, opts);
  session.Pump(0);
  EXPECT_EQ(session.stats().issued, 1u);
  EXPECT_EQ(session.stats().denied_by_governor, 1u);
  EXPECT_EQ(governor.stats().aio_deferrals, 1u);
  EXPECT_EQ(governor.stats().pin_denials, 0u);

  // Long after the read completed the ledger prunes and issuance resumes.
  session.Pump(10000000);
  EXPECT_EQ(session.stats().issued, 2u);
  EXPECT_EQ(governor.stats().aio_deferrals, 2u);
  session.Finish();
  EXPECT_EQ(governor.pinned_pages(), 0u);
}

TEST_F(GovernorTest, LadderDegradesImmediatelyRecoversWithHysteresis) {
  GovernorOptions g;
  g.max_pinned_pages = 20;
  g.max_outstanding_aio = 1000;  // defaults: 0.60 / 0.80 / 0.95, hyst 0.10
  PrefetchGovernor governor(g, &pool_, &io_, &os_cache_);
  // Pin-ledger-only pressure: a registered id with no real session (nothing
  // here saturates, so the shed path that needs one is never taken).
  // Pressures are kept clear of the exact threshold values — the edges
  // themselves are float-rounding territory, not behaviour worth pinning.
  const uint64_t id = governor.RegisterSession(nullptr, 0);

  auto pin = [&](int count) {
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(governor.TryAcquirePin(id, 0));
    }
  };
  auto unpin = [&](int count) {
    for (int i = 0; i < count; ++i) governor.ReleasePin(id);
  };

  pin(13);  // pressure 0.65: past the cached-only edge
  EXPECT_EQ(governor.Evaluate(0), DegradationRung::kCachedOnly);
  pin(5);  // 0.9: past the readahead edge
  EXPECT_EQ(governor.Evaluate(0), DegradationRung::kReadahead);
  EXPECT_EQ(governor.stats().rung_degrades, 2u);

  // 0.75 is below the readahead edge but not below edge - hysteresis: the
  // ladder must hold rather than flap.
  unpin(3);
  EXPECT_EQ(governor.Evaluate(0), DegradationRung::kReadahead);
  EXPECT_EQ(governor.stats().rung_recoveries, 0u);
  // 0.65 < 0.8 - 0.1: recover exactly one rung, not two.
  unpin(2);
  EXPECT_EQ(governor.Evaluate(0), DegradationRung::kCachedOnly);
  // 0.45 < 0.6 - 0.1: back to full service.
  unpin(4);
  EXPECT_EQ(governor.Evaluate(0), DegradationRung::kFullNeural);
  EXPECT_EQ(governor.stats().rung_recoveries, 2u);

  // Saturation degrades straight to the last rung (no one-step climb down)
  // and suppresses OS readahead; recovery climbs back one rung per step.
  pin(11);  // -> 20 pins, pressure 1.0
  EXPECT_EQ(governor.Evaluate(0), DegradationRung::kNoPrefetch);
  EXPECT_EQ(governor.stats().rung_degrades, 3u);
  EXPECT_TRUE(os_cache_.readahead_suppressed());
  unpin(20);
  EXPECT_EQ(governor.Evaluate(0), DegradationRung::kReadahead);
  EXPECT_FALSE(os_cache_.readahead_suppressed());
  EXPECT_EQ(governor.Evaluate(0), DegradationRung::kCachedOnly);
  EXPECT_EQ(governor.Evaluate(0), DegradationRung::kFullNeural);
  governor.UnregisterSession(id);
}

TEST_F(GovernorTest, SessionsStopPumpingAtReadaheadRung) {
  // End to end through PrefetchSession: once pressure forces kReadahead,
  // Pump gives up before acquiring anything.
  GovernorOptions g;
  g.max_pinned_pages = 10;
  g.max_outstanding_aio = 1000;
  PrefetchGovernor governor(g, &pool_, &io_, &os_cache_);
  const uint64_t ballast = governor.RegisterSession(nullptr, 0);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(governor.TryAcquirePin(ballast, 0));  // pressure 0.9
  }

  PrefetcherOptions opts;
  opts.start_delay_us = 0;
  opts.governor = &governor;
  PrefetchSession session = MakeSession({{1, 0}, {1, 1}}, opts);
  session.Pump(0);
  EXPECT_EQ(session.stats().issued, 0u);
  EXPECT_EQ(governor.stats().pin_grants, 9u);  // nothing new granted

  for (int i = 0; i < 9; ++i) governor.ReleasePin(ballast);
  // Two Evaluate steps to climb back below kCachedOnly... done implicitly:
  // each Pump re-evaluates, so repeated pumps recover and then issue.
  session.Pump(1);
  session.Pump(2);
  session.Pump(3);
  EXPECT_EQ(session.stats().issued, 2u);
  session.Finish();
  governor.UnregisterSession(ballast);
  EXPECT_EQ(governor.pinned_pages(), 0u);
}

// --- ReplayConcurrent admission / deadlines ------------------------------

QueryTrace MakeTrace(uint32_t object, uint32_t pages) {
  QueryTrace t;
  for (uint32_t p = 0; p < pages; ++p) {
    PageAccess a;
    a.page = PageId{object, p * 7};  // stride: no OS readahead freebies
    a.sequential = false;
    a.cpu_tuples_before = 10;
    t.accesses.push_back(a);
  }
  return t;
}

TEST(AdmissionTest, BoundedQueueAdmitsInOrderAndRejectsOverflow) {
  SimOptions sim;
  sim.buffer_pages = 256;
  SimEnvironment env(sim);
  const QueryTrace trace = MakeTrace(1, 8);

  std::vector<ConcurrentQuery> batch(3);
  for (ConcurrentQuery& q : batch) q.trace = &trace;

  ConcurrentOptions opts;
  opts.max_active_queries = 1;
  opts.admission_queue_limit = 1;
  const ConcurrentResult r = ReplayConcurrent(batch, opts, &env);

  EXPECT_EQ(r.admission.admitted_immediately, 1u);
  EXPECT_EQ(r.admission.admitted_after_wait, 1u);
  EXPECT_EQ(r.admission.rejected, 1u);

  EXPECT_TRUE(r.queries[0].status.ok());
  EXPECT_TRUE(r.queries[1].status.ok());
  EXPECT_EQ(r.queries[2].status.code(), StatusCode::kResourceExhausted);

  // The queued query starts exactly when the slot frees, and its recorded
  // wait matches.
  EXPECT_EQ(r.start_us[1], r.end_us[0]);
  EXPECT_GT(r.queries[1].queue_wait_us, 0u);
  EXPECT_EQ(r.queries[1].queue_wait_us, r.end_us[0]);
  EXPECT_EQ(r.admission.max_queue_wait_us, r.end_us[0]);
  // The rejected query never ran.
  EXPECT_EQ(r.queries[2].elapsed_us, 0u);
  EXPECT_EQ(env.pool().pinned_frames(), 0u);
}

TEST(AdmissionTest, UnlimitedWhenCapIsZero) {
  SimOptions sim;
  sim.buffer_pages = 256;
  SimEnvironment env(sim);
  const QueryTrace trace = MakeTrace(1, 4);
  std::vector<ConcurrentQuery> batch(5);
  for (ConcurrentQuery& q : batch) q.trace = &trace;

  const ConcurrentResult r = ReplayConcurrent(batch, {}, &env);
  EXPECT_EQ(r.admission.admitted_immediately, 5u);
  EXPECT_EQ(r.admission.rejected, 0u);
  for (const QueryRunMetrics& m : r.queries) EXPECT_TRUE(m.status.ok());
}

TEST(AdmissionTest, DeadlineStopsSpeculationQueryStillCompletes) {
  SimOptions sim;
  sim.buffer_pages = 256;
  SimEnvironment env(sim);
  const QueryTrace trace = MakeTrace(1, 20);

  ConcurrentQuery q;
  q.trace = &trace;
  for (const PageAccess& a : trace.accesses) {
    q.prefetch_pages.push_back(a.page);
  }
  q.prefetch_options.start_delay_us = 0;
  q.prefetch_options.readahead_window = 4;
  q.deadline_us = 1;  // expires on the first step past admission

  const ConcurrentResult r =
      ReplayConcurrent({q}, ConcurrentOptions{}, &env);
  ASSERT_TRUE(r.queries[0].status.ok());
  EXPECT_TRUE(r.queries[0].deadline_exceeded);
  EXPECT_EQ(r.admission.deadline_stops, 1u);
  // The session was stopped, not the query: all accesses completed, and
  // every prefetch pin was released at the stop.
  EXPECT_EQ(r.end_us[0], r.queries[0].elapsed_us);
  EXPECT_EQ(env.pool().pinned_frames(), 0u);
}

TEST(AdmissionTest, GenerousDeadlineNeverFires) {
  SimOptions sim;
  sim.buffer_pages = 256;
  SimEnvironment env(sim);
  const QueryTrace trace = MakeTrace(1, 8);
  ConcurrentQuery q;
  q.trace = &trace;
  ConcurrentOptions opts;
  opts.default_deadline_us = 1000000000;
  const ConcurrentResult r = ReplayConcurrent({q}, opts, &env);
  EXPECT_FALSE(r.queries[0].deadline_exceeded);
  EXPECT_EQ(r.admission.deadline_stops, 0u);
}

// --- Chaos: seeded fault storm, governed batch ---------------------------

struct StormOutcome {
  ConcurrentResult result;
  GovernorStats governor;
  size_t pool_pins = 0;
  size_t governor_pins = 0;
};

StormOutcome RunStorm(uint64_t seed) {
  SimOptions sim;
  sim.buffer_pages = 128;
  sim.os_cache_pages = 1024;
  sim.io_channels = 2;
  sim.faults.transient_error_prob = 0.01;
  sim.faults.tail_latency_prob = 0.05;
  sim.faults.tail_latency_min_mult = 10.0;
  sim.faults.tail_latency_max_mult = 40.0;
  sim.faults.aio_stall_prob = 0.02;
  sim.faults.aio_stall_us = 20000;
  sim.faults.seed = seed;
  SimEnvironment env(sim);

  GovernorOptions gopts;
  gopts.max_pinned_pages = 16;
  gopts.max_outstanding_aio = 4;
  PrefetchGovernor governor(gopts, &env.pool(), &env.io(), &env.os_cache());

  // Seeded workload: random probes with a half-mispredicted prefetch list
  // (object 9 pages are never accessed — they pin frames until shed or the
  // session ends, the pressure the governor exists to contain).
  Pcg32 rng(seed, 0x570);
  std::vector<QueryTrace> traces(8);
  std::vector<ConcurrentQuery> batch(8);
  for (size_t i = 0; i < 8; ++i) {
    for (int a = 0; a < 60; ++a) {
      PageAccess acc;
      acc.page = PageId{1 + (rng.NextU32() % 3), rng.UniformU32(5000)};
      acc.sequential = false;
      acc.cpu_tuples_before = 5 + rng.UniformU32(20);
      traces[i].accesses.push_back(acc);
      if (a % 2 == 0) {
        batch[i].prefetch_pages.push_back(
            rng.UniformDouble() < 0.5 ? acc.page
                                      : PageId{9, rng.UniformU32(5000)});
      }
    }
    batch[i].trace = &traces[i];
    batch[i].arrival_us = static_cast<SimTime>(i) * 2000;
    batch[i].prefetch_options.start_delay_us = 100;
    batch[i].prefetch_options.readahead_window = 64;
    batch[i].prefetch_options.priority = static_cast<int>(i % 2);
  }

  ConcurrentOptions opts;
  opts.governor = &governor;
  opts.max_active_queries = 3;
  opts.admission_queue_limit = 3;
  opts.default_deadline_us = 400000;

  StormOutcome out;
  out.result = ReplayConcurrent(batch, opts, &env);
  out.governor = governor.stats();
  out.pool_pins = env.pool().pinned_frames();
  out.governor_pins = governor.pinned_pages();
  return out;
}

TEST(OverloadStormTest, InvariantsHoldUnderFaultStorm) {
  const StormOutcome out = RunStorm(0xbad5eed);

  // No pin leaks in either ledger.
  EXPECT_EQ(out.pool_pins, 0u);
  EXPECT_EQ(out.governor_pins, 0u);

  // No starvation: every query was admitted (possibly after a wait) or
  // rejected with ResourceExhausted; every admitted query completed OK
  // (transient read errors are retried below this layer).
  EXPECT_EQ(out.result.admission.admitted_immediately +
                out.result.admission.admitted_after_wait +
                out.result.admission.rejected,
            8u);
  uint64_t rejected = 0, deadline_exceeded = 0;
  uint64_t denied = 0, shed = 0;
  for (const QueryRunMetrics& m : out.result.queries) {
    if (m.status.code() == StatusCode::kResourceExhausted) {
      ++rejected;
      continue;
    }
    EXPECT_TRUE(m.status.ok()) << m.status.ToString();
    if (m.deadline_exceeded) ++deadline_exceeded;
    denied += m.prefetch_stats.denied_by_governor;
    shed += m.prefetch_stats.shed_by_governor;
  }
  EXPECT_EQ(rejected, out.result.admission.rejected);
  EXPECT_EQ(deadline_exceeded, out.result.admission.deadline_stops);

  // Exact cross-ledger counter identities: per-session sums must equal the
  // governor's own tallies (every denial and shed is observed exactly once
  // on each side).
  EXPECT_EQ(denied,
            out.governor.pin_denials + out.governor.aio_deferrals);
  EXPECT_EQ(shed, out.governor.pages_shed);

  // The storm is actually a storm: the governor visibly intervened.
  EXPECT_GT(out.governor.pin_grants, 0u);
  EXPECT_GT(out.governor.rung_degrades, 0u);
}

TEST(OverloadStormTest, SameSeedIsFullyDeterministic) {
  const StormOutcome a = RunStorm(0xd00d);
  const StormOutcome b = RunStorm(0xd00d);

  ASSERT_EQ(a.result.queries.size(), b.result.queries.size());
  EXPECT_EQ(a.result.start_us, b.result.start_us);
  EXPECT_EQ(a.result.end_us, b.result.end_us);
  EXPECT_EQ(a.result.makespan_us, b.result.makespan_us);
  EXPECT_EQ(a.result.total_query_us, b.result.total_query_us);
  for (size_t i = 0; i < a.result.queries.size(); ++i) {
    const QueryRunMetrics& ma = a.result.queries[i];
    const QueryRunMetrics& mb = b.result.queries[i];
    EXPECT_EQ(ma.status.code(), mb.status.code()) << i;
    EXPECT_EQ(ma.elapsed_us, mb.elapsed_us) << i;
    EXPECT_EQ(ma.rung, mb.rung) << i;
    EXPECT_EQ(ma.deadline_exceeded, mb.deadline_exceeded) << i;
    EXPECT_EQ(ma.queue_wait_us, mb.queue_wait_us) << i;
    EXPECT_EQ(ma.degraded_by_governor, mb.degraded_by_governor) << i;
    EXPECT_EQ(ma.prefetch_stats.issued, mb.prefetch_stats.issued) << i;
    EXPECT_EQ(ma.prefetch_stats.denied_by_governor,
              mb.prefetch_stats.denied_by_governor)
        << i;
    EXPECT_EQ(ma.prefetch_stats.shed_by_governor,
              mb.prefetch_stats.shed_by_governor)
        << i;
  }
  EXPECT_EQ(a.governor.pin_grants, b.governor.pin_grants);
  EXPECT_EQ(a.governor.pin_denials, b.governor.pin_denials);
  EXPECT_EQ(a.governor.aio_deferrals, b.governor.aio_deferrals);
  EXPECT_EQ(a.governor.pages_shed, b.governor.pages_shed);
  EXPECT_EQ(a.governor.rung_degrades, b.governor.rung_degrades);
  EXPECT_EQ(a.governor.rung_recoveries, b.governor.rung_recoveries);
}

TEST(OverloadStormTest, DifferentSeedsDiverge) {
  // Sanity check on the witness: if two different storms agreed on every
  // latency, the determinism test above would be vacuous.
  const StormOutcome a = RunStorm(1);
  const StormOutcome b = RunStorm(2);
  EXPECT_NE(a.result.end_us, b.result.end_us);
}

}  // namespace
}  // namespace pythia
