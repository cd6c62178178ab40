// Deterministic timing simulation: replays recorded query traces against
// the buffer pool / OS cache / async I/O channels under a chosen prefetch
// strategy, in virtual time.
//
// The paper measures speedup as time(default Postgres) / time(variant),
// restarting Postgres and dropping OS caches between runs for cold-cache
// behaviour (Section 5.1). `SimEnvironment::ColdRestart()` reproduces that
// protocol; the multi-query simulator (Section 5.4) keeps caches warm
// across a batch instead.
//
// The concurrent replay additionally models overload protection: bounded
// admission (concurrent queries past a cap wait in a FIFO queue; past the
// queue bound they are rejected), per-query deadline budgets (a query past
// its budget sheds its prefetch session and finishes on demand reads), and
// the PrefetchGovernor's graceful-degradation ladder.
//
// One replay surface: ReplayConcurrent is the engine, and every entry point
// speaks its types — a ConcurrentQuery in, a QueryRunMetrics out.
// SimEnvironment builds the storage stack one way at every width: one fault
// injector and one SimulatedDisk per OS-cache channel.
#ifndef PYTHIA_CORE_REPLAY_H_
#define PYTHIA_CORE_REPLAY_H_

#include <memory>
#include <vector>

#include "bufmgr/buffer_pool.h"
#include "core/channel_breaker.h"
#include "core/governor.h"
#include "core/prefetcher.h"
#include "core/query_metrics.h"
#include "exec/trace.h"
#include "storage/channel_health.h"
#include "storage/fault_injector.h"
#include "storage/io_scheduler.h"
#include "storage/latency_model.h"
#include "storage/os_cache.h"
#include "storage/sim_disk.h"

namespace pythia {

struct SimOptions {
  LatencyModel latency;
  size_t buffer_pages = 1024;  // ~1% of a SF-100 database, like the paper
  ReplacementPolicyKind policy = ReplacementPolicyKind::kClock;
  size_t os_cache_pages = 4096;
  uint32_t os_readahead_pages = 32;
  size_t io_channels = 8;
  // Lock-striped OS-cache/disk channels, keyed by object id. 1 (the
  // default) is the single-lock cache. Every channel gets its own
  // fault-injector stream (channel c seeded
  // faults.seed ^ (0x9e3779b97f4a7c15 * c), so channel 0 keeps the base
  // seed) and its own SimulatedDisk (same content seed, so images are
  // identical), so multi-threaded replays never race on a shared RNG.
  size_t storage_channels = 1;
  // Fault injection for the storage stack; disabled by default. Foreground
  // retry behaviour under injected errors is governed by `retry`.
  FaultConfig faults;
  RetryPolicy retry;
  // Materialize checksummed page images and verify them on every device
  // read even when no corruption fault is configured. Corruption faults
  // imply verification regardless of this flag; the flag exists to measure
  // the (virtual-time-free) verification overhead and to harden tests.
  bool verify_page_checksums = false;
  // Gray-failure resilience (storage/channel_health.h). channel_health.enabled
  // constructs one tracker over the OS-cache storage channels (fed by every
  // device read, consulted for hedged foreground reads when
  // channel_health.hedging_enabled).
  ChannelHealthOptions channel_health;
  // Per-channel brownout breakers shedding speculative traffic off
  // gray-failing channels (core/channel_breaker.h, default options).
  // Requires channel_health.enabled; the board is injected into every
  // replay-built prefetch session that does not already carry one.
  bool channel_breakers = false;
  // Single-gray-channel scenario: when >= 0, only this storage channel's
  // fault injector keeps the configured brownout window; every other
  // channel's derived injector has it stripped. < 0 = the brownout config
  // applies to every channel (the historical per-injector semantics).
  int brownout_channel = -1;
};

class SimEnvironment {
 public:
  explicit SimEnvironment(const SimOptions& options);

  // Postgres restart + `drop_caches`: empties the buffer pool, the OS page
  // cache and the I/O channel timelines. Deliberately does NOT reset the
  // fault injectors: faults are a property of the device over time, not of
  // the database restart. Use ResetFaults() for paired experiment arms.
  void ColdRestart();

  // Rewinds every fault injector to its seeded state (and clears its stats)
  // so two experiment arms observe the identical fault sequence.
  void ResetFaults();

  // Clears the health tracker, hedge budget and breaker board back to their
  // constructed state, for paired experiment arms. Deliberately separate
  // from ColdRestart(): like the fault streams, channel health is a property
  // of the device over time, and a database restart does not heal a slow
  // disk.
  void ResetChannelHealth();

  // Channel c's fault injector and disk are
  // os_cache().channel_fault_injector(c) and channel_disk(c): nullptr when
  // fault injection is disabled, resp. unless corruption faults or
  // verify_page_checksums are on.
  OsPageCache& os_cache() { return *os_cache_; }
  BufferPool& pool() { return *pool_; }
  IoScheduler& io() { return *io_; }
  // nullptr unless channel_health.enabled. Covers the OS-cache storage
  // channels.
  ChannelHealthTracker* channel_health() { return health_.get(); }
  // nullptr unless channel_breakers was set (and channel_health.enabled).
  ChannelBreakerBoard* channel_breakers() { return breakers_.get(); }
  const SimOptions& options() const { return options_; }

 private:
  SimOptions options_;
  // One injector and one disk per storage channel (empty when disabled).
  // With storage_channels > 1 the AIO scheduler draws stalls from its own
  // injector, so its stall stream never races the channel read streams
  // across threads; one channel shares channel 0's.
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  std::vector<std::unique_ptr<SimulatedDisk>> disks_;
  std::unique_ptr<FaultInjector> aio_injector_;
  std::unique_ptr<OsPageCache> os_cache_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<IoScheduler> io_;
  std::unique_ptr<ChannelHealthTracker> health_;  // storage channels
  std::unique_ptr<ChannelBreakerBoard> breakers_;
};

// Replays one query: queries[0] of a batch of one for ReplayConcurrent
// below, arriving at 0, with no loop-level governor (a governor in
// `prefetch_options` still governs the session). `prefetch_pages` empty
// means no prefetching (DFLT). Its status is non-OK when a foreground read
// exhausted its retry budget; the replay then stops at the failing access
// with all prefetch pins released. Does not reset the environment —
// callers decide between cold and warm runs.
QueryRunMetrics ReplayQuery(const QueryTrace& trace,
                            const std::vector<PageId>& prefetch_pages,
                            const PrefetcherOptions& prefetch_options,
                            SimEnvironment* env);

// One query of a concurrent batch.
struct ConcurrentQuery {
  const QueryTrace* trace = nullptr;
  std::vector<PageId> prefetch_pages;  // empty = no prefetch for this query
  SimTime arrival_us = 0;
  PrefetcherOptions prefetch_options;
  // Deadline budget in virtual µs, measured from admission (not arrival):
  // past it the query sheds its prefetch session (pins released) and
  // finishes on demand reads. 0 = inherit ConcurrentOptions'
  // default_deadline_us; 0 there too = no deadline.
  SimTime deadline_us = 0;
  // Planning-time metrics seed (rung the planner chose, breaker/watchdog
  // degradation flags, prediction accuracy) — typically filled by
  // PythiaSystem::PlanConcurrentQuery. The replay copies it into the
  // query's result slot at admission and then overlays run-time facts:
  // the recorded rung becomes max(planned.rung, worst governor rung
  // observed while running).
  QueryRunMetrics planned;
};

struct ConcurrentOptions {
  // Shared overload governor. Injected into every session whose
  // PrefetcherOptions did not already carry one; also drives the ladder
  // checks in the event loop. Not owned; may be nullptr (ungoverned).
  PrefetchGovernor* governor = nullptr;
  // Admission control: at most this many queries run concurrently; 0 means
  // unlimited (no admission control, the pre-overload behaviour).
  size_t max_active_queries = 0;
  // Bounded FIFO wait queue for arrivals beyond the cap. An arrival that
  // finds the queue full is rejected with ResourceExhausted — the paper's
  // "fail fast under saturation" alternative to unbounded queueing.
  size_t admission_queue_limit = 16;
  // Default per-query deadline budget (µs from admission); 0 = none.
  SimTime default_deadline_us = 0;
};

// Batch-level admission/overload accounting for one ReplayConcurrent call.
struct AdmissionStats {
  uint64_t admitted_immediately = 0;
  uint64_t admitted_after_wait = 0;  // spent time in the admission queue
  uint64_t rejected = 0;             // queue full on arrival
  uint64_t deadline_stops = 0;       // sessions shed by the deadline budget
  SimTime max_queue_wait_us = 0;
};

struct ConcurrentResult {
  // Per query (same index as the input batch): admission time (arrival +
  // queue wait; equals arrival for rejected queries) and completion time.
  std::vector<SimTime> start_us;
  std::vector<SimTime> end_us;
  // Full per-query outcome. status is ResourceExhausted for a rejected
  // query (which never ran), the replay error for one that died mid-run,
  // OK otherwise. pool_stats stays zero in a batch of two or more: the pool
  // is shared, so per-query deltas are not separable in an interleaved
  // batch — prefetch_stats (from the query's own session) are exact per
  // query. A batch of one gets the pool delta over the call.
  std::vector<QueryRunMetrics> queries;
  AdmissionStats admission;
  SimTime makespan_us = 0;      // last end
  SimTime total_query_us = 0;   // sum of per-query run times (end - start)
};

// The replay engine: the one per-access loop behind every entry point
// (ReplayQuery, PythiaSystem::RunQuery and each ReplayParallelFleet thread
// are batches of one). Event-driven interleaved replay of queries sharing
// the buffer pool, OS cache and I/O channels (Section 5.4). Queries run "in
// parallel": each advances its own virtual clock; shared state is updated
// in global time order. Every admitted query completes — admission,
// deadlines and governor shedding degrade service, never abandon work.
// Each query of a batch records on its own trace track; a batch of one
// records on the caller's current track. `{}` options are the
// pre-overload-protection behaviour: unlimited admission, no deadlines, no
// governor.
ConcurrentResult ReplayConcurrent(const std::vector<ConcurrentQuery>& queries,
                                  const ConcurrentOptions& options,
                                  SimEnvironment* env);

// ---------------------------------------------------------------------------
// True multi-threaded fleet replay.
//
// ReplayConcurrent above interleaves queries on ONE OS thread in virtual
// time; it measures what the queries experience. This arm runs one real
// std::thread per spec, each a batch of one on ReplayConcurrent, all
// sharing the one-mutex pool, the striped OS cache and the I/O scheduler
// concurrently — the path ThreadSanitizer soaks for data races on the
// pool mutex, the channel locks and the scheduler lock. Determinism story:
// thread interleaving is real and uncontrolled, so per-thread latency
// totals vary run to run; what IS deterministic (and asserted by tests) is
// the merge structure — threads are joined and their results recorded in
// thread index order — plus the interleaving-independent invariants: every
// access of every trace completes exactly once, and no pins are leaked.
// Each spec's governor is cleared (PrefetchGovernor is single-threaded
// control logic), and tracing should be disabled around this call
// (per-thread trace context is not supported).

struct ParallelReplayResult {
  // One per spec, in thread index order. pool_stats stays zero, as in any
  // batch of two or more: the pool is shared, so the per-thread deltas are
  // not separable; the delta over the whole run is pool_stats below.
  std::vector<QueryRunMetrics> threads;
  BufferPoolStats pool_stats;  // delta over the run
};

ParallelReplayResult ReplayParallelFleet(
    const std::vector<ConcurrentQuery>& threads, SimEnvironment* env);

}  // namespace pythia

#endif  // PYTHIA_CORE_REPLAY_H_
