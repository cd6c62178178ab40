// The simulated RDBMS buffer pool, partitioned into lock-striped shards.
//
// Mirrors the Postgres buffer manager as the paper uses it:
//  - synchronous reads (`FetchPage`) always go through the pool: buffer hit,
//    OS-cache memory copy, or disk read, with the corresponding virtual-time
//    latency;
//  - asynchronous prefetches (`StartPrefetch`) install an in-flight frame
//    whose contents "arrive" at a scheduled completion time — a later fetch
//    before that time waits for the remaining in-flight duration, exactly
//    like blocking on an AIO in progress;
//  - pages can be pinned (the readahead-window pinning of Section 4) and
//    pinned or in-flight frames are never evicted;
//  - replacement among evictable frames is delegated to a pluggable policy
//    (Clock by default, LRU/MRU for Figure 12e).
//
// Sharding: the page table, frame array, free list, replacement policy and
// stats are partitioned into `num_shards` independent shards keyed by
// PageId hash, each behind its own mutex, so concurrent fetches of pages in
// different shards never contend. That the single pool mutex limits a fleet
// is not shown: in the committed bench_shard run (BENCH_shard.json, 8
// threads on a 4-vCPU VM) 1.24% of the 1-shard pool's lock acquisitions
// contended, and 8 shards ran at 0.90x the throughput of one.
// Determinism rules:
//  - `num_shards = 1` (the default) is bit-identical to the historical
//    unsharded pool — one shard, full capacity, same code path order — so
//    every seed bench and tier-1 test is unchanged;
//  - shard assignment is a pure function of the page id, capacity splits
//    round-robin by shard index, and every aggregate (stats, pressure,
//    Reset) iterates shards in index order, so a single-threaded sharded
//    run is bit-identical across reruns at any shard count.
//
// Lock profiling (`Options::profile_locks`): every shard measures wall-clock
// mutex wait and hold times — `try_lock` first, so the uncontended fast path
// costs two steady_clock reads and the contended path additionally records
// how long it spent blocked — and mirrors contended acquisitions into the
// trace layer. `bench_shard` reports these counts for each shard count.
// Wall-clock instrumentation only: virtual-time results are unaffected, so
// profiled runs stay deterministic.
#ifndef PYTHIA_BUFMGR_BUFFER_POOL_H_
#define PYTHIA_BUFMGR_BUFFER_POOL_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bufmgr/replacement.h"
#include "storage/fault_injector.h"
#include "storage/latency_model.h"
#include "storage/os_cache.h"
#include "storage/page_id.h"
#include "storage/sim_clock.h"
#include "util/status.h"

namespace pythia {

struct FetchResult {
  SimTime latency_us = 0;
  AccessSource source = AccessSource::kBufferHit;
  // Portion of latency spent waiting for an in-flight prefetch to land.
  SimTime prefetch_wait_us = 0;
  // True when this fetch was the FIRST consumption of a prefetched frame.
  // Later re-hits on the same frame are plain buffer hits: the prefetch
  // already got its credit, and repeat credit would permanently inflate
  // useful-prefetch ratios.
  bool served_by_prefetch = false;
  // Failed read attempts absorbed before this fetch succeeded; their device
  // time and backoff are already folded into `latency_us`.
  uint32_t retries = 0;
  // A gray-failure hedge was issued for this fetch (storage/channel_health.h);
  // hedge_won means the hedge completed first and latency_us reflects it.
  bool hedged = false;
  bool hedge_won = false;
};

struct BufferPoolStats {
  uint64_t fetches = 0;
  uint64_t buffer_hits = 0;
  uint64_t prefetch_hits = 0;       // first hits on landed prefetched frames
  // Fetches that BLOCKED on an in-flight prefetch. Counted here instead of
  // buffer_hits/prefetch_hits: the query waited for the device, so crediting
  // a full hit overstated how useful prefetching was.
  uint64_t prefetch_wait_hits = 0;
  uint64_t os_cache_copies = 0;
  uint64_t disk_seq_reads = 0;
  uint64_t disk_random_reads = 0;
  uint64_t evictions = 0;
  uint64_t uncached_reads = 0;      // no evictable frame: read bypassed pool
  uint64_t prefetches_started = 0;
  uint64_t prefetches_rejected = 0; // shard full of unevictable frames
  SimTime prefetch_wait_us = 0;
  uint64_t read_retries = 0;        // failed foreground attempts retried
  uint64_t corrupt_retries = 0;     // of those, checksum/verification failures
  uint64_t failed_fetches = 0;      // fetches that exhausted the retry budget
  uint64_t hedged_reads = 0;        // foreground misses that issued a hedge
  uint64_t hedge_wins = 0;          // of those, hedge beat the slow primary

  friend bool operator==(const BufferPoolStats&,
                         const BufferPoolStats&) = default;
};

// Wall-clock mutex contention evidence, merged over shards in shard order.
struct BufferPoolLockStats {
  uint64_t acquisitions = 0;
  uint64_t contended = 0;    // try_lock failed; the thread had to block
  uint64_t wait_ns = 0;      // total time blocked acquiring shard mutexes
  uint64_t hold_ns = 0;      // total time shard mutexes were held
};

// Field-by-field sum (`from` added into `into`) and difference
// (`after - before`). Shard merges and replay deltas both reduce with
// these; buffer_pool.cc generates each pair from one field list per
// struct, so a new counter only has to be added there once.
void AccumulateStats(BufferPoolStats* into, const BufferPoolStats& from);
BufferPoolStats SubtractStats(const BufferPoolStats& after,
                              const BufferPoolStats& before);
void AccumulateStats(BufferPoolLockStats* into,
                     const BufferPoolLockStats& from);
BufferPoolLockStats SubtractStats(const BufferPoolLockStats& after,
                                  const BufferPoolLockStats& before);

class BufferPool {
 public:
  struct Options {
    size_t capacity_pages = 4096;
    ReplacementPolicyKind policy = ReplacementPolicyKind::kClock;
    // Lock-striped shards keyed by PageId hash. 1 (the default) is the
    // historical unsharded pool, bit-identical on every seed bench; 0 is
    // treated as 1. Capacity, page table, frames, free list, policy and
    // stats are all per-shard.
    size_t num_shards = 1;
    // Wall-clock lock wait/hold instrumentation (see file comment). Off by
    // default: the steady_clock reads are pure overhead for virtual-time
    // replays that never contend.
    bool profile_locks = false;
    // Foreground reads retry transient I/O errors under this policy; each
    // failed attempt is charged the random-read device time plus a capped
    // exponential backoff with deterministic jitter, all in virtual time.
    RetryPolicy retry = {};
  };

  // `os_cache` must outlive the pool.
  BufferPool(const Options& options, OsPageCache* os_cache,
             const LatencyModel& latency);

  // Synchronous read of `page` at virtual time `now`. Fails with IoError
  // only after exhausting the retry budget on injected transient errors;
  // infallible when the OS cache has no fault injector attached.
  // Thread-safe: takes only the owning shard's mutex (the OS read on a miss
  // happens under it; the OS cache stripes its own locking per channel).
  Result<FetchResult> FetchPage(PageId page, SimTime now);

  // Installs an in-flight frame for `page` whose I/O completes at
  // `completion`. If the page is already buffered this is a cheap no-op that
  // bumps its usage count (and pins it if `pin`), per Section 3.3 design
  // consideration 4. Fails with ResourceExhausted when every frame of the
  // page's shard is pinned or in flight.
  Status StartPrefetch(PageId page, SimTime completion, bool pin,
                       SimTime now);

  // Pin/unpin for the prefetcher's readahead window. Unpin of an unknown
  // page is a no-op (it may have been evicted or never prefetched).
  void Pin(PageId page);
  void Unpin(PageId page);

  bool Contains(PageId page) const;
  bool IsPinned(PageId page) const;
  // True if the page has an in-flight frame that lands after `now`.
  bool IsInFlight(PageId page, SimTime now) const;

  size_t capacity() const { return options_.capacity_pages; }
  size_t num_shards() const { return shards_.size(); }
  // Frames shard `shard` owns (capacity split round-robin by index).
  size_t shard_capacity(size_t shard) const {
    return shards_[shard]->frames.size();
  }
  // Which shard owns `page` — a pure function of the page id.
  size_t ShardOf(PageId page) const {
    return shards_.size() == 1 ? 0 : PageIdHash{}(page) % shards_.size();
  }

  size_t used_frames() const;
  size_t pinned_frames() const;

  // Fraction of capacity unavailable to demand reads at `now`: frames that
  // are pinned or hold an in-flight prefetch that has not landed yet,
  // aggregated across every shard in shard order. The overload governor's
  // pool-pressure signal — at 1.0 a new fetch must bypass the pool entirely
  // (uncached_reads). Reads each shard's kept count (Shard::pinned,
  // Shard::arrivals) with one binary search; exact for any `now`,
  // including one earlier than a previous call's.
  double UnevictablePressure(SimTime now) const;

  // Reduce over shards in shard index order. By value now: there is no
  // single stats struct to point into once the pool is partitioned.
  BufferPoolStats stats() const;
  void ResetStats();

  // Merged wall-clock lock contention counters (zeros unless
  // Options::profile_locks). Reset together with ResetStats().
  BufferPoolLockStats lock_stats() const;

  // Empties the pool (Postgres restart between experiment runs). Also
  // resets each shard's replacement policy to its freshly-constructed state
  // — a restarted pool and a fresh pool must make identical eviction
  // decisions on the same trace (a Clock hand left where the previous run
  // parked it broke this once).
  void Reset();

 private:
  struct Frame {
    PageId page;
    bool valid = false;
    bool in_flight = false;
    bool installed_by_prefetch = false;
    uint32_t pin_count = 0;
    SimTime arrival = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::vector<Frame> frames;
    std::vector<size_t> free_list;           // frame indices, shard-local
    std::unordered_map<PageId, size_t> page_table;
    std::unique_ptr<ReplacementPolicy> policy;
    BufferPoolStats stats;
    // Lock-profile counters; written under `mu` except wait_ns/contended,
    // which the blocked thread accumulates after acquiring it.
    BufferPoolLockStats lock;
    // The unevictable count, kept in step with `frames` by Track/Untrack:
    // the valid frames with pin_count > 0, and the sorted arrival times of
    // the valid, unpinned, in-flight ones. An arrival stays listed after
    // it has passed, until its frame is consumed, pinned or evicted, so the
    // count at any `now` is `pinned` plus the arrivals after `now`.
    size_t pinned = 0;
    std::vector<SimTime> arrivals;
  };

  // Acquires `shard.mu`, recording wait/hold times when profiling is on.
  class Guard {
   public:
    // `profile` opts an acquisition out of lock profiling: aggregate
    // introspection (stats(), lock_stats(), Reset()...) must not count its
    // own shard sweeps as workload acquisitions.
    Guard(const BufferPool* pool, Shard* shard, bool profile = true);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Shard* shard_;
    bool profiled_ = false;
    uint64_t hold_start_ns_ = 0;
  };

  // Finds a frame for a new page in `shard`: a free one, or one evicted by
  // the shard's policy. Returns -1 if nothing is evictable at `now`.
  // Caller holds the shard mutex.
  int64_t AllocateFrame(Shard* shard, SimTime now);
  static bool Evictable(const Shard& shard, size_t frame, SimTime now);
  // Adds frame `f`'s share of the shard's unevictable count, or takes it
  // away. Every change to a frame's validity, pin_count or in_flight flag
  // sits between an Untrack and a Track of that frame. Caller holds the
  // shard mutex.
  static void Track(Shard* shard, const Frame& f);
  static void Untrack(Shard* shard, const Frame& f);

  Options options_;
  OsPageCache* os_cache_;
  LatencyModel latency_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pythia

#endif  // PYTHIA_BUFMGR_BUFFER_POOL_H_
