// The simulated RDBMS buffer pool.
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
// One mutex guards the whole pool: frame array, free list, page table,
// replacement policy, stats and the unevictable count. The pool draws no
// random numbers, so a single-threaded caller sees the same eviction
// sequence on every rerun; real threads (ReplayParallelFleet) serialize on
// the mutex, while the OS cache below stripes its own locking per channel.
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
  uint64_t prefetches_rejected = 0; // pool full of unevictable frames
  SimTime prefetch_wait_us = 0;
  uint64_t read_retries = 0;        // failed foreground attempts retried
  uint64_t corrupt_retries = 0;     // of those, checksum/verification failures
  uint64_t failed_fetches = 0;      // fetches that exhausted the retry budget
  uint64_t hedged_reads = 0;        // foreground misses that issued a hedge
  uint64_t hedge_wins = 0;          // of those, hedge beat the slow primary

  friend bool operator==(const BufferPoolStats&,
                         const BufferPoolStats&) = default;
};

// Field-by-field sum (`from` added into `into`) and difference
// (`after - before`), for replay deltas and per-round totals. buffer_pool.cc
// generates both from one field list, so a new counter only has to be
// added there once.
void AccumulateStats(BufferPoolStats* into, const BufferPoolStats& from);
BufferPoolStats SubtractStats(const BufferPoolStats& after,
                              const BufferPoolStats& before);

class BufferPool {
 public:
  struct Options {
    size_t capacity_pages = 4096;
    ReplacementPolicyKind policy = ReplacementPolicyKind::kClock;
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
  // Thread-safe: holds the pool mutex throughout (the OS read on a miss
  // happens under it; the OS cache stripes its own locking per channel).
  Result<FetchResult> FetchPage(PageId page, SimTime now);

  // Installs an in-flight frame for `page` whose I/O completes at
  // `completion`. If the page is already buffered this is a cheap no-op that
  // bumps its usage count (and pins it if `pin`), per Section 3.3 design
  // consideration 4. Fails with ResourceExhausted when every frame is
  // pinned or in flight.
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

  size_t used_frames() const;
  size_t pinned_frames() const;

  // Fraction of capacity unavailable to demand reads at `now`: frames that
  // are pinned or hold an in-flight prefetch that has not landed yet. The
  // overload governor's pool-pressure signal — at 1.0 a new fetch must
  // bypass the pool entirely (uncached_reads). Reads the kept count
  // (pinned_, arrivals_) with one binary search; exact for any `now`,
  // including one earlier than a previous call's.
  double UnevictablePressure(SimTime now) const;

  // A copy taken under the pool mutex, so a reader never races a fetch.
  BufferPoolStats stats() const;
  void ResetStats();

  // Empties the pool (Postgres restart between experiment runs). Also
  // resets the replacement policy to its freshly-constructed state — a
  // restarted pool and a fresh pool must make identical eviction decisions
  // on the same trace (a Clock hand left where the previous run parked it
  // broke this once).
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

  // Finds a frame for a new page: a free one, or one evicted by the
  // policy. Returns -1 if nothing is evictable at `now`. Caller holds mu_.
  int64_t AllocateFrame(SimTime now);
  bool Evictable(size_t frame, SimTime now) const;
  // Adds frame `f`'s share of the unevictable count, or takes it away.
  // Every change to a frame's validity, pin_count or in_flight flag sits
  // between an Untrack and a Track of that frame. Caller holds mu_.
  void Track(const Frame& f);
  void Untrack(const Frame& f);

  Options options_;
  OsPageCache* os_cache_;
  LatencyModel latency_;
  mutable std::mutex mu_;
  std::vector<Frame> frames_;
  std::vector<size_t> free_list_;  // frame indices
  std::unordered_map<PageId, size_t> page_table_;
  std::unique_ptr<ReplacementPolicy> policy_;
  BufferPoolStats stats_;
  // The unevictable count, kept in step with frames_ by Track/Untrack: the
  // valid frames with pin_count > 0, and the sorted arrival times of the
  // valid, unpinned, in-flight ones. An arrival stays listed after it has
  // passed, until its frame is consumed, pinned or evicted, so the count at
  // any `now` is pinned_ plus the arrivals after `now`.
  size_t pinned_ = 0;
  std::vector<SimTime> arrivals_;
};

}  // namespace pythia

#endif  // PYTHIA_BUFMGR_BUFFER_POOL_H_
