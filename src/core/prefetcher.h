// Pythia's asynchronous prefetcher (Section 3.3 "Prefetcher" + the Section 4
// Postgres integration semantics).
//
// Given a predicted page set, the prefetcher:
//  - orders pages by file-storage offset, so runs of adjacent pages benefit
//    from OS readahead (a request for offset i is issued before offset j
//    when i < j);
//  - issues reads through the async I/O channels, keeping at most
//    `readahead_window` prefetched-but-unconsumed pages pinned in the
//    buffer pool (the tunable the paper sets to 1024 and sweeps in
//    Figure 12g);
//  - treats an already-buffered page as a no-op that bumps its usage count;
//  - starts only after the model-inference delay has elapsed, and never
//    issues more pages than the buffer pool can hold.
//
// A session lives for one query execution (the paper's "global scan state"
// at the executor layer).
#ifndef PYTHIA_CORE_PREFETCHER_H_
#define PYTHIA_CORE_PREFETCHER_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bufmgr/buffer_pool.h"
#include "storage/io_scheduler.h"
#include "storage/os_cache.h"
#include "util/metrics.h"

namespace pythia {

class PrefetchGovernor;
class ChannelBreakerBoard;

// The prefetch headroom rule: speculative pins may hold at most 3/4 of the
// buffer pool, so the executor always has evictable frames. A session caps
// its own budget at it, and the governor derives its global pin budget from
// it (the zero defaults of PrefetcherOptions::max_prefetch_pages and
// GovernorOptions::max_pinned_pages).
inline size_t PrefetchPinHeadroom(size_t pool_capacity) {
  return pool_capacity * 3 / 4;
}

enum class PrefetchOrder {
  kFileOffset,   // Pythia: sort by (object, page) — OS-readahead friendly
  kAccessOrder,  // ORCL: the exact order the query will request pages in
};

struct PrefetcherOptions {
  uint32_t readahead_window = 1024;
  // Virtual time between query start and the first prefetch: model
  // inference + plan serialization overhead (Section 5.1 measures 1-1.5 s
  // against ~11 min queries; scaled here to the simulated query times).
  SimTime start_delay_us = 2000;
  PrefetchOrder order = PrefetchOrder::kFileOffset;
  // Cap on how many pages may be prefetched for one query, used to "perform
  // limited prefetching to stay within buffer memory bounds" (Section 5.1).
  // 0 = derive from the buffer pool capacity (PrefetchPinHeadroom).
  size_t max_prefetch_pages = 0;
  // Deadline for an outstanding prefetch: a page issued more than this long
  // ago without being consumed is unpinned and written off (the window
  // slides on), so a badly mispredicted or stalled prefetch cannot hold
  // buffer pins for the rest of the query. 0 disables the deadline.
  SimTime prefetch_timeout_us = 0;
  // Overload protection (core/governor.h). When set, the session acquires
  // one governor pin token per speculative page (and may be shed or denied
  // under global pressure), reports its async reads, and stops issuing
  // while the degradation ladder sits at kReadahead or below. Not owned;
  // must outlive the session. nullptr = ungoverned (previous behaviour).
  PrefetchGovernor* governor = nullptr;
  // Shed order under governor saturation: strictly-lower-priority sessions
  // are shed first; equal priority is never shed for a peer.
  int priority = 0;
  // Per-channel brownout breakers (core/channel_breaker.h). When set, each
  // speculative read first asks the board whether its OS-cache channel is
  // quarantined for speculative traffic; a denied page is dropped (pin
  // released, window slides) instead of queueing behind a browned-out
  // channel. Foreground reads are unaffected. Not owned; nullptr = no
  // brownout shedding (previous behaviour).
  ChannelBreakerBoard* channel_breakers = nullptr;
};

struct PrefetchSessionStats {
  uint64_t issued = 0;
  uint64_t already_buffered = 0;
  uint64_t consumed = 0;
  uint64_t skipped_budget = 0;
  uint64_t rejected_by_pool = 0;  // shed on buffer pressure
  uint64_t dropped_faulty = 0;    // speculative reads dropped on I/O error
  uint64_t dropped_corrupt = 0;   // dropped on checksum/verification failure
  uint64_t timed_out = 0;         // outstanding pages past the deadline
  uint64_t shed_by_governor = 0;  // pages unpinned for higher-priority work
  uint64_t denied_by_governor = 0;  // pin requests the governor refused
  uint64_t dropped_brownout = 0;  // shed off quarantined (browned-out) channels

  // Pages the session tried to bring in: issued reads plus pages it found
  // already buffered. (IsHealthyPrefetch counts dropped_faulty reads as
  // attempted too; the watchdog, adaptation and shadow validation do not.)
  uint64_t attempted() const { return issued + already_buffered; }
  // Share of the attempted pages the query consumed; 0 when none were.
  double useful_ratio() const {
    return SafeDiv(static_cast<double>(consumed),
                   static_cast<double>(attempted()));
  }
};

class PrefetchSession {
 public:
  // `pages` is the predicted (or oracle) page list in query-access order
  // when known; the session re-orders it according to `options.order`.
  PrefetchSession(std::vector<PageId> pages,
                  const PrefetcherOptions& options, BufferPool* pool,
                  OsPageCache* os_cache, IoScheduler* io,
                  const LatencyModel& latency);

  // A session owns buffer pins; destruction finishes it so an aborted query
  // (error mid-replay, cancelled batch) can never leak pins.
  ~PrefetchSession() { Finish(); }
  // Not movable: the governor holds this session's address for shedding.
  PrefetchSession(PrefetchSession&&) = delete;
  PrefetchSession& operator=(PrefetchSession&&) = delete;
  PrefetchSession(const PrefetchSession&) = delete;
  PrefetchSession& operator=(const PrefetchSession&) = delete;

  // Issues as many prefetches as the readahead window and budget allow.
  // Called by the replay loop before every page request. A speculative read
  // that fails is dropped — the page simply stays a future miss; a
  // speculative read never fails the query. No-op after Finish().
  void Pump(SimTime now);

  // Notifies the session that the query fetched `page` at `now`; a
  // predicted page is consumed (unpinned, window slides). No-op after
  // Finish().
  void OnFetch(PageId page, SimTime now);

  // Unpins everything still pinned (query finished or cancelled).
  // Idempotent: calling it again, or Pump/OnFetch afterwards, is safe.
  void Finish();

  // Governor callback: unpins up to `max_pages` of this session's oldest
  // outstanding pages so a higher-priority session can pin. Returns how
  // many were shed. The governor adjusts its own pin ledger for the shed
  // pages — this method must NOT call ReleasePin back into it.
  size_t ShedForGovernor(size_t max_pages, SimTime now);

  const PrefetchSessionStats& stats() const { return stats_; }
  // Total pages this session will attempt (the budget-trimmed plan). This is
  // a constant for the session's lifetime; it used to double as "work left",
  // which mislabelled progress displays — use remaining() for that.
  size_t planned() const { return queue_.size(); }
  // Pages planned but not yet issued; shrinks as Pump advances the cursor.
  size_t remaining() const { return queue_.size() - next_; }
  size_t outstanding() const { return outstanding_.size(); }
  bool finished() const { return finished_; }

 private:
  // Writes off outstanding prefetches older than the deadline.
  void ExpireTimedOut(SimTime now);

  std::vector<PageId> queue_;
  size_t next_ = 0;  // queue position of the next page to issue
  PrefetcherOptions options_;
  size_t budget_;
  BufferPool* pool_;
  OsPageCache* os_cache_;
  IoScheduler* io_;
  LatencyModel latency_;

  // Pages issued and pinned but not yet consumed by the query, with the
  // virtual time each was issued at (for deadline accounting).
  std::unordered_map<PageId, SimTime> outstanding_;
  PrefetchSessionStats stats_;
  bool finished_ = false;
  uint64_t governor_id_ = 0;  // 0 = not registered
};

}  // namespace pythia

#endif  // PYTHIA_CORE_PREFETCHER_H_
