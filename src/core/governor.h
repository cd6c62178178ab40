// PrefetchGovernor: global overload protection for speculative I/O.
//
// Every PrefetchSession is greedy by design — it pins up to a readahead
// window of pages and keeps the async channels busy — which is exactly
// right for one query and exactly wrong for fifty. SeLeP and GrASP both
// observe that a learned prefetcher under concurrent load must cap its
// speculative work or it evicts useful pages and *adds* latency. The
// governor is that cap: one per environment, shared by every live session,
// it owns
//
//  - a global pinned-prefetch-page budget: sessions must acquire a pin
//    token per speculative page. When the budget is exhausted the governor
//    sheds the oldest outstanding pages of the lowest-priority live session
//    (never a higher-priority one) to make room; if the requester itself is
//    the lowest priority, the pin is denied instead.
//  - an outstanding-async-read ledger, fed by sessions as they issue reads
//    and pruned by virtual completion time; together with the I/O
//    scheduler's queue backlog this yields an AIO pressure signal.
//  - the four-rung degradation ladder (core/query_metrics.h). Pressure is
//    max(pool pressure, AIO pressure) in [0, 1]; crossing a rung's
//    threshold degrades immediately, recovery steps back one rung at a
//    time and only once pressure has fallen a hysteresis margin (0.10)
//    below the threshold, so the ladder cannot flap. From kReadahead on
//    the governor suppresses hedged reads, and at kNoPrefetch also OS
//    readahead — under saturation even the kernel's speculation is shed.
//
// Determinism: the governor is pure bookkeeping over virtual-time signals —
// no wall clock, no randomness — so identical call sequences produce
// identical decisions, and a seeded concurrent replay stays byte-identical.
//
// Thread-safety: none needed — like the rest of the replay stack it runs on
// the single simulation thread.
#ifndef PYTHIA_CORE_GOVERNOR_H_
#define PYTHIA_CORE_GOVERNOR_H_

#include <cstdint>
#include <map>
#include <queue>
#include <vector>

#include "bufmgr/buffer_pool.h"
#include "core/query_metrics.h"
#include "storage/io_scheduler.h"
#include "storage/os_cache.h"
#include "util/metrics_registry.h"

namespace pythia {

class PrefetchSession;

struct GovernorOptions {
  // Global cap on pinned prefetch pages across all sessions.
  // 0 = derive: 3/4 of the buffer-pool capacity (the same headroom rule a
  // single session applies to itself).
  size_t max_pinned_pages = 0;
  // Cap on outstanding async reads across all sessions. 0 = derive:
  // 4 in-flight reads per I/O channel.
  size_t max_outstanding_aio = 0;
  // Ladder thresholds on the combined pressure signal in [0, 1]. Crossing
  // a threshold upward moves to (at least) that rung.
  double cached_only_above = 0.60;
  double readahead_above = 0.80;
  double no_prefetch_above = 0.95;
};

struct GovernorStats {
  uint64_t sessions_registered = 0;
  uint64_t pin_grants = 0;
  uint64_t pin_denials = 0;        // no budget and no lower-priority victim
  uint64_t shed_events = 0;        // TryAcquirePin calls that shed a victim
  uint64_t pages_shed = 0;         // victim pages unpinned by those sheds
  uint64_t rung_degrades = 0;      // ladder transitions toward kNoPrefetch
  uint64_t rung_recoveries = 0;    // transitions back toward kFullNeural
  uint64_t aio_deferrals = 0;      // pins denied on the outstanding-AIO cap
};

class PrefetchGovernor {
 public:
  // `pool` and `io` must outlive the governor; `os_cache` may be nullptr
  // (then the kNoPrefetch rung cannot suppress OS readahead).
  PrefetchGovernor(const GovernorOptions& options, BufferPool* pool,
                   IoScheduler* io, OsPageCache* os_cache);

  // --- Session lifecycle (called by PrefetchSession) ---------------------

  // Registers a live session; higher `priority` survives shedding longer.
  // Returns the session id used by the pin calls below.
  uint64_t RegisterSession(PrefetchSession* session, int priority);
  void UnregisterSession(uint64_t id);

  // --- Pin budget --------------------------------------------------------

  // Requests one speculative pin token at virtual time `now`. May shed
  // outstanding pages from a strictly-lower-priority live session to make
  // room. Returns false when the pin cannot be granted (requester is the
  // lowest priority, or the outstanding-AIO cap is hit) — the session
  // should stop pumping and retry later.
  bool TryAcquirePin(uint64_t session_id, SimTime now);
  // Returns one pin token (page consumed, timed out, shed, or session
  // finished). Exact pairing with successful TryAcquirePin calls is the
  // session's responsibility; PrefetchSession pairs them with its
  // `outstanding_` map entries.
  void ReleasePin(uint64_t session_id);

  // Records one async read issued by a session, completing at `completion`.
  void OnAsyncIssued(SimTime completion);

  // --- Degradation ladder ------------------------------------------------

  // Re-samples the pressure signals at `now`, walks the ladder (with
  // hysteresis) and returns the current rung. Cheap; sessions call it every
  // Pump and the replay loop before every page access. The loop passes the
  // picked query's clock plus the CPU time before the access, so `now` may
  // be earlier than a previous call's.
  DegradationRung Evaluate(SimTime now);
  DegradationRung rung() const { return rung_; }

  // Pressure components, each in [0, 1].
  double PoolPressure(SimTime now) const;
  double AioPressure(SimTime now);

  // --- Introspection -----------------------------------------------------

  size_t pinned_pages() const { return total_pins_; }
  size_t outstanding_aio(SimTime now);
  size_t live_sessions() const { return sessions_.size(); }
  size_t max_pinned_pages() const { return max_pinned_; }
  size_t max_outstanding_aio() const { return max_aio_; }
  const GovernorOptions& options() const { return options_; }
  const GovernorStats& stats() const { return stats_; }

  // Cold environment restart: virtual clocks rewind to 0, so async
  // completions recorded against the old timeline would never prune —
  // drop them. Rung, stats and session registrations are untouched. The
  // dwell anchor rewinds with the clock so per-rung dwell histograms never
  // see a negative (wrapped) duration.
  void OnEnvironmentRestart() {
    aio_completions_ = {};
    rung_since_ = 0;
  }

  // Back to kFullNeural with empty ledgers (environment restart between
  // experiment arms). Live sessions must have been finished first.
  void Reset();

  // Warm-restart support (core/recovery.h): adopt the rung a checkpoint
  // manifest recorded, without counting a degrade/recovery transition —
  // the ladder then relaxes (or tightens) naturally as Evaluate() samples
  // the rebuilt environment's real pressure.
  void RestoreRung(DegradationRung rung) {
    rung_ = rung;
    rung_since_ = 0;
  }

 private:
  struct SessionEntry {
    PrefetchSession* session = nullptr;
    int priority = 0;
    size_t pins = 0;
  };

  // Threshold that admits `rung` (the "above" edge of its band).
  double RungThreshold(DegradationRung rung) const;
  void SetRung(DegradationRung next, SimTime now);
  void PruneAio(SimTime now);

  GovernorOptions options_;
  BufferPool* pool_;
  IoScheduler* io_;
  OsPageCache* os_cache_;
  size_t max_pinned_ = 0;
  size_t max_aio_ = 0;

  uint64_t next_session_id_ = 1;
  std::map<uint64_t, SessionEntry> sessions_;  // ordered: stable iteration
  size_t total_pins_ = 0;

  // Outstanding async completions, min-heap by completion time.
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      aio_completions_;

  DegradationRung rung_ = DegradationRung::kFullNeural;
  // Virtual time the current rung was entered; SetRung records the elapsed
  // dwell into the "overload.rung_dwell.<rung>" histogram on exit.
  SimTime rung_since_ = 0;
  // Those histograms by rung, resolved once at construction.
  Histogram* dwell_[kNumDegradationRungs] = {};
  GovernorStats stats_;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_GOVERNOR_H_
