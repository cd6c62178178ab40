// Simulated OS page cache with Linux-style sequential readahead, striped
// into independent channels.
//
// Postgres "relies heavily on OS readahead" (Section 4): a sequential scan's
// page reads mostly hit the OS cache because the kernel detects the pattern
// and reads ahead. The Pythia prefetcher also exploits this by issuing its
// prefetches in file-offset order, so runs of adjacent predicted pages cost
// one seek plus cheap follow-on reads. This class reproduces both effects.
//
// Channel striping: the LRU, page map, readahead run state, fault injector,
// device, and counters are partitioned into `num_channels` independent
// channels, each behind its own mutex, so concurrent reads against
// different objects never serialize on one cache lock, and each channel is
// one storage channel for fault injection, health scoring and hedging.
// Channels are keyed by OBJECT id hash, deliberately not PageId hash:
// sequential-pattern detection tracks the last page read *per object*, and
// scattering adjacent pages of one file across channels would make every
// scan look random and destroy the readahead latency economics. All of one
// object's pages — and therefore one scan's entire run state — live on one
// channel. `num_channels = 1` (the default) is the historical single-lock
// cache, bit-identical on every seed bench; counter accessors sum over
// channels in index order so aggregates stay deterministic at any width.
// Fault injectors and devices attach one way, per channel
// (set_channel_fault_injector, set_channel_disk): SimEnvironment
// (core/replay.h) builds one of each per channel, whatever the width.
#ifndef PYTHIA_STORAGE_OS_CACHE_H_
#define PYTHIA_STORAGE_OS_CACHE_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/channel_health.h"
#include "storage/fault_injector.h"
#include "storage/latency_model.h"
#include "storage/page_id.h"
#include "storage/sim_disk.h"
#include "util/hash.h"
#include "util/status.h"

namespace pythia {

struct OsReadResult {
  SimTime latency_us = 0;
  AccessSource source = AccessSource::kDiskRandom;
  // --- Hedged-read outcome (zeros unless a hedge was issued) -------------
  // With a ChannelHealthTracker attached, a hedge-eligible device read whose
  // latency exceeds its channel's adaptive deadline issues one hedge to the
  // healthiest other channel; the first completion wins and latency_us is
  // min(primary, deadline + hedge service time).
  bool hedged = false;
  bool hedge_won = false;          // the hedge beat the primary
  SimTime primary_latency_us = 0;  // what the primary channel charged
  SimTime hedge_deadline_us = 0;   // deadline that triggered the hedge
  SimTime hedge_latency_us = 0;    // hedge's own device time on the target
  size_t hedge_channel = 0;        // channel the hedge was sent to
};

class OsPageCache {
 public:
  struct Options {
    size_t capacity_pages = 1 << 16;
    // Pages pulled into the cache ahead of a detected sequential read.
    uint32_t readahead_pages = 32;
    // Independent lock-striped channels keyed by object id hash (see file
    // comment for why not PageId hash). 1 is the historical single-lock
    // cache; 0 is treated as 1. Capacity splits round-robin by index.
    size_t num_channels = 1;
  };

  OsPageCache(const Options& options, const LatencyModel& latency);

  // Reads one page through the OS: returns the latency and where it was
  // served from, updating the owning channel's contents and per-object
  // readahead state. Fallible: with a fault injector attached, a disk read
  // (never a cache hit) may fail with IoError or absorb a tail-latency
  // spike; with a SimulatedDisk attached, the returned image is
  // checksum-verified and a corrupt one fails with DataCorruption instead
  // of being cached. A failed read leaves the cache contents untouched —
  // the data never arrived (or was discarded as unverifiable) — but the
  // head movement still updates the readahead run state.
  // With a health tracker attached, every successful device read feeds the
  // owning channel's latency distribution; a `hedge_eligible` read (the
  // foreground/demand path — speculative prefetch passes false, it has a
  // cheaper remedy: drop the page) that exceeds its channel's adaptive
  // deadline additionally issues one budget-capped hedge to the healthiest
  // other channel, and the returned latency is whichever completed first.
  // Thread-safe: takes only the owning channel's mutex (the tracker's
  // cross-channel reads are lock-free atomics).
  Result<OsReadResult> Read(PageId page, bool hedge_eligible = true);

  // Attaches the fault injector consulted on every disk read of `channel`.
  // May be nullptr (the default): that channel's reads are then
  // infallible. Not owned; must outlive the cache or be detached first.
  // FaultInjector is not itself thread-safe, so each channel gets its own
  // and the channel mutex serializes its stream.
  void set_channel_fault_injector(size_t channel, FaultInjector* injector);
  FaultInjector* channel_fault_injector(size_t channel) const {
    return channels_[channel]->injector;
  }

  // Foreground-retry backoff for a failed read of `page`, drawn from the
  // owning channel's injector stream under the channel mutex (so
  // multi-threaded retries never race on the backoff RNG). 0 when that
  // channel has no injector.
  SimTime RetryBackoff(PageId page, const RetryPolicy& policy,
                       uint32_t attempt);

  // Attaches the device with real page images to `channel`. May be nullptr
  // (the default): that channel's reads are then latency-only and never
  // corrupt. Not owned. With a disk attached, every image entering the
  // channel — demand reads and kernel readahead alike — is verified first,
  // so the cache can only ever serve verified pages. SimulatedDisk mutates
  // its own stats on reads, so each channel gets its own disk (same content
  // seed ⇒ identical images).
  void set_channel_disk(size_t channel, SimulatedDisk* disk);
  SimulatedDisk* channel_disk(size_t channel) const {
    return channels_[channel]->disk;
  }

  // Drops all cached pages and readahead state on every channel — `echo 3 >
  // /proc/sys/vm/drop_caches` between experiment runs.
  void DropCaches();

  // Overload governor hook (kNoPrefetch rung): while suppressed, a
  // sequential read charges its device time but pulls nothing ahead into
  // the cache — strictly demand I/O. Run state keeps updating so readahead
  // resumes seamlessly when the ladder recovers.
  void set_readahead_suppressed(bool suppressed) {
    readahead_suppressed_.store(suppressed, std::memory_order_relaxed);
  }
  bool readahead_suppressed() const {
    return readahead_suppressed_.load(std::memory_order_relaxed);
  }

  // Attaches the per-channel gray-failure tracker (see Read). Not owned;
  // may be nullptr (no health tracking, no hedging — the default). Should
  // be sized to num_channels(); a narrower tracker folds channels together.
  void set_health_tracker(ChannelHealthTracker* health) { health_ = health; }

  // Governor hook mirroring set_readahead_suppressed: while suppressed no
  // new hedges are issued (forwarded to the tracker; no-op without one).
  void set_hedging_suppressed(bool suppressed) {
    if (health_ != nullptr) health_->set_hedging_suppressed(suppressed);
  }

  bool Contains(PageId page) const;
  size_t cached_pages() const;

  size_t num_channels() const { return channels_.size(); }
  // Which channel owns `page` — a pure function of its OBJECT id.
  size_t ChannelOf(PageId page) const {
    if (channels_.size() == 1) return 0;
    return static_cast<size_t>(SplitMix64(page.object_id) % channels_.size());
  }

  // Cumulative counters for tests/diagnostics, summed over channels in
  // channel index order.
  uint64_t hits() const;
  uint64_t sequential_reads() const;
  uint64_t random_reads() const;
  uint64_t failed_reads() const;
  uint64_t corrupt_reads() const;
  uint64_t readahead_dropped_corrupt() const;

 private:
  struct Channel {
    mutable std::mutex mu;
    size_t capacity = 0;
    FaultInjector* injector = nullptr;
    SimulatedDisk* disk = nullptr;

    // LRU: most recent at front.
    std::list<PageId> lru;
    std::unordered_map<PageId, std::list<PageId>::iterator> map;
    // Last page read per object, for sequential-pattern detection. Every
    // page of an object maps to this channel, so the run state is complete.
    std::unordered_map<ObjectId, uint32_t> last_page;

    uint64_t hits = 0;
    uint64_t sequential_reads = 0;
    uint64_t random_reads = 0;
    uint64_t failed_reads = 0;
    uint64_t corrupt_reads = 0;             // demand reads failing verify
    uint64_t readahead_dropped_corrupt = 0; // readahead pages not cached
  };

  // Caller holds the channel mutex.
  static void Insert(Channel* ch, PageId page);
  static void Touch(Channel* ch, PageId page);

  Options options_;
  LatencyModel latency_;
  std::atomic<bool> readahead_suppressed_{false};
  ChannelHealthTracker* health_ = nullptr;
  std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace pythia

#endif  // PYTHIA_STORAGE_OS_CACHE_H_
