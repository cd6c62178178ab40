#include "bufmgr/buffer_pool.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <string>

#include "util/trace.h"

namespace pythia {

namespace {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The one field list of each stats struct; the sums and differences below
// are generated from it. Every field is a 64-bit counter, which the
// static_asserts turn into a completeness check: a counter missing from its
// list fails the build.
constexpr uint64_t BufferPoolStats::*kPoolStatsFields[] = {
    &BufferPoolStats::fetches,           &BufferPoolStats::buffer_hits,
    &BufferPoolStats::prefetch_hits,     &BufferPoolStats::prefetch_wait_hits,
    &BufferPoolStats::os_cache_copies,   &BufferPoolStats::disk_seq_reads,
    &BufferPoolStats::disk_random_reads, &BufferPoolStats::evictions,
    &BufferPoolStats::uncached_reads,    &BufferPoolStats::prefetches_started,
    &BufferPoolStats::prefetches_rejected,
    &BufferPoolStats::prefetch_wait_us,  &BufferPoolStats::read_retries,
    &BufferPoolStats::corrupt_retries,   &BufferPoolStats::failed_fetches,
    &BufferPoolStats::hedged_reads,      &BufferPoolStats::hedge_wins,
};
static_assert(std::size(kPoolStatsFields) * sizeof(uint64_t) ==
              sizeof(BufferPoolStats));

constexpr uint64_t BufferPoolLockStats::*kLockStatsFields[] = {
    &BufferPoolLockStats::acquisitions,
    &BufferPoolLockStats::contended,
    &BufferPoolLockStats::wait_ns,
    &BufferPoolLockStats::hold_ns,
};
static_assert(std::size(kLockStatsFields) * sizeof(uint64_t) ==
              sizeof(BufferPoolLockStats));

template <typename Stats, size_t N>
void AddFields(Stats* into, const Stats& from,
               uint64_t Stats::*const (&fields)[N]) {
  for (uint64_t Stats::*field : fields) into->*field += from.*field;
}

template <typename Stats, size_t N>
Stats SubtractFields(Stats after, const Stats& before,
                     uint64_t Stats::*const (&fields)[N]) {
  for (uint64_t Stats::*field : fields) after.*field -= before.*field;
  return after;
}

}  // namespace

void AccumulateStats(BufferPoolStats* into, const BufferPoolStats& from) {
  AddFields(into, from, kPoolStatsFields);
}

BufferPoolStats SubtractStats(const BufferPoolStats& after,
                              const BufferPoolStats& before) {
  return SubtractFields(after, before, kPoolStatsFields);
}

void AccumulateStats(BufferPoolLockStats* into,
                     const BufferPoolLockStats& from) {
  AddFields(into, from, kLockStatsFields);
}

BufferPoolLockStats SubtractStats(const BufferPoolLockStats& after,
                                  const BufferPoolLockStats& before) {
  return SubtractFields(after, before, kLockStatsFields);
}

BufferPool::Guard::Guard(const BufferPool* pool, Shard* shard, bool profile)
    : shard_(shard), profiled_(profile && pool->options_.profile_locks) {
  if (!profiled_) {
    shard_->mu.lock();
    return;
  }
  uint64_t wait_ns = 0;
  bool contended = false;
  if (!shard_->mu.try_lock()) {
    contended = true;
    const uint64_t wait_start = NowNs();
    shard_->mu.lock();
    wait_ns = NowNs() - wait_start;
  }
  // Under the lock now: safe to touch the shard's counters.
  ++shard_->lock.acquisitions;
  if (contended) {
    ++shard_->lock.contended;
    shard_->lock.wait_ns += wait_ns;
    PYTHIA_TRACE_INSTANT_CTX("bufmgr", "lock.contended", "wait_ns", wait_ns);
  }
  hold_start_ns_ = NowNs();
}

BufferPool::Guard::~Guard() {
  if (profiled_) shard_->lock.hold_ns += NowNs() - hold_start_ns_;
  shard_->mu.unlock();
}

BufferPool::BufferPool(const Options& options, OsPageCache* os_cache,
                       const LatencyModel& latency)
    : options_(options), os_cache_(os_cache), latency_(latency) {
  const size_t n = options.num_shards == 0 ? 1 : options.num_shards;
  options_.num_shards = n;
  shards_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    auto shard = std::make_unique<Shard>();
    // Round-robin capacity split: shard s of N owns ceil-or-floor(C/N)
    // frames, lower indices taking the remainder.
    const size_t cap = options.capacity_pages / n +
                       (s < options.capacity_pages % n ? 1 : 0);
    shard->frames.resize(cap);
    shard->free_list.reserve(cap);
    shard->arrivals.reserve(cap);
    for (size_t i = cap; i > 0; --i) shard->free_list.push_back(i - 1);
    shard->policy = MakeReplacementPolicy(options.policy, cap);
    shards_.push_back(std::move(shard));
  }
}

bool BufferPool::Evictable(const Shard& shard, size_t frame, SimTime now) {
  const Frame& f = shard.frames[frame];
  if (!f.valid || f.pin_count > 0) return false;
  if (f.in_flight && f.arrival > now) return false;  // AIO still in progress
  return true;
}

void BufferPool::Track(Shard* shard, const Frame& f) {
  if (!f.valid) return;
  if (f.pin_count > 0) {
    ++shard->pinned;
  } else if (f.in_flight) {
    std::vector<SimTime>& a = shard->arrivals;
    a.insert(std::upper_bound(a.begin(), a.end(), f.arrival), f.arrival);
  }
}

void BufferPool::Untrack(Shard* shard, const Frame& f) {
  if (!f.valid) return;
  if (f.pin_count > 0) {
    --shard->pinned;
  } else if (f.in_flight) {
    std::vector<SimTime>& a = shard->arrivals;
    a.erase(std::lower_bound(a.begin(), a.end(), f.arrival));
  }
}

int64_t BufferPool::AllocateFrame(Shard* shard, SimTime now) {
  if (!shard->free_list.empty()) {
    const size_t f = shard->free_list.back();
    shard->free_list.pop_back();
    return static_cast<int64_t>(f);
  }
  auto victim = shard->policy->PickVictim([shard, now](size_t frame) {
    return Evictable(*shard, frame, now);
  });
  if (!victim.has_value()) return -1;
  const size_t f = *victim;
  shard->page_table.erase(shard->frames[f].page);
  shard->policy->OnRemove(f);
  Untrack(shard, shard->frames[f]);
  shard->frames[f] = Frame();
  ++shard->stats.evictions;
  return static_cast<int64_t>(f);
}

Result<FetchResult> BufferPool::FetchPage(PageId page, SimTime now) {
  Shard& shard = *shards_[ShardOf(page)];
  Guard guard(this, &shard);
  ++shard.stats.fetches;
  FetchResult result;
  auto it = shard.page_table.find(page);
  if (it != shard.page_table.end()) {
    Frame& f = shard.frames[it->second];
    const bool waited = f.in_flight && f.arrival > now;
    if (waited) {
      // Block until the async read lands. This is NOT a full hit: the
      // query paid (part of) the device latency, so it is accounted as a
      // prefetch_wait_hit, distinct from buffer_hits/prefetch_hits.
      result.prefetch_wait_us = f.arrival - now;
      shard.stats.prefetch_wait_us += result.prefetch_wait_us;
      ++shard.stats.prefetch_wait_hits;
      PYTHIA_TRACE_INSTANT("bufmgr", "prefetch.wait", now, "wait_us",
                           result.prefetch_wait_us, "page", page.page_no);
    }
    Untrack(&shard, f);
    f.in_flight = false;
    Track(&shard, f);
    result.latency_us = result.prefetch_wait_us + latency_.buffer_hit_us;
    result.source = AccessSource::kBufferHit;
    // First consumption of a prefetched frame gets the prefetch credit
    // (a clean hit or a wait-hit); the flag then clears so repeat hits on
    // the same resident frame are plain buffer hits and cannot inflate
    // useful-prefetch ratios forever.
    result.served_by_prefetch = f.installed_by_prefetch;
    if (f.installed_by_prefetch) {
      if (!waited) ++shard.stats.prefetch_hits;
      f.installed_by_prefetch = false;
    }
    if (!waited) ++shard.stats.buffer_hits;
    shard.policy->OnAccess(it->second);
    return result;
  }

  // Miss: read through the OS. This is the foreground path — the query
  // itself is blocked on the page — so transient errors are retried with
  // capped exponential backoff + jitter rather than surfaced immediately.
  // Each failed attempt costs the full random-read device time (the seek
  // happened, then the device errored) plus the backoff, in virtual time.
  OsReadResult os;
  SimTime retry_penalty_us = 0;
  for (uint32_t attempt = 1;; ++attempt) {
    Result<OsReadResult> r = os_cache_->Read(page);
    if (r.ok()) {
      os = *r;
      break;
    }
    if (attempt >= options_.retry.max_attempts) {
      ++shard.stats.failed_fetches;
      return Status::IoError("page read failed after " +
                             std::to_string(attempt) +
                             " attempts: " + r.status().message());
    }
    ++shard.stats.read_retries;
    if (r.status().code() == StatusCode::kDataCorruption) {
      ++shard.stats.corrupt_retries;
    }
    PYTHIA_TRACE_INSTANT("bufmgr", "read.retry", now, "attempt", attempt,
                         "page", page.page_no);
    ++result.retries;
    retry_penalty_us += latency_.disk_random_read_us;
    // Backoff jitter comes from the owning storage channel's injector
    // stream, drawn under that channel's mutex (FaultInjector itself is not
    // thread-safe).
    retry_penalty_us += os_cache_->RetryBackoff(page, options_.retry, attempt);
  }
  result.latency_us = retry_penalty_us + os.latency_us;
  result.source = os.source;
  if (os.hedged) {
    result.hedged = true;
    result.hedge_won = os.hedge_won;
    ++shard.stats.hedged_reads;
    if (os.hedge_won) ++shard.stats.hedge_wins;
    // The hedge gets its own span on the async I/O lane: it starts when the
    // primary blew its deadline and runs for its own device service time,
    // so a trace shows the overlap with the still-outstanding primary.
    PYTHIA_TRACE_IO_SPAN("io", "hedge", now + os.hedge_deadline_us,
                         now + os.hedge_deadline_us + os.hedge_latency_us,
                         "channel", os.hedge_channel, "won", os.hedge_won);
  }
  // One span per demand miss that reached the device, on the executor lane:
  // the query is blocked from `now` for the whole retry + read latency.
  // OS-cache copies are deliberately not recorded — they are the hot
  // majority on scan-heavy replays and each is a ~memcpy; tracing them
  // would cost more than they take.
  if (os.source != AccessSource::kOsCache) {
    PYTHIA_TRACE_SPAN("bufmgr", "fetch.miss", now, now + result.latency_us,
                      "obj", page.object_id, "page", page.page_no);
  }
  switch (os.source) {
    case AccessSource::kOsCache: ++shard.stats.os_cache_copies; break;
    case AccessSource::kDiskSequential: ++shard.stats.disk_seq_reads; break;
    case AccessSource::kDiskRandom: ++shard.stats.disk_random_reads; break;
    case AccessSource::kBufferHit: break;  // unreachable from OS read
  }

  const int64_t frame = AllocateFrame(&shard, now);
  if (frame < 0) {
    // Every frame of this shard pinned or in flight: serve the read without
    // caching it, like a strategy ring falling back to a one-off read.
    ++shard.stats.uncached_reads;
    return result;
  }
  Frame& f = shard.frames[static_cast<size_t>(frame)];
  f.page = page;
  f.valid = true;
  f.in_flight = false;
  f.installed_by_prefetch = false;
  f.pin_count = 0;
  Track(&shard, f);
  shard.page_table[page] = static_cast<size_t>(frame);
  shard.policy->OnInsert(static_cast<size_t>(frame));
  return result;
}

Status BufferPool::StartPrefetch(PageId page, SimTime completion, bool pin,
                                 SimTime now) {
  Shard& shard = *shards_[ShardOf(page)];
  Guard guard(this, &shard);
  auto it = shard.page_table.find(page);
  if (it != shard.page_table.end()) {
    // Already buffered: just bump its usage (and pin if requested).
    Frame& f = shard.frames[it->second];
    if (pin) {
      Untrack(&shard, f);
      ++f.pin_count;
      Track(&shard, f);
    }
    shard.policy->OnAccess(it->second);
    return Status::OK();
  }
  const int64_t frame = AllocateFrame(&shard, now);
  if (frame < 0) {
    ++shard.stats.prefetches_rejected;
    return Status::ResourceExhausted("buffer pool full: prefetch skipped");
  }
  Frame& f = shard.frames[static_cast<size_t>(frame)];
  f.page = page;
  f.valid = true;
  f.in_flight = true;
  f.installed_by_prefetch = true;
  f.pin_count = pin ? 1 : 0;
  f.arrival = completion;
  Track(&shard, f);
  shard.page_table[page] = static_cast<size_t>(frame);
  shard.policy->OnInsert(static_cast<size_t>(frame));
  ++shard.stats.prefetches_started;
  return Status::OK();
}

void BufferPool::Pin(PageId page) {
  Shard& shard = *shards_[ShardOf(page)];
  Guard guard(this, &shard);
  auto it = shard.page_table.find(page);
  if (it == shard.page_table.end()) return;
  Frame& f = shard.frames[it->second];
  Untrack(&shard, f);
  ++f.pin_count;
  Track(&shard, f);
}

void BufferPool::Unpin(PageId page) {
  Shard& shard = *shards_[ShardOf(page)];
  Guard guard(this, &shard);
  auto it = shard.page_table.find(page);
  if (it == shard.page_table.end()) return;
  Frame& f = shard.frames[it->second];
  if (f.pin_count == 0) return;
  Untrack(&shard, f);
  --f.pin_count;
  Track(&shard, f);
}

bool BufferPool::Contains(PageId page) const {
  const Shard& shard = *shards_[ShardOf(page)];
  Guard guard(this, const_cast<Shard*>(&shard));
  return shard.page_table.count(page) > 0;
}

bool BufferPool::IsPinned(PageId page) const {
  const Shard& shard = *shards_[ShardOf(page)];
  Guard guard(this, const_cast<Shard*>(&shard));
  auto it = shard.page_table.find(page);
  return it != shard.page_table.end() &&
         shard.frames[it->second].pin_count > 0;
}

bool BufferPool::IsInFlight(PageId page, SimTime now) const {
  const Shard& shard = *shards_[ShardOf(page)];
  Guard guard(this, const_cast<Shard*>(&shard));
  auto it = shard.page_table.find(page);
  if (it == shard.page_table.end()) return false;
  const Frame& f = shard.frames[it->second];
  return f.in_flight && f.arrival > now;
}

size_t BufferPool::used_frames() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    Guard guard(this, shard.get(), /*profile=*/false);
    n += shard->page_table.size();
  }
  return n;
}

size_t BufferPool::pinned_frames() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    Guard guard(this, shard.get(), /*profile=*/false);
    for (const Frame& f : shard->frames) {
      if (f.valid && f.pin_count > 0) ++n;
    }
  }
  return n;
}

double BufferPool::UnevictablePressure(SimTime now) const {
  if (options_.capacity_pages == 0) return 0.0;
  size_t n = 0;
  for (const auto& shard : shards_) {
    Guard guard(this, shard.get(), /*profile=*/false);
    const std::vector<SimTime>& a = shard->arrivals;
    n += shard->pinned;
    n += static_cast<size_t>(a.end() -
                             std::upper_bound(a.begin(), a.end(), now));
  }
  return static_cast<double>(n) / static_cast<double>(options_.capacity_pages);
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const auto& shard : shards_) {
    Guard guard(this, shard.get(), /*profile=*/false);
    AccumulateStats(&total, shard->stats);
  }
  return total;
}

void BufferPool::ResetStats() {
  for (const auto& shard : shards_) {
    Guard guard(this, shard.get(), /*profile=*/false);
    shard->stats = BufferPoolStats();
    shard->lock = BufferPoolLockStats();
  }
}

BufferPoolLockStats BufferPool::lock_stats() const {
  BufferPoolLockStats total;
  for (const auto& shard : shards_) {
    Guard guard(this, shard.get(), /*profile=*/false);
    AccumulateStats(&total, shard->lock);
  }
  return total;
}

void BufferPool::Reset() {
  for (const auto& shard : shards_) {
    Guard guard(this, shard.get(), /*profile=*/false);
    for (Frame& f : shard->frames) f = Frame();
    shard->pinned = 0;
    shard->arrivals.clear();
    shard->page_table.clear();
    shard->free_list.clear();
    for (size_t i = shard->frames.size(); i > 0; --i) {
      shard->free_list.push_back(i - 1);
    }
    // The whole point of the restart protocol: a Reset pool and a fresh
    // pool must be indistinguishable, which includes the replacement
    // policy's internal sweep state (the Clock hand).
    shard->policy->Reset();
  }
}

}  // namespace pythia
