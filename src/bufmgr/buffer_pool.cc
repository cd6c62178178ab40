#include "bufmgr/buffer_pool.h"

#include <algorithm>
#include <iterator>
#include <string>

#include "util/trace.h"

namespace pythia {

namespace {

// The one field list of the stats struct; the sum and difference below are
// generated from it. Every field is a 64-bit counter, which the
// static_assert turns into a completeness check: a counter missing from the
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

}  // namespace

void AccumulateStats(BufferPoolStats* into, const BufferPoolStats& from) {
  for (uint64_t BufferPoolStats::*field : kPoolStatsFields) {
    into->*field += from.*field;
  }
}

BufferPoolStats SubtractStats(const BufferPoolStats& after,
                              const BufferPoolStats& before) {
  BufferPoolStats delta = after;
  for (uint64_t BufferPoolStats::*field : kPoolStatsFields) {
    delta.*field -= before.*field;
  }
  return delta;
}

BufferPool::BufferPool(const Options& options, OsPageCache* os_cache,
                       const LatencyModel& latency)
    : options_(options),
      os_cache_(os_cache),
      latency_(latency),
      frames_(options.capacity_pages),
      policy_(MakeReplacementPolicy(options.policy, options.capacity_pages)) {
  free_list_.reserve(frames_.size());
  arrivals_.reserve(frames_.size());
  for (size_t i = frames_.size(); i > 0; --i) free_list_.push_back(i - 1);
}

bool BufferPool::Evictable(size_t frame, SimTime now) const {
  const Frame& f = frames_[frame];
  if (!f.valid || f.pin_count > 0) return false;
  if (f.in_flight && f.arrival > now) return false;  // AIO still in progress
  return true;
}

void BufferPool::Track(const Frame& f) {
  if (!f.valid) return;
  if (f.pin_count > 0) {
    ++pinned_;
  } else if (f.in_flight) {
    arrivals_.insert(
        std::upper_bound(arrivals_.begin(), arrivals_.end(), f.arrival),
        f.arrival);
  }
}

void BufferPool::Untrack(const Frame& f) {
  if (!f.valid) return;
  if (f.pin_count > 0) {
    --pinned_;
  } else if (f.in_flight) {
    arrivals_.erase(
        std::lower_bound(arrivals_.begin(), arrivals_.end(), f.arrival));
  }
}

int64_t BufferPool::AllocateFrame(SimTime now) {
  if (!free_list_.empty()) {
    const size_t f = free_list_.back();
    free_list_.pop_back();
    return static_cast<int64_t>(f);
  }
  auto victim = policy_->PickVictim(
      [this, now](size_t frame) { return Evictable(frame, now); });
  if (!victim.has_value()) return -1;
  const size_t f = *victim;
  page_table_.erase(frames_[f].page);
  policy_->OnRemove(f);
  Untrack(frames_[f]);
  frames_[f] = Frame();
  ++stats_.evictions;
  return static_cast<int64_t>(f);
}

Result<FetchResult> BufferPool::FetchPage(PageId page, SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.fetches;
  FetchResult result;
  auto it = page_table_.find(page);
  if (it != page_table_.end()) {
    Frame& f = frames_[it->second];
    const bool waited = f.in_flight && f.arrival > now;
    if (waited) {
      // Block until the async read lands. This is NOT a full hit: the
      // query paid (part of) the device latency, so it is accounted as a
      // prefetch_wait_hit, distinct from buffer_hits/prefetch_hits.
      result.prefetch_wait_us = f.arrival - now;
      stats_.prefetch_wait_us += result.prefetch_wait_us;
      ++stats_.prefetch_wait_hits;
      PYTHIA_TRACE_INSTANT("bufmgr", "prefetch.wait", now, "wait_us",
                           result.prefetch_wait_us, "page", page.page_no);
    }
    Untrack(f);
    f.in_flight = false;
    Track(f);
    result.latency_us = result.prefetch_wait_us + latency_.buffer_hit_us;
    result.source = AccessSource::kBufferHit;
    // First consumption of a prefetched frame gets the prefetch credit
    // (a clean hit or a wait-hit); the flag then clears so repeat hits on
    // the same resident frame are plain buffer hits and cannot inflate
    // useful-prefetch ratios forever.
    result.served_by_prefetch = f.installed_by_prefetch;
    if (f.installed_by_prefetch) {
      if (!waited) ++stats_.prefetch_hits;
      f.installed_by_prefetch = false;
    }
    if (!waited) ++stats_.buffer_hits;
    policy_->OnAccess(it->second);
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
      ++stats_.failed_fetches;
      return Status::IoError("page read failed after " +
                             std::to_string(attempt) +
                             " attempts: " + r.status().message());
    }
    ++stats_.read_retries;
    if (r.status().code() == StatusCode::kDataCorruption) {
      ++stats_.corrupt_retries;
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
    ++stats_.hedged_reads;
    if (os.hedge_won) ++stats_.hedge_wins;
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
    case AccessSource::kOsCache: ++stats_.os_cache_copies; break;
    case AccessSource::kDiskSequential: ++stats_.disk_seq_reads; break;
    case AccessSource::kDiskRandom: ++stats_.disk_random_reads; break;
    case AccessSource::kBufferHit: break;  // unreachable from OS read
  }

  const int64_t frame = AllocateFrame(now);
  if (frame < 0) {
    // Every frame pinned or in flight: serve the read without
    // caching it, like a strategy ring falling back to a one-off read.
    ++stats_.uncached_reads;
    return result;
  }
  Frame& f = frames_[static_cast<size_t>(frame)];
  f.page = page;
  f.valid = true;
  f.in_flight = false;
  f.installed_by_prefetch = false;
  f.pin_count = 0;
  Track(f);
  page_table_[page] = static_cast<size_t>(frame);
  policy_->OnInsert(static_cast<size_t>(frame));
  return result;
}

Status BufferPool::StartPrefetch(PageId page, SimTime completion, bool pin,
                                 SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page);
  if (it != page_table_.end()) {
    // Already buffered: just bump its usage (and pin if requested).
    Frame& f = frames_[it->second];
    if (pin) {
      Untrack(f);
      ++f.pin_count;
      Track(f);
    }
    policy_->OnAccess(it->second);
    return Status::OK();
  }
  const int64_t frame = AllocateFrame(now);
  if (frame < 0) {
    ++stats_.prefetches_rejected;
    return Status::ResourceExhausted("buffer pool full: prefetch skipped");
  }
  Frame& f = frames_[static_cast<size_t>(frame)];
  f.page = page;
  f.valid = true;
  f.in_flight = true;
  f.installed_by_prefetch = true;
  f.pin_count = pin ? 1 : 0;
  f.arrival = completion;
  Track(f);
  page_table_[page] = static_cast<size_t>(frame);
  policy_->OnInsert(static_cast<size_t>(frame));
  ++stats_.prefetches_started;
  return Status::OK();
}

void BufferPool::Pin(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page);
  if (it == page_table_.end()) return;
  Frame& f = frames_[it->second];
  Untrack(f);
  ++f.pin_count;
  Track(f);
}

void BufferPool::Unpin(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page);
  if (it == page_table_.end()) return;
  Frame& f = frames_[it->second];
  if (f.pin_count == 0) return;
  Untrack(f);
  --f.pin_count;
  Track(f);
}

bool BufferPool::Contains(PageId page) const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_table_.count(page) > 0;
}

bool BufferPool::IsPinned(PageId page) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page);
  return it != page_table_.end() &&
         frames_[it->second].pin_count > 0;
}

bool BufferPool::IsInFlight(PageId page, SimTime now) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page);
  if (it == page_table_.end()) return false;
  const Frame& f = frames_[it->second];
  return f.in_flight && f.arrival > now;
}

size_t BufferPool::used_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_table_.size();
}

size_t BufferPool::pinned_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Frame& f : frames_) {
    if (f.valid && f.pin_count > 0) ++n;
  }
  return n;
}

double BufferPool::UnevictablePressure(SimTime now) const {
  if (options_.capacity_pages == 0) return 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  const size_t in_flight = static_cast<size_t>(
      arrivals_.end() -
      std::upper_bound(arrivals_.begin(), arrivals_.end(), now));
  return static_cast<double>(pinned_ + in_flight) /
         static_cast<double>(options_.capacity_pages);
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BufferPool::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = BufferPoolStats();
}

void BufferPool::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Frame& f : frames_) f = Frame();
  pinned_ = 0;
  arrivals_.clear();
  page_table_.clear();
  free_list_.clear();
  for (size_t i = frames_.size(); i > 0; --i) free_list_.push_back(i - 1);
  // The whole point of the restart protocol: a Reset pool and a fresh pool
  // must be indistinguishable, which includes the replacement policy's
  // internal sweep state (the Clock hand).
  policy_->Reset();
}

}  // namespace pythia
