#include "core/governor.h"

#include <algorithm>

#include "core/prefetcher.h"
#include "util/trace.h"

namespace pythia {

namespace {

// Per-channel I/O backlog (virtual µs of queued work) that counts as AIO
// pressure 1.0 on its own.
constexpr double kAioBacklogFullUs = 50000.0;

// Recovery margin: stepping one rung back toward full service requires
// pressure < (that rung's threshold - kHysteresis).
constexpr double kHysteresis = 0.10;

// Ladder rung at (and past) which hedged reads are suppressed. A hedge
// doubles the device work of the read it covers, which is the wrong trade
// under systemic overload: the tail is then queueing, not a gray channel,
// and hedges would feed the queue. Hedging survives the first (cache-only)
// degradation rung but is shed with learned prefetch.
constexpr DegradationRung kSuppressHedgingAt = DegradationRung::kReadahead;

}  // namespace

const char* DegradationRungName(DegradationRung rung) {
  switch (rung) {
    case DegradationRung::kFullNeural: return "full-neural";
    case DegradationRung::kCachedOnly: return "cached-only";
    case DegradationRung::kReadahead: return "readahead";
    case DegradationRung::kNoPrefetch: return "no-prefetch";
  }
  return "unknown";
}

PrefetchGovernor::PrefetchGovernor(const GovernorOptions& options,
                                   BufferPool* pool, IoScheduler* io,
                                   OsPageCache* os_cache)
    : options_(options), pool_(pool), io_(io), os_cache_(os_cache) {
  max_pinned_ = options.max_pinned_pages > 0
                    ? options.max_pinned_pages
                    : PrefetchPinHeadroom(pool_->capacity());
  if (max_pinned_ == 0) max_pinned_ = 1;
  max_aio_ = options.max_outstanding_aio > 0 ? options.max_outstanding_aio
                                             : io_->num_channels() * 4;
}

uint64_t PrefetchGovernor::RegisterSession(PrefetchSession* session,
                                           int priority) {
  const uint64_t id = next_session_id_++;
  sessions_[id] = SessionEntry{session, priority, 0};
  return id;
}

void PrefetchGovernor::UnregisterSession(uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  // The session is expected to have released its pins via ReleasePin (its
  // Finish() unpins everything); reclaim stragglers defensively so the
  // budget can never leak.
  total_pins_ -= std::min(total_pins_, it->second.pins);
  sessions_.erase(it);
}

bool PrefetchGovernor::TryAcquirePin(uint64_t session_id, SimTime now) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return false;

  // Too much speculative I/O already in flight: defer rather than shed —
  // the channels are the bottleneck, not the pins, and shedding pinned
  // pages would not free a channel.
  if (outstanding_aio(now) >= max_aio_) {
    ++stats_.aio_deferrals;
    return false;
  }

  if (total_pins_ >= max_pinned_) {
    // Saturated: shed the oldest outstanding page of the lowest-priority
    // session that holds pins and ranks strictly below the requester.
    SessionEntry* victim = nullptr;
    for (auto& [id, entry] : sessions_) {
      if (entry.pins == 0 || entry.priority >= it->second.priority) continue;
      if (victim == nullptr || entry.priority < victim->priority) {
        victim = &entry;
      }
    }
    if (victim == nullptr) {
      ++stats_.pin_denials;
      PYTHIA_TRACE_INSTANT("overload", "pin.deny", now, "pins",
                           static_cast<uint64_t>(total_pins_));
      return false;
    }
    const size_t shed = victim->session->ShedForGovernor(1, now);
    if (shed == 0) {
      // Accounting mismatch (should not happen): treat as a denial.
      ++stats_.pin_denials;
      return false;
    }
    victim->pins -= std::min(victim->pins, shed);
    total_pins_ -= std::min(total_pins_, shed);
    ++stats_.shed_events;
    stats_.pages_shed += shed;
    PYTHIA_TRACE_INSTANT("overload", "shed", now, "pages",
                         static_cast<uint64_t>(shed), "victim_prio",
                         static_cast<uint64_t>(victim->priority));
  }

  ++it->second.pins;
  ++total_pins_;
  ++stats_.pin_grants;
  return true;
}

void PrefetchGovernor::ReleasePin(uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  if (it->second.pins > 0) --it->second.pins;
  if (total_pins_ > 0) --total_pins_;
}

void PrefetchGovernor::OnAsyncIssued(SimTime completion) {
  aio_completions_.push(completion);
}

void PrefetchGovernor::PruneAio(SimTime now) {
  while (!aio_completions_.empty() && aio_completions_.top() <= now) {
    aio_completions_.pop();
  }
}

size_t PrefetchGovernor::outstanding_aio(SimTime now) {
  PruneAio(now);
  return aio_completions_.size();
}

double PrefetchGovernor::PoolPressure(SimTime now) const {
  const double budget = static_cast<double>(total_pins_) /
                        static_cast<double>(max_pinned_);
  // Unevictable fraction of the pool's capacity: pinned frames plus
  // prefetches still in flight at `now`, whoever holds them.
  const double pool = pool_->UnevictablePressure(now);
  return std::min(1.0, std::max(budget, pool));
}

double PrefetchGovernor::AioPressure(SimTime now) {
  const double count = static_cast<double>(outstanding_aio(now)) /
                       static_cast<double>(max_aio_);
  const double full =
      static_cast<double>(io_->num_channels()) * kAioBacklogFullUs;
  const double backlog =
      full <= 0.0 ? 0.0
                  : static_cast<double>(io_->QueueBacklogUs(now)) / full;
  return std::min(1.0, std::max(count, backlog));
}

double PrefetchGovernor::RungThreshold(DegradationRung rung) const {
  switch (rung) {
    case DegradationRung::kFullNeural: return 0.0;
    case DegradationRung::kCachedOnly: return options_.cached_only_above;
    case DegradationRung::kReadahead: return options_.readahead_above;
    case DegradationRung::kNoPrefetch: return options_.no_prefetch_above;
  }
  return 0.0;
}

void PrefetchGovernor::SetRung(DegradationRung next, SimTime now) {
  if (next == rung_) return;
  if (static_cast<int>(next) > static_cast<int>(rung_)) {
    ++stats_.rung_degrades;
  } else {
    ++stats_.rung_recoveries;
  }
  rung_ = next;
  // The last rung sheds even the kernel's speculation: OS readahead is
  // suppressed system-wide until the ladder climbs back up. Hedged reads
  // are shed earlier (kSuppressHedgingAt): under systemic overload a
  // hedge is extra device work feeding the very queue that is the problem.
  if (os_cache_ != nullptr) {
    os_cache_->set_readahead_suppressed(rung_ ==
                                        DegradationRung::kNoPrefetch);
    os_cache_->set_hedging_suppressed(
        static_cast<int>(rung_) >=
        static_cast<int>(kSuppressHedgingAt));
  }
  PYTHIA_TRACE_INSTANT("overload", "rung", now, "to",
                       static_cast<uint64_t>(static_cast<int>(rung_)));
}

DegradationRung PrefetchGovernor::Evaluate(SimTime now) {
  const double p = std::max(PoolPressure(now), AioPressure(now));
  DegradationRung raw = DegradationRung::kFullNeural;
  if (p >= options_.no_prefetch_above) {
    raw = DegradationRung::kNoPrefetch;
  } else if (p >= options_.readahead_above) {
    raw = DegradationRung::kReadahead;
  } else if (p >= options_.cached_only_above) {
    raw = DegradationRung::kCachedOnly;
  }
  if (static_cast<int>(raw) > static_cast<int>(rung_)) {
    // Degrade immediately — overload must never wait for hysteresis.
    SetRung(raw, now);
  } else if (static_cast<int>(raw) < static_cast<int>(rung_) &&
             p < RungThreshold(rung_) - kHysteresis) {
    // Recover one rung at a time, and only once pressure has fallen well
    // clear of the edge that got us here, so the ladder cannot flap.
    SetRung(static_cast<DegradationRung>(static_cast<int>(rung_) - 1), now);
  }
  return rung_;
}

void PrefetchGovernor::Reset() {
  sessions_.clear();
  total_pins_ = 0;
  aio_completions_ = {};
  if (rung_ != DegradationRung::kFullNeural && os_cache_ != nullptr) {
    os_cache_->set_readahead_suppressed(false);
    os_cache_->set_hedging_suppressed(false);
  }
  rung_ = DegradationRung::kFullNeural;
  stats_ = GovernorStats();
}

}  // namespace pythia
