#include "core/prefetcher.h"

#include <algorithm>

#include "core/channel_breaker.h"
#include "core/governor.h"
#include "util/trace.h"

namespace pythia {

PrefetchSession::PrefetchSession(std::vector<PageId> pages,
                                 const PrefetcherOptions& options,
                                 BufferPool* pool, OsPageCache* os_cache,
                                 IoScheduler* io,
                                 const LatencyModel& latency)
    : queue_(std::move(pages)),
      options_(options),
      pool_(pool),
      os_cache_(os_cache),
      io_(io),
      latency_(latency) {
  if (options_.order == PrefetchOrder::kFileOffset) {
    std::sort(queue_.begin(), queue_.end());
    queue_.erase(std::unique(queue_.begin(), queue_.end()), queue_.end());
  }
  budget_ = options_.max_prefetch_pages > 0
                ? options_.max_prefetch_pages
                : PrefetchPinHeadroom(pool_->capacity());
  if (queue_.size() > budget_) {
    stats_.skipped_budget = queue_.size() - budget_;
    queue_.resize(budget_);
  }
  if (options_.governor != nullptr) {
    governor_id_ =
        options_.governor->RegisterSession(this, options_.priority);
  }
}

void PrefetchSession::ExpireTimedOut(SimTime now) {
  if (options_.prefetch_timeout_us == 0) return;
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    if (now > it->second &&
        now - it->second > options_.prefetch_timeout_us) {
      pool_->Unpin(it->first);
      if (options_.governor != nullptr) {
        options_.governor->ReleasePin(governor_id_);
      }
      ++stats_.timed_out;
      PYTHIA_TRACE_INSTANT("prefetch", "timeout", now, "obj",
                           it->first.object_id, "page", it->first.page_no);
      it = outstanding_.erase(it);
    } else {
      ++it;
    }
  }
}

void PrefetchSession::Pump(SimTime now) {
  if (finished_ || now < options_.start_delay_us) return;
  ExpireTimedOut(now);
  PrefetchGovernor* governor = options_.governor;
  if (governor != nullptr) {
    // Ladder check: at kReadahead or below the system has shed learned
    // prefetch entirely — keep existing pins (the pages are already paid
    // for) but issue nothing new until the ladder recovers.
    const DegradationRung rung = governor->Evaluate(now);
    if (static_cast<int>(rung) >=
        static_cast<int>(DegradationRung::kReadahead)) {
      return;
    }
  }
  while (next_ < queue_.size() &&
         outstanding_.size() < options_.readahead_window) {
    const PageId page = queue_[next_];
    // One governor token per speculative page, both paths below. A denial
    // means the global budget is exhausted and nothing lower-priority is
    // left to shed: stop pumping and retry on a later Pump.
    if (governor != nullptr && !governor->TryAcquirePin(governor_id_, now)) {
      ++stats_.denied_by_governor;
      return;
    }
    if (pool_->Contains(page)) {
      // Already buffered (maybe the query itself read it first): nothing
      // happens except a usage-count bump and a pin (Section 3.3, design
      // consideration 4).
      Status s = pool_->StartPrefetch(page, now, /*pin=*/true, now);
      if (s.ok()) {
        ++stats_.already_buffered;
        outstanding_.emplace(page, now);
      } else if (governor != nullptr) {
        governor->ReleasePin(governor_id_);
      }
      ++next_;
      continue;
    }
    // Brownout shed: a page whose OS-cache channel is quarantined for
    // speculative traffic is dropped — it stays a future miss, served by
    // the (hedge-protected) foreground path instead of queueing speculative
    // work behind a gray-failing channel.
    if (options_.channel_breakers != nullptr &&
        !options_.channel_breakers->AllowSpeculative(
            os_cache_->ChannelOf(page))) {
      ++stats_.dropped_brownout;
      if (governor != nullptr) governor->ReleasePin(governor_id_);
      PYTHIA_TRACE_INSTANT("prefetch", "drop.brownout", now, "obj",
                           page.object_id, "page", page.page_no);
      ++next_;
      continue;
    }
    // The async read passes through the OS: issuing in offset order makes
    // many of these sequential follow-ons or OS-cache copies. A transient
    // error on this path is absorbed: the prefetch is dropped and the page
    // stays a future miss — never fail the query for a speculative read.
    // Likewise a page that fails checksum verification: it is dropped
    // before it can be installed, so a corrupt prefetch can never poison
    // the buffer pool. Speculative reads are not hedge-eligible: their
    // cheaper remedy under slowness is this drop path, and hedge budget is
    // reserved for reads a query is actually waiting on.
    const Result<OsReadResult> os =
        os_cache_->Read(page, /*hedge_eligible=*/false);
    if (!os.ok()) {
      if (os.status().code() == StatusCode::kDataCorruption) {
        ++stats_.dropped_corrupt;
        PYTHIA_TRACE_INSTANT("prefetch", "drop.corrupt", now, "obj",
                             page.object_id, "page", page.page_no);
      } else {
        ++stats_.dropped_faulty;
        PYTHIA_TRACE_INSTANT("prefetch", "drop.faulty", now, "obj",
                             page.object_id, "page", page.page_no);
      }
      if (governor != nullptr) governor->ReleasePin(governor_id_);
      ++next_;
      continue;
    }
    const SimTime completion = io_->Schedule(now, os->latency_us);
    Status s = pool_->StartPrefetch(page, completion, /*pin=*/true, now);
    if (!s.ok()) {
      // Buffer pressure (ResourceExhausted): shed the prefetch instead of
      // erroring — stop pumping for now and retry on the next Pump, when
      // pins may have been released.
      ++stats_.rejected_by_pool;
      if (governor != nullptr) governor->ReleasePin(governor_id_);
      PYTHIA_TRACE_INSTANT("prefetch", "shed", now, "obj", page.object_id,
                           "page", page.page_no);
      return;
    }
    if (governor != nullptr) governor->OnAsyncIssued(completion);
    outstanding_.emplace(page, now);
    ++stats_.issued;
    PYTHIA_TRACE_INSTANT("prefetch", "issue", now, "obj", page.object_id,
                         "page", page.page_no);
    ++next_;
  }
}

void PrefetchSession::OnFetch(PageId page, SimTime now) {
  if (finished_) return;
  auto it = outstanding_.find(page);
  if (it == outstanding_.end()) return;
  outstanding_.erase(it);
  pool_->Unpin(page);
  if (options_.governor != nullptr) {
    options_.governor->ReleasePin(governor_id_);
  }
  ++stats_.consumed;
  PYTHIA_TRACE_INSTANT("prefetch", "consume", now, "obj", page.object_id,
                       "page", page.page_no);
  Pump(now);
}

size_t PrefetchSession::ShedForGovernor(size_t max_pages, SimTime now) {
  if (finished_ || outstanding_.empty() || max_pages == 0) return 0;
  size_t shed = 0;
  while (shed < max_pages && !outstanding_.empty()) {
    // Oldest first: the longest-unconsumed page is the least likely to be
    // about to pay off.
    auto oldest = outstanding_.begin();
    for (auto it = std::next(outstanding_.begin()); it != outstanding_.end();
         ++it) {
      if (it->second < oldest->second) oldest = it;
    }
    pool_->Unpin(oldest->first);
    ++stats_.shed_by_governor;
    PYTHIA_TRACE_INSTANT("prefetch", "shed.governor", now, "obj",
                         oldest->first.object_id, "page",
                         oldest->first.page_no);
    outstanding_.erase(oldest);
    ++shed;
  }
  return shed;
}

void PrefetchSession::Finish() {
  if (finished_) return;
  finished_ = true;
  for (const auto& entry : outstanding_) {
    pool_->Unpin(entry.first);
    if (options_.governor != nullptr) {
      options_.governor->ReleasePin(governor_id_);
    }
  }
  outstanding_.clear();
  if (options_.governor != nullptr && governor_id_ != 0) {
    options_.governor->UnregisterSession(governor_id_);
    governor_id_ = 0;
  }
}

}  // namespace pythia
