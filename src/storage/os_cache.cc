#include "storage/os_cache.h"

#include "util/trace.h"

namespace pythia {

OsPageCache::OsPageCache(const Options& options, const LatencyModel& latency)
    : options_(options), latency_(latency) {
  const size_t n = options.num_channels == 0 ? 1 : options.num_channels;
  options_.num_channels = n;
  channels_.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    auto channel = std::make_unique<Channel>();
    channel->capacity = options.capacity_pages / n +
                        (c < options.capacity_pages % n ? 1 : 0);
    channels_.push_back(std::move(channel));
  }
}

void OsPageCache::set_channel_fault_injector(size_t channel,
                                             FaultInjector* injector) {
  channels_[channel]->injector = injector;
}

void OsPageCache::set_channel_disk(size_t channel, SimulatedDisk* disk) {
  channels_[channel]->disk = disk;
}

SimTime OsPageCache::RetryBackoff(PageId page, const RetryPolicy& policy,
                                  uint32_t attempt) {
  Channel& ch = *channels_[ChannelOf(page)];
  std::lock_guard<std::mutex> lock(ch.mu);
  if (ch.injector == nullptr) return 0;
  return ch.injector->RetryBackoff(policy, attempt);
}

Result<OsReadResult> OsPageCache::Read(PageId page, bool hedge_eligible) {
  const size_t channel_index = ChannelOf(page);
  Channel& ch = *channels_[channel_index];
  std::lock_guard<std::mutex> lock(ch.mu);

  OsReadResult result;
  auto it = ch.map.find(page);
  if (it != ch.map.end()) {
    Touch(&ch, page);
    ++ch.hits;
    result.latency_us = latency_.os_cache_copy_us;
    result.source = AccessSource::kOsCache;
    // A cache hit still counts as progress for readahead detection, so a
    // long scan keeps extending its readahead run.
    ch.last_page[page.object_id] = page.page_no;
    return result;
  }

  auto last_it = ch.last_page.find(page.object_id);
  const bool sequential =
      last_it != ch.last_page.end() && page.page_no == last_it->second + 1;
  ch.last_page[page.object_id] = page.page_no;

  result.latency_us =
      sequential ? latency_.disk_seq_read_us : latency_.disk_random_read_us;
  result.source =
      sequential ? AccessSource::kDiskSequential : AccessSource::kDiskRandom;

  if (ch.injector != nullptr) {
    const DiskReadFault fault = ch.injector->OnDiskRead(result.latency_us);
    if (fault.transient_error) {
      ++ch.failed_reads;
      PYTHIA_TRACE_INSTANT_CTX("storage", "read.error", "obj", page.object_id,
                               "page", page.page_no);
      return Status::IoError("transient disk read error");
    }
    result.latency_us += fault.extra_latency_us;
  }

  // With a device attached the returned image is verified before anything
  // is cached; a corrupt image is discarded, never served.
  if (ch.disk != nullptr) {
    const Result<SimulatedDisk::PageImage> image = ch.disk->ReadPage(page);
    if (!image.ok()) {
      ++ch.corrupt_reads;
      ++ch.failed_reads;
      PYTHIA_TRACE_INSTANT_CTX("storage", "read.corrupt", "obj",
                               page.object_id, "page", page.page_no);
      return image.status();
    }
  }

  if (health_ != nullptr) {
    // Feed the health window with the PRIMARY latency, even when a hedge
    // below wins: the channel really was that slow, and the detector must
    // keep seeing it (hedging away the pain must not hide the disease).
    result.primary_latency_us = result.latency_us;
    health_->RecordRead(channel_index, result.latency_us);
    if (hedge_eligible) {
      const SimTime deadline = health_->HedgeDeadlineUs(channel_index);
      if (deadline > 0 && result.latency_us > deadline) {
        const size_t target = health_->HealthiestOther(channel_index);
        if (target != channel_index && health_->TryAcquireHedge()) {
          // The hedge is a cold random read on the target channel, floored
          // at that channel's own EWMA service time (hedging toward a slow
          // channel is never modeled as cheap). It deliberately does NOT
          // consult the target channel's fault injector or run state:
          // channel isolation means issuing a hedge toward channel j must
          // never perturb channel j's seeded fault stream or readahead
          // detection.
          const SimTime base = latency_.disk_random_read_us;
          const double target_ewma = health_->Ewma(target);
          const SimTime hedge_service =
              target_ewma > static_cast<double>(base)
                  ? static_cast<SimTime>(target_ewma)
                  : base;
          // First completion wins: the caller waited `deadline` before
          // hedging, then the hedge takes its own service time.
          const SimTime hedged_total = deadline + hedge_service;
          result.hedged = true;
          result.hedge_deadline_us = deadline;
          result.hedge_latency_us = hedge_service;
          result.hedge_channel = target;
          if (hedged_total < result.latency_us) {
            result.latency_us = hedged_total;
            result.hedge_won = true;
          }
          health_->RecordHedgeOutcome(result.hedge_won);
          PYTHIA_TRACE_INSTANT_CTX("io", "hedge", "to", target, "won",
                                   static_cast<uint64_t>(result.hedge_won));
        }
      }
    }
  }

  if (sequential) {
    ++ch.sequential_reads;
    // The kernel reads ahead: the next `readahead_pages` pages of this file
    // land in the cache and will be served as memory copies. Each readahead
    // image is its own device read and is verified too — the kernel drops
    // (rather than caches) one that fails its checksum, so a later hit on a
    // readahead page is always a hit on verified bytes. Under governor
    // suppression (kNoPrefetch rung) the scan still pays sequential device
    // time but nothing is pulled ahead. Readahead pages share the object id
    // and therefore always land on this same channel.
    const uint32_t ahead_pages =
        readahead_suppressed() ? 0 : options_.readahead_pages;
    for (uint32_t i = 1; i <= ahead_pages; ++i) {
      const PageId ahead{page.object_id, page.page_no + i};
      if (ch.disk != nullptr && ch.map.count(ahead) == 0) {
        if (!ch.disk->ReadPage(ahead).ok()) {
          ++ch.readahead_dropped_corrupt;
          PYTHIA_TRACE_INSTANT_CTX("storage", "readahead.drop_corrupt", "obj",
                                   ahead.object_id, "page", ahead.page_no);
          continue;
        }
      }
      Insert(&ch, ahead);
    }
  } else {
    ++ch.random_reads;
  }
  Insert(&ch, page);
  return result;
}

void OsPageCache::DropCaches() {
  for (auto& ch : channels_) {
    std::lock_guard<std::mutex> lock(ch->mu);
    ch->lru.clear();
    ch->map.clear();
    ch->last_page.clear();
  }
}

bool OsPageCache::Contains(PageId page) const {
  const Channel& ch = *channels_[ChannelOf(page)];
  std::lock_guard<std::mutex> lock(ch.mu);
  return ch.map.count(page) > 0;
}

size_t OsPageCache::cached_pages() const {
  size_t n = 0;
  for (const auto& ch : channels_) {
    std::lock_guard<std::mutex> lock(ch->mu);
    n += ch->map.size();
  }
  return n;
}

uint64_t OsPageCache::hits() const {
  uint64_t n = 0;
  for (const auto& ch : channels_) {
    std::lock_guard<std::mutex> lock(ch->mu);
    n += ch->hits;
  }
  return n;
}

uint64_t OsPageCache::sequential_reads() const {
  uint64_t n = 0;
  for (const auto& ch : channels_) {
    std::lock_guard<std::mutex> lock(ch->mu);
    n += ch->sequential_reads;
  }
  return n;
}

uint64_t OsPageCache::random_reads() const {
  uint64_t n = 0;
  for (const auto& ch : channels_) {
    std::lock_guard<std::mutex> lock(ch->mu);
    n += ch->random_reads;
  }
  return n;
}

uint64_t OsPageCache::failed_reads() const {
  uint64_t n = 0;
  for (const auto& ch : channels_) {
    std::lock_guard<std::mutex> lock(ch->mu);
    n += ch->failed_reads;
  }
  return n;
}

uint64_t OsPageCache::corrupt_reads() const {
  uint64_t n = 0;
  for (const auto& ch : channels_) {
    std::lock_guard<std::mutex> lock(ch->mu);
    n += ch->corrupt_reads;
  }
  return n;
}

uint64_t OsPageCache::readahead_dropped_corrupt() const {
  uint64_t n = 0;
  for (const auto& ch : channels_) {
    std::lock_guard<std::mutex> lock(ch->mu);
    n += ch->readahead_dropped_corrupt;
  }
  return n;
}

void OsPageCache::Insert(Channel* ch, PageId page) {
  auto it = ch->map.find(page);
  if (it != ch->map.end()) {
    Touch(ch, page);
    return;
  }
  ch->lru.push_front(page);
  ch->map[page] = ch->lru.begin();
  while (ch->map.size() > ch->capacity) {
    ch->map.erase(ch->lru.back());
    ch->lru.pop_back();
  }
}

void OsPageCache::Touch(Channel* ch, PageId page) {
  auto it = ch->map.find(page);
  ch->lru.splice(ch->lru.begin(), ch->lru, it->second);
}

}  // namespace pythia
