// Asynchronous I/O channel scheduler.
//
// Models the pool of I/O workers the Postgres AIO branch uses: a prefetch
// request issued at time `t` occupies the earliest-free channel and
// completes after the device latency. Synchronous reads issued by the
// executor do not go through the channels (they block the query itself);
// this matches how the AIO workers run alongside the backend process.
#ifndef PYTHIA_STORAGE_IO_SCHEDULER_H_
#define PYTHIA_STORAGE_IO_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "storage/fault_injector.h"
#include "storage/sim_clock.h"
#include "util/metrics_registry.h"
#include "util/trace.h"

namespace pythia {

// Thread-safe: one mutex over the channel free-times. This is the *request
// bookkeeping* lock, held for a handful of arithmetic ops — the simulated
// device parallelism is the channel count, not the lock. With a fault
// injector attached, OnAioSchedule is called under this mutex, which is the
// only thing serializing the injector's stall stream in multi-threaded
// replays (the stream is dedicated to stalls, so cache-channel read draws
// never race it).
//
// The earliest-free channel is tracked with a binary min-heap of
// (free_time, channel) pairs — one entry per channel, replaced on every
// Schedule — instead of the former O(num_channels) scan under the mutex.
// Pair ordering breaks free-time ties toward the lowest channel index,
// which is exactly the order the linear scan picked, so scheduling
// decisions (and therefore every seeded bench) are bit-identical to the
// scan at any channel count.
class IoScheduler {
 public:
  explicit IoScheduler(size_t num_channels)
      : free_at_(num_channels == 0 ? 1 : num_channels, 0) {
    heap_.reserve(free_at_.size());
    for (size_t i = 0; i < free_at_.size(); ++i) heap_.emplace_back(0, i);
    // (0, i) pairs arrive index-sorted: already a valid min-heap.
    MetricsRegistry& reg = MetricsRegistry::Global();
    ops_counters_.reserve(free_at_.size());
    busy_counters_.reserve(free_at_.size());
    for (size_t i = 0; i < free_at_.size(); ++i) {
      const std::string prefix = "io.channel." + std::to_string(i);
      ops_counters_.push_back(&reg.counter(prefix + ".ops"));
      busy_counters_.push_back(&reg.counter(prefix + ".busy_us"));
    }
  }

  // Schedules an async operation of duration `latency_us` not earlier than
  // `now`; returns its completion time. Channels are FIFO per-channel; the
  // request takes the channel that frees up first. With a fault injector
  // attached, the chosen channel may stall (an AIO worker freezing) before
  // servicing the request, delaying this completion and everything queued
  // behind it on the same channel.
  SimTime Schedule(SimTime now, SimTime latency_us) {
    std::lock_guard<std::mutex> lock(mu_);
    std::pop_heap(heap_.begin(), heap_.end(), HeapAfter);
    const size_t best = heap_.back().second;
    const SimTime start = free_at_[best] > now ? free_at_[best] : now;
    const SimTime stall =
        injector_ != nullptr ? injector_->OnAioSchedule() : 0;
    free_at_[best] = start + stall + latency_us;
    heap_.back().first = free_at_[best];
    std::push_heap(heap_.begin(), heap_.end(), HeapAfter);
    ++scheduled_ops_;
    ops_counters_[best]->Increment();
    busy_counters_[best]->Increment(stall + latency_us);
    // The span covers queueing + stall + device time, so in the trace the
    // async read visibly overlaps the executor lane it was issued from.
    PYTHIA_TRACE_IO_SPAN("io", "aio", now, free_at_[best], "channel", best,
                         "stall_us", stall);
    return free_at_[best];
  }

  // Not owned; may be nullptr (no stalls).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Measured queue depth at `now`: total virtual time of work already
  // committed to the channels but not yet completed, summed across
  // channels. This is the overload governor's AIO-pressure signal — a
  // growing backlog means speculative reads are queuing behind each other
  // (and behind injected stalls) faster than the device retires them.
  SimTime QueueBacklogUs(SimTime now) const {
    std::lock_guard<std::mutex> lock(mu_);
    SimTime backlog = 0;
    for (SimTime t : free_at_) {
      if (t > now) backlog += t - now;
    }
    return backlog;
  }

  size_t num_channels() const { return free_at_.size(); }
  uint64_t scheduled_ops() const {
    std::lock_guard<std::mutex> lock(mu_);
    return scheduled_ops_;
  }

  // Clears the channel timelines and counters AND rewinds the attached
  // injector's stall stream: a reset scheduler replaying a request sequence
  // is bit-identical to a fresh one (the same contract ClockPolicy::Reset
  // honors for eviction decisions). The injector's read-fault streams are
  // untouched — those belong to the device, not to this scheduler. The
  // per-channel io.channel.<i>.{ops,busy_us} registry counters are
  // process-cumulative and keep counting across resets.
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (SimTime& t : free_at_) t = 0;
    for (size_t i = 0; i < heap_.size(); ++i) heap_[i] = {0, i};
    scheduled_ops_ = 0;
    if (injector_ != nullptr) injector_->ResetStallStream();
  }

 private:
  // std::push_heap/pop_heap build a MAX-heap on the comparator, so "a
  // after b" (greater free time, then greater index) puts the earliest
  // free time — lowest index on ties — at the front: the channel the old
  // linear scan chose.
  static bool HeapAfter(const std::pair<SimTime, size_t>& a,
                        const std::pair<SimTime, size_t>& b) {
    return a > b;
  }

  mutable std::mutex mu_;
  std::vector<SimTime> free_at_;
  // One (free_time, channel) entry per channel, heap-ordered by HeapAfter.
  std::vector<std::pair<SimTime, size_t>> heap_;
  // Per-channel "io.channel.<i>.{ops,busy_us}" registry counters, resolved
  // once at construction.
  std::vector<Counter*> ops_counters_;
  std::vector<Counter*> busy_counters_;
  uint64_t scheduled_ops_ = 0;
  FaultInjector* injector_ = nullptr;
};

}  // namespace pythia

#endif  // PYTHIA_STORAGE_IO_SCHEDULER_H_
