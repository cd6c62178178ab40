// Structured trace events on the virtual (SimTime) timeline.
//
// End-of-run counters say *how many* prefetches were useful; they cannot
// say *when* a page arrived relative to its consumption, which is the whole
// claim of an asynchronous prefetcher (and how SeLeP/GrASP-style timing
// analyses evaluate one). This recorder captures spans and instants stamped
// with virtual microseconds — prediction, prefetch issue/consume/timeout,
// demand misses, async disk reads, breaker and watchdog transitions — and
// exports them as Chrome trace-event JSON (load in chrome://tracing or
// https://ui.perfetto.dev) plus a compact per-query timeline summary.
//
// Cost model:
//  - disabled (the default), the macros compile to one inlined relaxed
//    load and a predictable branch — no allocation, no lock, no argument
//    evaluation.
//  - enabled, each event is one small struct appended to a pre-reserved
//    buffer under a spinlock. All replay-path record sites run on the
//    replaying thread (ThreadPool lanes never record), so the lock is
//    uncontended and event order is deterministic: same seed, byte-identical
//    JSON.
//
// Track model: every query gets a track (Chrome "tid"); its executor-side
// events (fetches, prefetch issue/consume decisions) render on lane
// 2*track, while the async I/O spans it caused render on lane 2*track + 1,
// so prefetch reads visibly overlap the executor's page requests.
#ifndef PYTHIA_UTIL_TRACE_H_
#define PYTHIA_UTIL_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/sim_clock.h"

namespace pythia {

struct TraceEvent {
  char phase = 'i';          // Chrome phase: 'X' complete span, 'i' instant
  SimTime ts = 0;            // virtual microseconds
  SimTime dur = 0;           // span duration ('X' only)
  uint32_t lane = 0;         // Chrome tid: 2*query track (+1 for I/O lanes)
  const char* category = "";  // static strings only — never freed, never
  const char* name = "";      // compared by content across runs
  // Up to two numeric args, rendered into the Chrome "args" object. Static
  // names keep recording allocation-free.
  const char* arg1_name = nullptr;
  uint64_t arg1 = 0;
  const char* arg2_name = nullptr;
  uint64_t arg2 = 0;
};

// Aggregated per-query view: when the query's events started and ended and
// how its prefetch traffic broke down — the compact answer to "did pages
// arrive before they were needed" without opening the full trace.
struct QueryTimeline {
  uint32_t query = 0;
  SimTime begin_us = 0;
  SimTime end_us = 0;
  uint64_t demand_misses = 0;        // demand reads that reached the device
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_consumed = 0;
  uint64_t prefetch_dropped = 0;     // faulty + corrupt + shed
  uint64_t prefetch_timed_out = 0;
  SimTime prefetch_wait_us = 0;      // foreground blocked on in-flight AIO
  SimTime prefetch_io_us = 0;        // total async read span time
};

class Tracer {
 public:
  // The inlined hot-path check; everything else is behind it.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Enabling pre-reserves the event buffer: recording must never pay a
  // multi-megabyte reallocation mid-replay (that is where the overhead
  // budget goes).
  void Enable();
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  // Drops all events and resets track assignment and context, so a cleared
  // tracer re-records a rerun of the same seed byte-identically.
  void Clear();

  // Allocates the next query track and makes it current. Called once per
  // query by whoever starts it (PythiaSystem::RunQuery, the replay loops).
  uint32_t StartQueryTrack();
  // Makes an existing track current (the concurrent replay interleaves
  // queries and switches tracks as it context-switches between them).
  void SetTrack(uint32_t track) { track_ = track; }
  uint32_t track() const { return track_; }

  // Current virtual time, for record sites below the layers that carry
  // `now` explicitly (OS cache, simulated disk, breaker/watchdog). The
  // replay loops keep it fresh as their clocks advance.
  void SetTime(SimTime now) { time_ = now; }
  SimTime time() const { return time_; }

  void RecordSpan(const char* category, const char* name, SimTime start,
                  SimTime end, bool io_lane = false,
                  const char* arg1_name = nullptr, uint64_t arg1 = 0,
                  const char* arg2_name = nullptr, uint64_t arg2 = 0);
  void RecordInstant(const char* category, const char* name, SimTime ts,
                     const char* arg1_name = nullptr, uint64_t arg1 = 0,
                     const char* arg2_name = nullptr, uint64_t arg2 = 0);

  size_t size() const;
  std::vector<TraceEvent> Events() const;

  // The full trace as a Chrome trace-event JSON document (traceEvents array
  // plus thread-name metadata). Deterministic: contains only virtual times
  // and static names, never wall-clock or pointers.
  std::string ToChromeJson() const;
  bool WriteChromeJson(const std::string& path) const;

  // Per-query aggregation of the recorded events, in track order.
  std::vector<QueryTimeline> Timelines() const;
  // One fixed-width text line per query, for logs and bench output.
  std::string TimelineSummary() const;

  static Tracer& Global();

 private:
  // Recording is usually single-threaded (the replaying thread), so the
  // buffer is guarded by an uncontended spinlock rather than a mutex: the
  // acquire/release pair costs a few nanoseconds against ~20ns for
  // std::mutex, and per-event cost is the entire overhead budget.
  void Lock() const {
    while (lock_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void Unlock() const { lock_.clear(std::memory_order_release); }

  std::atomic<bool> enabled_{false};
  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  std::vector<TraceEvent> events_;
  uint32_t next_track_ = 0;
  uint32_t track_ = 0;
  SimTime time_ = 0;
};

}  // namespace pythia

// Record macros: zero argument evaluation unless tracing is enabled.
// `ts`/`start`/`end` are virtual times; the _CTX variants stamp the tracer's
// context time instead (for call sites with no clock parameter of their own).
#define PYTHIA_TRACE_INSTANT(category, name, ts, ...)                 \
  do {                                                                \
    ::pythia::Tracer& _tr = ::pythia::Tracer::Global();               \
    if (_tr.enabled()) _tr.RecordInstant(category, name, ts, ##__VA_ARGS__); \
  } while (0)

#define PYTHIA_TRACE_INSTANT_CTX(category, name, ...)                 \
  do {                                                                \
    ::pythia::Tracer& _tr = ::pythia::Tracer::Global();               \
    if (_tr.enabled())                                                \
      _tr.RecordInstant(category, name, _tr.time(), ##__VA_ARGS__);   \
  } while (0)

#define PYTHIA_TRACE_SPAN(category, name, start, end, ...)            \
  do {                                                                \
    ::pythia::Tracer& _tr = ::pythia::Tracer::Global();               \
    if (_tr.enabled())                                                \
      _tr.RecordSpan(category, name, start, end, /*io_lane=*/false,   \
                     ##__VA_ARGS__);                                  \
  } while (0)

#define PYTHIA_TRACE_IO_SPAN(category, name, start, end, ...)         \
  do {                                                                \
    ::pythia::Tracer& _tr = ::pythia::Tracer::Global();               \
    if (_tr.enabled())                                                \
      _tr.RecordSpan(category, name, start, end, /*io_lane=*/true,    \
                     ##__VA_ARGS__);                                  \
  } while (0)

#define PYTHIA_TRACE_SET_TIME(now)                                    \
  do {                                                                \
    ::pythia::Tracer& _tr = ::pythia::Tracer::Global();               \
    if (_tr.enabled()) _tr.SetTime(now);                              \
  } while (0)

#endif  // PYTHIA_UTIL_TRACE_H_
