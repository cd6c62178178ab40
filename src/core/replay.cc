#include "core/replay.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <thread>
#include <utility>

#include "util/trace.h"

namespace pythia {

namespace {

// Seed of the simulated device's page images; every channel's disk shares
// it, so all channels hold identical pages.
constexpr uint64_t kDiskContentSeed = 0x5eedd15c;

}  // namespace

SimEnvironment::SimEnvironment(const SimOptions& options)
    : options_(options) {
  OsPageCache::Options os_options;
  os_options.capacity_pages = options.os_cache_pages;
  os_options.readahead_pages = options.os_readahead_pages;
  os_options.num_channels = options.storage_channels;
  os_cache_ = std::make_unique<OsPageCache>(os_options, options.latency);
  const size_t channels = os_cache_->num_channels();

  BufferPool::Options pool_options;
  pool_options.capacity_pages = options.buffer_pages;
  pool_options.policy = options.policy;
  pool_options.retry = options.retry;
  pool_options.num_shards = options.buffer_shards;
  pool_options.profile_locks = options.profile_pool_locks;
  pool_ = std::make_unique<BufferPool>(pool_options, os_cache_.get(),
                                       options.latency);
  io_ = std::make_unique<IoScheduler>(options.io_channels);

  // One FaultInjector and one SimulatedDisk per storage channel, built in
  // one loop. Channel c's injector is seeded faults.seed ^ (golden ratio *
  // c) — channel 0 keeps the base seed, so a one-channel stack draws the
  // historical streams — and each disk draws corruption from its own
  // channel's injector; every disk shares the content seed (identical page
  // images). FaultInjector and SimulatedDisk are not thread-safe:
  // per-channel instances let the channel mutexes do the serialization.
  // Single-gray-channel scenario: brownout_channel >= 0 confines the
  // configured brownout window to that one channel's injector; every other
  // channel has it stripped (seeds are untouched, so the error/spike streams
  // stay identical either way).
  const bool verify =
      options.faults.corruption_enabled() || options.verify_page_checksums;
  for (size_t c = 0; c < channels; ++c) {
    FaultInjector* injector = nullptr;
    if (options.faults.enabled()) {
      FaultConfig config = options.faults;
      config.seed = options.faults.seed ^ (0x9e3779b97f4a7c15ULL * c);
      if (options.brownout_channel >= 0 &&
          static_cast<size_t>(options.brownout_channel) != c) {
        config.brownout_latency_mult = 1.0;
        config.brownout_duration_reads = 0;
      }
      injectors_.push_back(std::make_unique<FaultInjector>(config));
      injector = injectors_.back().get();
      os_cache_->set_channel_fault_injector(c, injector);
    }
    if (verify) {
      disks_.push_back(
          std::make_unique<SimulatedDisk>(kDiskContentSeed, injector));
      os_cache_->set_channel_disk(c, disks_.back().get());
    }
  }
  // The AIO stall stream: one channel shares channel 0's injector (its
  // historical stream and counters); a wider stack gets a dedicated
  // injector, so scheduler stalls never race the channel read streams
  // across threads.
  if (options.faults.enabled()) {
    if (channels > 1) {
      FaultConfig aio_config = options.faults;
      aio_config.seed = options.faults.seed ^ 0xa10a10a10a10a10aULL;
      aio_injector_ = std::make_unique<FaultInjector>(aio_config);
      io_->set_fault_injector(aio_injector_.get());
    } else {
      io_->set_fault_injector(injectors_[0].get());
    }
  }
  if (options.channel_health.enabled) {
    health_ =
        std::make_unique<ChannelHealthTracker>(channels, options.channel_health);
    os_cache_->set_health_tracker(health_.get());
    if (options.channel_breakers) {
      breakers_ = std::make_unique<ChannelBreakerBoard>(ChannelBreakerOptions{},
                                                        health_.get());
    }
  }
}

void SimEnvironment::ColdRestart() {
  pool_->Reset();
  pool_->ResetStats();
  os_cache_->DropCaches();
  io_->Reset();
}

void SimEnvironment::ResetFaults() {
  for (auto& injector : injectors_) injector->Reset();
  if (aio_injector_ != nullptr) aio_injector_->Reset();
}

void SimEnvironment::ResetChannelHealth() {
  if (health_ != nullptr) health_->Reset();
  if (breakers_ != nullptr) breakers_->Reset();
}

QueryRunMetrics ReplayQuery(const QueryTrace& trace,
                            const std::vector<PageId>& prefetch_pages,
                            const PrefetcherOptions& prefetch_options,
                            SimEnvironment* env) {
  std::vector<ConcurrentQuery> solo(1);
  solo[0].trace = &trace;
  solo[0].prefetch_pages = prefetch_pages;
  solo[0].prefetch_options = prefetch_options;
  return std::move(ReplayConcurrent(solo, {}, env).queries[0]);
}

ConcurrentResult ReplayConcurrent(const std::vector<ConcurrentQuery>& queries,
                                  const ConcurrentOptions& options,
                                  SimEnvironment* env) {
  const LatencyModel& latency = env->options().latency;
  const size_t n = queries.size();

  struct QueryState {
    SimTime clock = 0;
    SimTime deadline_at = 0;  // 0 = no deadline
    size_t next_access = 0;
    std::unique_ptr<PrefetchSession> session;
    DegradationRung worst_rung = DegradationRung::kFullNeural;
    bool deadline_exceeded = false;
  };
  std::vector<QueryState> states(n);
  ConcurrentResult result;
  result.start_us.resize(n);
  result.end_us.resize(n);
  result.queries.resize(n);

  // Each query of a batch gets its own trace track; the event loop switches
  // the tracer's current track as it context-switches between queries. A
  // batch of one is a solo query: it stays on the caller's track, and the
  // pool delta over the call is its own.
  const bool solo = n == 1;
  Tracer& tracer = Tracer::Global();
  const bool tracing = tracer.enabled();
  std::vector<uint32_t> tracks(tracing && !solo ? n : 0, 0);
  for (uint32_t& track : tracks) track = tracer.StartQueryTrack();
  const BufferPoolStats pool_before =
      solo ? env->pool().stats() : BufferPoolStats{};

  // The two event sources. Arrivals are taken in (arrival, index) order
  // through a cursor over a stable sort; the running queries sit in a
  // min-heap keyed by (clock, index). A query's clock only moves while it
  // is the popped pick, so every key in the heap is current.
  std::vector<size_t> arrival_order(n);
  std::iota(arrival_order.begin(), arrival_order.end(), size_t{0});
  std::stable_sort(arrival_order.begin(), arrival_order.end(),
                   [&queries](size_t a, size_t b) {
                     return queries[a].arrival_us < queries[b].arrival_us;
                   });
  size_t next_arrival = 0;  // into arrival_order
  using Event = std::pair<SimTime, size_t>;  // (clock, query index)
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> running;

  size_t active = 0;
  std::deque<size_t> wait_queue;  // FIFO of queued query indices
  // Latest virtual time any event has been processed at. Queue admissions
  // can never happen before it — a freed slot is only usable "now".
  SimTime watermark = 0;

  auto finish_query = [&](size_t i, SimTime end, Status status) {
    QueryState& st = states[i];
    if (st.session != nullptr) {
      st.session->Finish();
      result.queries[i].prefetch_stats = st.session->stats();
    }
    result.end_us[i] = end;
    QueryRunMetrics& m = result.queries[i];
    m.status = std::move(status);
    m.elapsed_us = end - result.start_us[i];
    m.completed_accesses = st.next_access;
    m.rung = MaxRung(m.rung, st.worst_rung);
    m.deadline_exceeded = st.deadline_exceeded;
    if (st.worst_rung != DegradationRung::kFullNeural ||
        m.prefetch_stats.shed_by_governor > 0 ||
        m.prefetch_stats.denied_by_governor > 0) {
      m.degraded_by_governor = true;
    }
    PYTHIA_TRACE_SPAN("query", "replay", result.start_us[i], end, "accesses",
                      st.next_access);
    watermark = std::max(watermark, end);
    --active;
  };

  // Starts query `i` at virtual time `start` (its admission time).
  auto admit = [&](size_t i, SimTime start) {
    QueryState& st = states[i];
    st.clock = start;
    result.start_us[i] = start;
    result.queries[i] = queries[i].planned;
    const SimTime wait = start - queries[i].arrival_us;
    result.queries[i].queue_wait_us = wait;
    result.admission.max_queue_wait_us =
        std::max(result.admission.max_queue_wait_us, wait);
    if (wait > 0) {
      ++result.admission.admitted_after_wait;
      PYTHIA_TRACE_INSTANT("overload", "admit.queued", start, "query",
                           static_cast<uint64_t>(i), "wait_us",
                           static_cast<uint64_t>(wait));
    } else {
      ++result.admission.admitted_immediately;
    }
    ++active;
    SimTime budget = queries[i].deadline_us > 0 ? queries[i].deadline_us
                                                : options.default_deadline_us;
    st.deadline_at = budget > 0 ? start + budget : 0;
    if (!queries[i].prefetch_pages.empty()) {
      // The session's start delay is relative to the query's own start.
      PrefetcherOptions opts = queries[i].prefetch_options;
      opts.start_delay_us += start;
      if (opts.governor == nullptr) opts.governor = options.governor;
      if (opts.channel_breakers == nullptr) {
        opts.channel_breakers = env->channel_breakers();
      }
      st.session = std::make_unique<PrefetchSession>(
          queries[i].prefetch_pages, opts, &env->pool(), &env->os_cache(),
          &env->io(), latency);
    }
    if (queries[i].trace->accesses.empty()) {
      finish_query(i, start, Status::OK());
    } else {
      running.push({start, i});
    }
  };

  // Arrival-time admission decision for query `i`.
  auto on_arrival = [&](size_t i) {
    const SimTime arrival = queries[i].arrival_us;
    if (options.max_active_queries == 0 ||
        active < options.max_active_queries) {
      admit(i, arrival);
      return;
    }
    if (wait_queue.size() < options.admission_queue_limit) {
      wait_queue.push_back(i);
      PYTHIA_TRACE_INSTANT("overload", "admit.enqueue", arrival, "query",
                           static_cast<uint64_t>(i), "depth",
                           static_cast<uint64_t>(wait_queue.size()));
      return;
    }
    // Saturated and the queue is full: reject outright rather than build an
    // unbounded backlog. The query never runs; it costs the system nothing.
    result.start_us[i] = arrival;
    result.end_us[i] = arrival;
    result.queries[i].status =
        Status::ResourceExhausted("admission queue full");
    ++result.admission.rejected;
    PYTHIA_TRACE_INSTANT("overload", "admit.reject", arrival, "query",
                         static_cast<uint64_t>(i));
  };

  // A slot freed at time `t`: admit the queue head, at its arrival time or
  // `t`, whichever is later.
  auto admit_from_queue = [&](SimTime t) {
    if (wait_queue.empty()) return;
    if (options.max_active_queries != 0 &&
        active >= options.max_active_queries) {
      return;
    }
    const size_t i = wait_queue.front();
    wait_queue.pop_front();
    admit(i, std::max(queries[i].arrival_us, t));
  };

  // Event loop: the next event is either the earliest unprocessed arrival
  // (lowest index first among equal times) or the smallest running-query
  // clock (lowest index first among equal clocks); arrivals win ties so
  // admission state is up to date before work advances past that instant.
  for (;;) {
    const SimTime best = running.empty()
                             ? std::numeric_limits<SimTime>::max()
                             : running.top().first;
    if (next_arrival < n &&
        queries[arrival_order[next_arrival]].arrival_us <= best) {
      on_arrival(arrival_order[next_arrival++]);
      continue;
    }
    if (running.empty()) {
      if (!wait_queue.empty()) {
        // Nothing running and nothing arriving, yet queries are queued
        // (e.g. the freed slot went to an empty-trace query that finished
        // instantly): admit the head at the latest event time so
        // saturation can never strand work or admit into the past.
        const size_t i = wait_queue.front();
        wait_queue.pop_front();
        admit(i, std::max(queries[i].arrival_us, watermark));
        continue;
      }
      break;
    }

    const size_t pick = running.top().second;
    running.pop();
    QueryState& st = states[pick];
    if (tracing) {
      if (!solo) tracer.SetTrack(tracks[pick]);
      tracer.SetTime(st.clock);
    }

    // Deadline budget: past it, stop speculating — shed the session (pins
    // released, governor tokens returned) and finish on demand reads.
    if (st.deadline_at != 0 && st.clock >= st.deadline_at &&
        st.session != nullptr && !st.session->finished()) {
      st.deadline_exceeded = true;
      ++result.admission.deadline_stops;
      result.queries[pick].prefetch_stats = st.session->stats();
      st.session->Finish();
      PYTHIA_TRACE_INSTANT("overload", "deadline.stop", st.clock, "query",
                           static_cast<uint64_t>(pick));
    }

    const PageAccess& access =
        queries[pick].trace->accesses[st.next_access];
    st.clock += static_cast<SimTime>(access.cpu_tuples_before) *
                latency.cpu_per_tuple_us;
    PYTHIA_TRACE_SET_TIME(st.clock);
    if (options.governor != nullptr) {
      st.worst_rung =
          MaxRung(st.worst_rung, options.governor->Evaluate(st.clock));
    }
    if (st.session != nullptr) st.session->Pump(st.clock);
    const Result<FetchResult> fetch =
        env->pool().FetchPage(access.page, st.clock);
    if (!fetch.ok()) {
      // This query dies at the failing access; the rest of the batch keeps
      // running against a pool with its pins released.
      finish_query(pick, st.clock, fetch.status());
      admit_from_queue(st.clock);
      continue;
    }
    st.clock += fetch->latency_us;
    if (st.session != nullptr) st.session->OnFetch(access.page, st.clock);

    if (++st.next_access >= queries[pick].trace->accesses.size()) {
      finish_query(pick, st.clock, Status::OK());
      admit_from_queue(st.clock);
    } else {
      running.push({st.clock, pick});
    }
  }

  for (size_t i = 0; i < n; ++i) {
    result.makespan_us = std::max(result.makespan_us, result.end_us[i]);
    result.total_query_us += result.end_us[i] - result.start_us[i];
  }
  if (solo) {
    result.queries[0].pool_stats =
        SubtractStats(env->pool().stats(), pool_before);
  }
  return result;
}

ParallelReplayResult ReplayParallelFleet(
    const std::vector<ConcurrentQuery>& threads, SimEnvironment* env) {
  const size_t n = threads.size();
  ParallelReplayResult result;
  result.threads.resize(n);
  const BufferPoolStats stats_before = env->pool().stats();
  const BufferPoolLockStats lock_before = env->pool().lock_stats();

  // One fleet thread is one batch of one. The tracer's SetTime/SetTrack are
  // single-threaded, which is why tracing must be off around this call
  // (the engine only touches them when it is on).
  auto run_thread = [&](size_t idx) {
    std::vector<ConcurrentQuery> solo = {threads[idx]};
    solo[0].prefetch_options.governor = nullptr;  // single-threaded control
    QueryRunMetrics& out = result.threads[idx];
    out = std::move(ReplayConcurrent(solo, {}, env).queries[0]);
    // The batch-of-one delta counts every thread's traffic over this
    // thread's run; only the whole run's delta below is meaningful.
    out.pool_stats = BufferPoolStats{};
  };

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (size_t i = 0; i < n; ++i) workers.emplace_back(run_thread, i);
  // Joined in thread index order; results were written into index-addressed
  // slots, so the merge below is independent of the real interleaving.
  for (std::thread& t : workers) t.join();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  result.pool_stats = SubtractStats(env->pool().stats(), stats_before);
  result.lock_stats = SubtractStats(env->pool().lock_stats(), lock_before);
  return result;
}

}  // namespace pythia
