// Serving benchmark harness. Builds one workload's inputs from a seed, trains
// the t91 model in-process on one predictor lane, serves the workload for a
// timed phase and prints every metric by name and unit:
//
//   perfbench_harness --workload t91_cold|zipf_fleet|t91_faulty --seed N
//                    --seconds S --trace 0|1 [--spans FILE]
//
// The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. The exit code is 1 when an output check fails.
//
// No program code is changed for measurement: every layer is measured from
// outside, by timing the harness's own calls into the public functions of
// workload, core, bufmgr and storage and by reading their stats structs.
// perfbench/README.md describes the workloads and every metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "core/batch_predictor.h"
#include "core/system.h"
#include "inputs.h"
#include "nn/matrix.h"
#include "util/hash.h"
#include "util/metrics_registry.h"

namespace perfbench {
namespace {

using namespace pythia;
using Clock = std::chrono::steady_clock;

// Every workload runs the predictor on one lane, for training and inference.
constexpr size_t kPredictorLanes = 1;
// Untimed warm-up prefix served before the timed phase.
constexpr size_t kWarmupQueries = 20;
constexpr size_t kWarmupSessions = 40;
// Fleet rounds behind the virtual metrics, the counts and the digest; the
// timed phase always runs at least these (4 x 250 sessions: p99 has ten
// sessions beyond it).
constexpr size_t kFleetFixedRounds = 4;
constexpr size_t kAdmissionSlots = 16;
// Offered load of the fleet: sessions arrive at this share of the rate the
// admission slots could serve if every session ran as fast as it does alone.
constexpr double kFleetOfferedLoad = 0.5;
// Queries (t91) or round-0 sessions (fleet) replayed once more under DFLT,
// untimed, for virtual_speedup.
constexpr size_t kSpeedupSample = 250;
// t91_cold's median speedup must stay above this, far below the ~3.4x the
// trained model reaches, so a broken model cannot pass as a faster one.
constexpr double kSpeedupFloor = 2.0;
// Direct WorkloadModel::Predict calls timed by the traced run.
constexpr size_t kPredictCalls = 1000;
// queries_per_s is the median rate over slices of this many consecutive t91
// queries (fleet: over rounds), so a burst of host noise moves few slices.
constexpr size_t kSliceQueries = 100;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

struct Config {
  WorkloadKind kind = WorkloadKind::kT91Cold;
  SimOptions sim;
  bool governed = false;
  GovernorOptions governor;
  // Fleet only: mean solo session time and the arrival gap derived from it
  // (CalibrateFleet), both in virtual microseconds.
  double fleet_solo_us = 0;
  double fleet_gap_us = 0;
};

Config MakeConfig(WorkloadKind kind, const Inputs& in) {
  Config c;
  c.kind = kind;
  if (kind == WorkloadKind::kZipfFleet) {
    c.governed = true;
  } else if (kind == WorkloadKind::kT91Faulty) {
    FaultConfig& f = c.sim.faults;
    f.transient_error_prob = 0.002;
    f.tail_latency_prob = 0.01;
    f.tail_latency_min_mult = 10.0;
    f.tail_latency_max_mult = 40.0;
    f.aio_stall_prob = 0.005;
    f.bit_flip_prob = 0.001;  // turns on checksum verification of every read
    f.brownout_latency_mult = 8.0;
    f.brownout_start_read = 50000;
    f.brownout_duration_reads = 100000;
    f.seed = in.fault_seed;
    c.sim.brownout_channel = 0;
    c.sim.storage_channels = 4;
    c.sim.channel_health.enabled = true;
    c.sim.channel_health.hedging_enabled = true;
    c.sim.channel_breakers = true;
  }
  return c;
}

// A fresh environment and system with the trained model registered.
struct Serving {
  std::unique_ptr<SimEnvironment> env;
  std::unique_ptr<PythiaSystem> system;
};

Serving MakeServing(const Config& cfg, const Inputs& in,
                    WorkloadModel& model) {
  Serving s;
  s.env = std::make_unique<SimEnvironment>(cfg.sim);
  s.system = std::make_unique<PythiaSystem>(s.env.get());
  s.system->AddWorkload(in.train, model.Clone());
  if (cfg.governed) s.system->EnableGovernor(cfg.governor);
  return s;
}

bool PinsReleased(Serving& s) {
  return s.env->pool().pinned_frames() == 0 &&
         (s.system->governor() == nullptr ||
          s.system->governor()->pinned_pages() == 0);
}

// The traced run plans a query ahead of RunQuery only when every guard would
// let RunQuery plan it at full neural service, read from side-effect-free
// getters. Otherwise the early plan could seed the prediction cache for a
// query RunQuery then serves at the cached-only rung, and the traced run
// would stop reproducing the untraced one.
bool FullNeuralNow(Serving& s) {
  PythiaSystem& sys = *s.system;
  if (sys.governor() != nullptr &&
      sys.governor()->rung() != DegradationRung::kFullNeural) {
    return false;
  }
  return sys.breaker().state() == BreakerState::kClosed &&
         sys.watchdog(0).health() == ModelHealth::kHealthy;
}

uint64_t PagesHash(const std::vector<PageId>& pages) {
  uint64_t h = kFnvOffsetBasis;
  for (const PageId& p : pages) h = FnvPod(h, p.Pack());
  return h;
}

// Virtual outcome of one query or session: what a same-seed rerun and the
// traced run must reproduce bit for bit.
uint64_t Digest(const QueryRunMetrics& m, SimTime start_us, SimTime end_us) {
  uint64_t h = kFnvOffsetBasis;
  h = FnvPod(h, static_cast<int>(m.status.code()));
  h = FnvPod(h, m.elapsed_us);
  h = FnvPod(h, start_us);
  h = FnvPod(h, end_us);
  h = FnvPod(h, m.engaged);
  h = FnvPod(h, static_cast<int>(m.rung));
  h = FnvPod(h, m.degraded_by_breaker);
  h = FnvPod(h, m.degraded_by_watchdog);
  h = FnvPod(h, m.degraded_by_governor);
  h = FnvPod(h, m.deadline_exceeded);
  h = FnvPod(h, m.queue_wait_us);
  h = FnvPod(h, m.accuracy.f1);
  h = FnvPod(h, m.predicted_pages);
  h = FnvPod(h, m.pool_stats);
  h = FnvPod(h, m.prefetch_stats);
  return h;
}

void AddPrefetch(PrefetchSessionStats* into, const PrefetchSessionStats& s) {
  into->issued += s.issued;
  into->already_buffered += s.already_buffered;
  into->consumed += s.consumed;
  into->skipped_budget += s.skipped_budget;
  into->rejected_by_pool += s.rejected_by_pool;
  into->dropped_faulty += s.dropped_faulty;
  into->dropped_corrupt += s.dropped_corrupt;
  into->timed_out += s.timed_out;
  into->shed_by_governor += s.shed_by_governor;
  into->denied_by_governor += s.denied_by_governor;
  into->dropped_brownout += s.dropped_brownout;
}

// Layer counts over the fixed part of the timed phase (t91: round 0; fleet:
// rounds 0-3). Identical for a given seed, traced or not.
struct Counts {
  uint64_t queries = 0;
  uint64_t trace_accesses = 0;
  uint64_t unmatched = 0;
  uint64_t degraded = 0;
  uint64_t breaker_trips = 0;
  uint64_t watchdog_demotions = 0;
  uint64_t rung_degrades = 0;
  uint64_t pages_shed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t dedup_joins = 0;
  uint64_t predict_calls = 0;  // plans inferred: cache inserts
  uint64_t forward_rows = 0;
  uint64_t model_batches = 0;
  BufferPoolStats pool;
  PrefetchSessionStats prefetch;
  uint64_t corrupt_reads = 0;
  uint64_t injected_faults = 0;
  uint64_t hedges_issued = 0;
  uint64_t hedges_won = 0;
  uint64_t quarantines = 0;
  uint64_t io_busy_us = 0;
  std::vector<double> admission_wait_ms;
  size_t admission_queue_max = 0;

  void AddQuery(const QueryRunMetrics& m) {
    ++queries;
    if (m.degraded_by_breaker || m.degraded_by_watchdog ||
        m.degraded_by_governor) {
      ++degraded;
    }
    AddPrefetch(&prefetch, m.prefetch_stats);
  }
};

// The registry's per-channel I/O busy counters survive the scheduler resets
// a cold restart makes, so deltas around a round give its busy time.
uint64_t IoBusyUs(const Config& cfg) {
  uint64_t total = 0;
  for (size_t i = 0; i < cfg.sim.io_channels; ++i) {
    total += MetricsRegistry::Global()
                 .counter("io.channel." + std::to_string(i) + ".busy_us")
                 .value();
  }
  return total;
}

// Environment- and system-wide counters of one finished round.
void HarvestRound(Serving& s, Counts* c) {
  PythiaSystem& sys = *s.system;
  c->breaker_trips += sys.breaker().stats().trips;
  c->watchdog_demotions += sys.watchdog(0).stats().demotions;
  if (PrefetchGovernor* g = sys.governor()) {
    c->rung_degrades += g->stats().rung_degrades;
    c->pages_shed += g->stats().pages_shed;
  }
  const PredictionCacheStats& cs = sys.prediction_cache_stats();
  c->cache_hits += cs.hits;
  c->cache_misses += cs.misses;
  c->dedup_joins += cs.dedup_joins;
  c->predict_calls += sys.prediction_cache().size() + cs.evictions;
  OsPageCache& os = s.env->os_cache();
  c->corrupt_reads += os.corrupt_reads();
  for (size_t ch = 0; ch < os.num_channels(); ++ch) {
    if (const FaultInjector* inj = os.channel_fault_injector(ch)) {
      const FaultStats& f = inj->stats();
      c->injected_faults += f.injected_errors + f.injected_spikes +
                            f.injected_stalls + f.injected_bit_flips +
                            f.injected_torn_writes + f.injected_stale_reads +
                            f.injected_brownout_reads;
    }
  }
  if (ChannelHealthTracker* health = s.env->channel_health()) {
    c->hedges_issued += health->counters().hedges_issued;
    c->hedges_won += health->counters().hedges_won;
  }
  if (ChannelBreakerBoard* board = s.env->channel_breakers()) {
    c->quarantines += board->stats().quarantines + board->stats().requarantines;
  }
}

struct HostSample {
  double steal_ms = 0;
  long involuntary_switches = 0;
};

HostSample SampleHost() {
  HostSample h;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  if (stat >> cpu) {
    for (unsigned long long& x : v) stat >> x;
  }
  h.steal_ms = static_cast<double>(v[7]) * 1000.0 /
               static_cast<double>(sysconf(_SC_CLK_TCK));
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  h.involuntary_switches = ru.ru_nivcsw;
  return h;
}

// One timed phase (traced or not).
struct Phase {
  // Fixed part: per query / session digests, virtual latency, F1, counts.
  std::vector<uint64_t> digest;
  std::vector<double> virtual_ms;
  std::vector<double> f1;
  std::vector<SimTime> elapsed_us;  // t91: per query; fleet: due -> done
  Counts counts;
  // Whole phase.
  // t91: per query, the median of its repeats across rounds; fleet: per
  // session, per arrival set, the median of the set's repeats.
  std::vector<double> wall_us;
  std::vector<double> slice_rate;  // queries (sessions) per wall second
  double timed_s = 0;
  uint64_t served = 0;
  uint64_t fetches = 0;  // buffer-pool fetches served, every round
  size_t rounds = 0;
  Outcome outcome;
  std::vector<std::string> failures;
  HostSample host;  // deltas over the phase
};

void Fail(Phase* p, std::string what) {
  if (std::find(p->failures.begin(), p->failures.end(), what) ==
      p->failures.end()) {
    p->failures.push_back(std::move(what));
  }
}

// t91_cold and t91_faulty: one client, closed loop. Each round serves the
// same 1000 fresh queries cold on a fresh environment and system, so every
// round reproduces round 0; the phase ends once round 0 is done and
// `seconds` have been spent serving.
Phase RunT91Phase(const Config& cfg, const Inputs& in, WorkloadModel& model,
                  double seconds, SpanRecorder* rec) {
  Phase p;
  const std::vector<WorkloadQuery>& queries = in.t91.queries;
  const PrefetcherOptions popts;
  const HostSample h0 = SampleHost();
  std::vector<uint64_t> round0;
  std::vector<double> served_us;                     // every query, in order
  std::vector<std::vector<double>> repeats(queries.size());  // by query
  for (size_t round = 0;; ++round) {
    Serving s = MakeServing(cfg, in, model);
    const uint64_t io0 = IoBusyUs(cfg);
    bool stop = false;
    const Clock::time_point round_start = Clock::now();
    for (size_t i = 0; i < queries.size() && !stop; ++i) {
      const WorkloadQuery& q = queries[i];
      const int64_t qid = static_cast<int64_t>(i);
      const Clock::time_point t0 = Clock::now();
      QueryRunMetrics m;
      if (rec->enabled()) {
        ScopedSpan query(rec, "query", qid);
        if (FullNeuralNow(s)) {
          ScopedSpan plan(rec, "core.system.plan", qid);
          s.system->PrefetchPlan(q, RunMode::kPythia, nullptr);
        }
        ScopedSpan run(rec, "core.replay.run", qid);
        m = s.system->RunQuery(q, RunMode::kPythia, popts, /*cold=*/true);
      } else {
        m = s.system->RunQuery(q, RunMode::kPythia, popts, /*cold=*/true);
      }
      const Clock::time_point t1 = Clock::now();
      served_us.push_back(Seconds(t1 - t0) * 1e6);
      repeats[i].push_back(served_us.back());
      p.outcome.Add(m);
      p.fetches += m.pool_stats.fetches;
      const uint64_t d = Digest(m, 0, 0);
      if (round == 0) {
        round0.push_back(d);
        p.virtual_ms.push_back(static_cast<double>(m.elapsed_us) / 1000.0);
        p.elapsed_us.push_back(m.status.ok() ? m.elapsed_us : 0);
        if (m.engaged) p.f1.push_back(m.accuracy.f1);
        p.counts.AddQuery(m);
        p.counts.trace_accesses += q.trace.accesses.size();
        AccumulateStats(&p.counts.pool, m.pool_stats);
      } else {
        if (d != round0[i]) Fail(&p, "a later round did not reproduce round 0");
        stop = p.timed_s + Seconds(t1 - round_start) >= seconds;
      }
    }
    p.timed_s += Seconds(Clock::now() - round_start);
    ++p.rounds;
    if (!PinsReleased(s)) Fail(&p, "pins remain after a round");
    if (round == 0) {
      p.counts.io_busy_us = IoBusyUs(cfg) - io0;
      HarvestRound(s, &p.counts);
      // Fold each query's prefetch page list (as memoized) into its digest.
      for (size_t i = 0; i < queries.size(); ++i) {
        if (s.system->MatchWorkload(queries[i]) == nullptr) {
          ++p.counts.unmatched;
        }
        const std::vector<PageId> pages =
            s.system->CachedPlanOnly(queries[i], RunMode::kPythia, nullptr);
        p.digest.push_back(FnvPod(round0[i], PagesHash(pages)));
      }
    }
    if (stop || p.timed_s >= seconds) break;
  }
  p.served = served_us.size();
  for (size_t i = 0; i + kSliceQueries <= served_us.size(); i += kSliceQueries) {
    double us = 0;
    for (size_t j = i; j < i + kSliceQueries; ++j) us += served_us[j];
    p.slice_rate.push_back(static_cast<double>(kSliceQueries) * 1e6 / us);
  }
  // Every round serves the same work (the digest check above), so a query's
  // wall time is the median of its repeats: a burst of host noise that slows
  // one repeat does not move it, while a query that is slow every time stays
  // in the tail.
  for (const std::vector<double>& r : repeats) {
    p.wall_us.push_back(Percentile(Sorted(r), 50));
  }
  const HostSample h1 = SampleHost();
  p.host.steal_ms = h1.steal_ms - h0.steal_ms;
  p.host.involuntary_switches =
      h1.involuntary_switches - h0.involuntary_switches;
  return p;
}

const WorkloadQuery& SessionQuery(const Inputs& in,
                                  const FleetSessionSpec& spec) {
  const Workload& w = spec.workload_index == 0 ? in.t91 : in.t19;
  return w.queries[spec.query_index];
}

ConcurrentOptions FleetAdmission(Serving& s) {
  ConcurrentOptions copts;
  copts.governor = s.system->governor();
  copts.max_active_queries = kAdmissionSlots;
  copts.admission_queue_limit = kFleetSessions;
  return copts;
}

struct FleetRound {
  ConcurrentResult result;
  std::vector<BatchPrediction> plans;  // by session
  BatchPredictorStats batch;
};

// One fleet round: every session planned through the batch predictor as it
// arrives, then all of them replayed in one ReplayConcurrent call under the
// governor and 16 admission slots.
FleetRound ServeFleet(Serving& s, const Inputs& in,
                      const std::vector<FleetSessionSpec>& sessions,
                      SpanRecorder* rec) {
  FleetRound r;
  {
    BatchPredictor bp(s.system.get(), BatchPredictorOptions{});
    std::vector<BatchPrediction> done;
    done.reserve(sessions.size());
    for (size_t i = 0; i < sessions.size(); ++i) {
      const int64_t sid = static_cast<int64_t>(i);
      {
        ScopedSpan pump(rec, "core.batch_predictor.pump", sid);
        bp.PumpTo(sessions[i].arrival_us, &done);
      }
      ScopedSpan submit(rec, "core.batch_predictor.submit", sid);
      bp.Submit(i, SessionQuery(in, sessions[i]), sessions[i].arrival_us,
                &done);
    }
    while (bp.pending() > 0) {
      ScopedSpan pump(rec, "core.batch_predictor.pump", -1);
      bp.PumpTo(bp.NextDeadline(), &done);
    }
    r.batch = bp.stats();
    r.plans.resize(sessions.size());
    for (BatchPrediction& p : done) r.plans[p.ticket] = std::move(p);
  }
  std::vector<ConcurrentQuery> batch(sessions.size());
  for (size_t i = 0; i < sessions.size(); ++i) {
    ConcurrentQuery& cq = batch[i];
    cq.trace = &SessionQuery(in, sessions[i]).trace;
    cq.prefetch_pages = r.plans[i].pages;
    cq.arrival_us = sessions[i].arrival_us;
    cq.prefetch_options.priority = sessions[i].priority;
    cq.prefetch_options.governor = s.system->governor();
    // A session cannot prefetch before its batch window flushed.
    cq.prefetch_options.start_delay_us +=
        r.plans[i].ready_us - sessions[i].arrival_us;
    cq.planned = r.plans[i].planned;
  }
  ScopedSpan replay(rec, "core.replay.concurrent", -1);
  r.result = ReplayConcurrent(batch, FleetAdmission(s), s.env.get());
  return r;
}

// Most sessions ever waiting in the admission queue at once. Arrivals are
// in order, so at session i's arrival the queue holds the sessions up to i
// that arrived but were not yet admitted.
size_t MaxQueueDepth(const std::vector<FleetSessionSpec>& sessions,
                     const ConcurrentResult& r) {
  size_t most = 0;
  for (size_t i = 0; i < sessions.size(); ++i) {
    size_t waiting = 0;
    for (size_t j = 0; j <= i; ++j) {
      if (r.start_us[j] > sessions[i].arrival_us) ++waiting;
    }
    most = std::max(most, waiting);
  }
  return most;
}

// zipf_fleet: open loop in virtual time. Round r replays the sessions of
// arrival set r % 4 on a fresh environment and system, so rounds 0-3 are the
// fixed part and every later round must reproduce its set's fixed round. The
// phase runs rounds until the first four are done and `seconds` have been
// spent serving.
Phase RunFleetPhase(const Config& cfg, const Inputs& in, WorkloadModel& model,
                    double seconds, SpanRecorder* rec) {
  Phase p;
  std::set<std::pair<size_t, size_t>> scored;
  // Per arrival set, wall time per session of each of its rounds.
  std::vector<std::vector<double>> set_wall_us(kFleetFixedRounds);
  const HostSample h0 = SampleHost();
  for (size_t round = 0;; ++round) {
    const size_t set = round % kFleetFixedRounds;
    const std::vector<FleetSessionSpec> sessions =
        FleetArrivals(in, set, cfg.fleet_gap_us);
    Serving s = MakeServing(cfg, in, model);
    const uint64_t io0 = IoBusyUs(cfg);
    const Clock::time_point round_start = Clock::now();
    FleetRound r;
    {
      ScopedSpan span(rec, "round", static_cast<int64_t>(round));
      r = ServeFleet(s, in, sessions, rec);
    }
    const double wall = Seconds(Clock::now() - round_start);
    p.timed_s += wall;
    set_wall_us[set].push_back(wall * 1e6 /
                               static_cast<double>(sessions.size()));
    p.slice_rate.push_back(static_cast<double>(sessions.size()) / wall);
    ++p.rounds;
    const BufferPoolStats pool = s.env->pool().stats();
    p.fetches += pool.fetches;
    uint64_t rejected = 0;
    for (const QueryRunMetrics& m : r.result.queries) {
      p.outcome.Add(m);
      if (m.status.code() == StatusCode::kResourceExhausted) ++rejected;
    }
    const AdmissionStats& a = r.result.admission;
    if (a.admitted_immediately + a.admitted_after_wait + a.rejected !=
            sessions.size() ||
        a.rejected != rejected) {
      Fail(&p, "admitted + rejected != attempted");
    }
    if (!PinsReleased(s)) Fail(&p, "pins remain after a round");
    for (size_t i = 0; i < sessions.size(); ++i) {
      const uint64_t d =
          FnvPod(Digest(r.result.queries[i], r.result.start_us[i],
                        r.result.end_us[i]),
                 PagesHash(r.plans[i].pages));
      if (round < kFleetFixedRounds) {
        p.digest.push_back(d);
      } else if (d != p.digest[set * sessions.size() + i]) {
        Fail(&p, "a later round did not reproduce its fixed round");
      }
    }
    if (round < kFleetFixedRounds) {
      Counts& c = p.counts;
      for (size_t i = 0; i < sessions.size(); ++i) {
        const QueryRunMetrics& m = r.result.queries[i];
        c.AddQuery(m);
        c.trace_accesses += SessionQuery(in, sessions[i]).trace.accesses.size();
        const SimTime due_to_done = r.result.end_us[i] - sessions[i].arrival_us;
        p.elapsed_us.push_back(m.status.ok() ? due_to_done : 0);
        if (!m.status.ok()) continue;
        p.virtual_ms.push_back(static_cast<double>(due_to_done) / 1000.0);
        // F1 once per distinct plan: hot plans repeat, and their sessions
        // would otherwise decide the median alone.
        if (m.engaged &&
            scored.insert({sessions[i].workload_index, sessions[i].query_index})
                .second) {
          p.f1.push_back(m.accuracy.f1);
        }
        c.admission_wait_ms.push_back(static_cast<double>(m.queue_wait_us) /
                                      1000.0);
      }
      AccumulateStats(&c.pool, pool);
      c.admission_queue_max =
          std::max(c.admission_queue_max, MaxQueueDepth(sessions, r.result));
      c.unmatched += r.batch.unmatched;
      c.forward_rows += r.batch.forward_rows;
      c.model_batches += r.batch.model_batches;
      c.io_busy_us += IoBusyUs(cfg) - io0;
      HarvestRound(s, &c);
    }
    if (round + 1 >= kFleetFixedRounds && p.timed_s >= seconds) break;
  }
  p.served = p.outcome.attempted;
  // As on t91: a burst of host noise slows one repeat of a set, not its
  // median.
  for (const std::vector<double>& r : set_wall_us) {
    p.wall_us.push_back(Percentile(Sorted(r), 50));
  }
  const HostSample h1 = SampleHost();
  p.host.steal_ms = h1.steal_ms - h0.steal_ms;
  p.host.involuntary_switches =
      h1.involuntary_switches - h0.involuntary_switches;
  return p;
}

// Derives the fleet's arrival rate from its own traffic, as
// bench/bench_fleet.cc does, instead of fixing a gap: each of round 0's
// sessions is served alone and cold on an ungoverned system, and the mean
// gap spreads their mean virtual time over the admission slots at
// kFleetOfferedLoad. Popularity does not depend on the gap, so round 0's
// sessions are the ones the timed phase serves. Virtual time: exact per seed.
Status CalibrateFleet(const Inputs& in, WorkloadModel& model, Config* cfg) {
  Config solo = *cfg;
  solo.governed = false;
  Serving s = MakeServing(solo, in, model);
  const std::vector<FleetSessionSpec> sessions = FleetArrivals(in, 0, 1.0);
  double total_us = 0;
  for (const FleetSessionSpec& spec : sessions) {
    const QueryRunMetrics m = s.system->RunQuery(
        SessionQuery(in, spec), RunMode::kPythia, PrefetcherOptions{},
        /*cold=*/true);
    if (!m.status.ok()) return m.status;
    total_us += static_cast<double>(m.elapsed_us);
  }
  cfg->fleet_solo_us = total_us / static_cast<double>(sessions.size());
  cfg->fleet_gap_us = cfg->fleet_solo_us /
                      (static_cast<double>(kAdmissionSlots) * kFleetOfferedLoad);
  return Status::OK();
}

// Untimed warm-up prefix on a throwaway system.
void WarmUp(const Config& cfg, const Inputs& in, WorkloadModel& model) {
  Serving s = MakeServing(cfg, in, model);
  SpanRecorder off(false);
  if (cfg.kind == WorkloadKind::kZipfFleet) {
    std::vector<FleetSessionSpec> sessions =
        FleetArrivals(in, 0, cfg.fleet_gap_us);
    sessions.resize(kWarmupSessions);
    ServeFleet(s, in, sessions, &off);
    return;
  }
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    s.system->RunQuery(in.t91.queries[i], RunMode::kPythia,
                       PrefetcherOptions{}, /*cold=*/true);
  }
}

// DFLT virtual latency of the speedup sample, untimed, in its own
// environment: the first kSpeedupSample queries, or round 0's sessions.
std::vector<SimTime> DefaultBaseline(const Config& cfg, const Inputs& in,
                                     WorkloadModel& model, Phase* p) {
  Serving s = MakeServing(cfg, in, model);
  std::vector<SimTime> out;
  if (cfg.kind == WorkloadKind::kZipfFleet) {
    const std::vector<FleetSessionSpec> sessions =
        FleetArrivals(in, 0, cfg.fleet_gap_us);
    std::vector<ConcurrentQuery> batch;
    for (const FleetSessionSpec& spec : sessions) {
      PrefetcherOptions popts;
      popts.priority = spec.priority;
      batch.push_back(s.system->PlanConcurrentQuery(
          SessionQuery(in, spec), RunMode::kDefault, spec.arrival_us, popts));
    }
    const ConcurrentResult r =
        ReplayConcurrent(batch, FleetAdmission(s), s.env.get());
    for (size_t i = 0; i < sessions.size(); ++i) {
      const bool ok = r.queries[i].status.ok();
      if (!ok) Fail(p, "a DFLT baseline session failed");
      out.push_back(ok ? r.end_us[i] - sessions[i].arrival_us : 0);
    }
    return out;
  }
  for (size_t i = 0; i < kSpeedupSample; ++i) {
    const QueryRunMetrics m = s.system->RunQuery(
        in.t91.queries[i], RunMode::kDefault, PrefetcherOptions{}, true);
    if (!m.status.ok()) Fail(p, "a DFLT baseline query failed");
    out.push_back(m.status.ok() ? m.elapsed_us : 0);
  }
  return out;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Durations (µs) of every span named `name`.
std::vector<double> SpanDurationsUs(const std::vector<Span>& spans,
                                    const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double t = 0;
  for (double x : v) t += x;
  return t;
}

struct Trace {
  Phase phase;
  std::vector<Span> spans;
  std::vector<int64_t> self_ns;
  std::vector<double> predict_us;  // direct WorkloadModel::Predict calls
  double overhead = 0;
  std::vector<Metric> shares;      // Amdahl rows: layer, share of query wall
};

// Self time summed by span name.
std::map<std::string, double> SelfByName(const std::vector<Span>& spans,
                                         const std::vector<int64_t>& self) {
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += static_cast<double>(self[i]);
  }
  return out;
}

Trace RunTraced(const Config& cfg, const Inputs& in, WorkloadModel& model,
                double seconds, const Phase& untraced) {
  Trace t;
  SpanRecorder rec(true);
  const bool fleet = cfg.kind == WorkloadKind::kZipfFleet;
  t.phase = fleet ? RunFleetPhase(cfg, in, model, seconds, &rec)
                  : RunT91Phase(cfg, in, model, seconds, &rec);
  if (t.phase.digest != untraced.digest) {
    Fail(&t.phase, "traced virtual digest differs from the untraced run");
  }
  // WorkloadModel::Predict on the same plans, outside the query loop.
  {
    Serving s = MakeServing(cfg, in, model);
    WorkloadModel& m = s.system->model(0);
    const std::vector<WorkloadQuery>& plans = in.t91.queries;
    for (size_t i = 0; i < kPredictCalls; ++i) {
      const Clock::time_point t0 = Clock::now();
      m.Predict(plans[i % plans.size()].tokens);
      t.predict_us.push_back(Seconds(Clock::now() - t0) * 1e6);
    }
  }
  t.spans = rec.spans();
  const std::vector<Span>& spans = t.spans;
  t.self_ns = SelfTimes(spans);
  const std::map<std::string, double> self = SelfByName(spans, t.self_ns);
  auto get = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const char* root = fleet ? "round" : "query";
  const double total_ns = Sum(SpanDurationsUs(spans, root)) * 1000.0;
  const double traced_per_item = total_ns / 1000.0 /
                                 static_cast<double>(t.phase.served);
  const double untraced_per_item =
      untraced.timed_s * 1e6 / static_cast<double>(untraced.served);
  t.overhead = Ratio(traced_per_item, untraced_per_item) - 1.0;
  if (fleet) {
    t.shares.push_back({"core.batch_predictor (inference inside)",
                        Ratio(get("core.batch_predictor.submit") +
                                  get("core.batch_predictor.pump"),
                              total_ns),
                        "share"});
    t.shares.push_back({"core.replay (ReplayConcurrent)",
                        Ratio(get("core.replay.concurrent"), total_ns),
                        "share"});
    t.shares.push_back({"harness (specs, bookkeeping)",
                        Ratio(get("round"), total_ns), "share"});
  } else {
    // Predict runs inside the plan span; its share is estimated from the
    // direct calls on the same plans: inferred plans x mean call time.
    const double mean_predict_ns = Sum(t.predict_us) * 1000.0 /
                                   static_cast<double>(t.predict_us.size());
    const double round0_ns =
        total_ns * static_cast<double>(in.t91.queries.size()) /
        static_cast<double>(t.phase.served);
    t.shares.push_back(
        {"core.predictor (Predict, paired estimate)",
         Ratio(static_cast<double>(untraced.counts.predict_calls) *
                   mean_predict_ns,
               round0_ns),
         "share"});
    t.shares.push_back({"core.system.plan (PrefetchPlan)",
                        Ratio(get("core.system.plan"), total_ns), "share"});
    t.shares.push_back({"core.replay (RunQuery, plan cached)",
                        Ratio(get("core.replay.run"), total_ns), "share"});
    t.shares.push_back({"harness (loop, bookkeeping)",
                        Ratio(get("query"), total_ns), "share"});
  }
  return t;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<int64_t>& self) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write spans to %s\n", path.c_str());
    return;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"query\":%lld,"
                 "\"self_ns\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.query),
                 static_cast<long long>(self[i]));
  }
  std::fclose(f);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetricsTable(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload t91_cold|zipf_fleet|"
               "t91_faulty --seed N --seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  WorkloadKind kind = WorkloadKind::kT91Cold;
  bool have_workload = false;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &kind)) return Usage();
      have_workload = true;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || seconds <= 0) return Usage();

  // --- Setup: database, generated inputs, training, fleet arrival rate. ---
  const Clock::time_point setup_start = Clock::now();
  Inputs in;
  if (Status s = MakeInputs(kind, seed, &in); !s.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 s.ToString().c_str());
    return 2;
  }
  const double generate_s = Seconds(Clock::now() - setup_start);
  PredictorOptions popts;
  popts.num_threads = kPredictorLanes;
  const Clock::time_point train_start = Clock::now();
  Result<WorkloadModel> trained = WorkloadModel::Train(*in.db, in.train, popts);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 trained.status().ToString().c_str());
    return 2;
  }
  WorkloadModel model = std::move(*trained);
  const double train_s = Seconds(Clock::now() - train_start);
  Config cfg = MakeConfig(kind, in);
  const bool fleet = kind == WorkloadKind::kZipfFleet;
  if (fleet) {
    if (Status s = CalibrateFleet(in, model, &cfg); !s.ok()) {
      std::fprintf(stderr, "fleet calibration failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
  }
  const double setup_s = Seconds(Clock::now() - setup_start);

  // --- Serving. -----------------------------------------------------------
  WarmUp(cfg, in, model);
  SpanRecorder off(false);
  Phase p = fleet ? RunFleetPhase(cfg, in, model, seconds, &off)
                  : RunT91Phase(cfg, in, model, seconds, &off);

  // --- Measurement aids, untimed. -----------------------------------------
  const std::vector<SimTime> dflt = DefaultBaseline(cfg, in, model, &p);
  std::vector<double> speedup;
  for (size_t i = 0; i < dflt.size() && i < p.elapsed_us.size(); ++i) {
    if (dflt[i] == 0 || p.elapsed_us[i] == 0) continue;  // a failed query
    speedup.push_back(static_cast<double>(dflt[i]) /
                      static_cast<double>(p.elapsed_us[i]));
  }
  Trace t;
  if (trace) {
    t = RunTraced(cfg, in, model, seconds, p);
    if (!spans_path.empty()) WriteSpans(spans_path, t.spans, t.self_ns);
  }

  // --- Checks. ------------------------------------------------------------
  std::vector<std::string> failures = p.failures;
  for (const std::string& f : t.phase.failures) failures.push_back(f);
  const std::vector<double> wall = Sorted(p.wall_us);
  const std::vector<double> virt = Sorted(p.virtual_ms);
  const double speedup_p50 = Percentile(Sorted(speedup), 50);
  if (kind == WorkloadKind::kT91Cold && speedup_p50 < kSpeedupFloor) {
    failures.push_back("virtual_speedup.p50 below the floor of " +
                       Num(kSpeedupFloor));
  }
  if (TailPercentile(virt.size()) < 99.0 ||
      (!fleet && TailPercentile(wall.size()) < 99.0)) {
    failures.push_back("a p99 rests on fewer than 10 samples beyond it");
  }

  // --- Metrics. -----------------------------------------------------------
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const std::vector<Metric> end_to_end = {
      {"setup_s", setup_s, "s"},
      {"queries_per_s", Percentile(Sorted(p.slice_rate), 50), "1/s"},
      {"query_wall_us.p50", Percentile(wall, 50), "us"},
      {"query_wall_us.p99", Percentile(wall, 99), "us"},
      {"virtual_latency_ms.p50", Percentile(virt, 50), "ms"},
      {"virtual_latency_ms.p99", Percentile(virt, 99), "ms"},
      {"virtual_speedup.p50", speedup_p50, "x"},
      {"f1.p50", Percentile(Sorted(p.f1), 50), "ratio"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
  };

  const Counts& c = p.counts;
  const std::vector<Span>& spans = t.spans;
  const std::vector<double> plan_us = Sorted(SpanDurationsUs(spans, "core.system.plan"));
  const std::vector<double> run_us = Sorted(SpanDurationsUs(spans, "core.replay.run"));
  const std::vector<double> replay_us =
      Sorted(SpanDurationsUs(spans, "core.replay.concurrent"));
  const std::vector<double> predict_us = Sorted(t.predict_us);
  // Batch-predictor wall per fleet round: submit and pump spans by round.
  std::map<int32_t, double> plan_by_round;
  for (const Span& s : spans) {
    if (std::strncmp(s.name, "core.batch_predictor.", 21) == 0) {
      plan_by_round[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<double> batch_plan_s;
  for (const auto& [round, ns] : plan_by_round) {
    batch_plan_s.push_back(ns / 1e9);
  }
  batch_plan_s = Sorted(batch_plan_s);
  const double replay_ns = (fleet ? Sum(replay_us) : Sum(run_us)) * 1000.0;
  auto share = [&](const char* prefix) {
    for (const Metric& m : t.shares) {
      if (m.name.rfind(prefix, 0) == 0) return m.value;
    }
    return 0.0;
  };
  const std::vector<Metric> per_layer = {
      {"workload.generate_s", generate_s, "s"},
      {"workload.accesses_per_query",
       Ratio(static_cast<double>(c.trace_accesses),
             static_cast<double>(c.queries)),
       "count"},
      {"core.predictor.train_s", train_s, "s"},
      {"core.predictor.predict_us.p50", Percentile(predict_us, 50), "us"},
      {"core.predictor.predict_us.p99", Percentile(predict_us, 99), "us"},
      {"core.predictor.predict_calls", static_cast<double>(c.predict_calls),
       "count"},
      {"core.system.plan_us.p50", Percentile(plan_us, 50), "us"},
      {"core.system.plan_us.p99", Percentile(plan_us, 99), "us"},
      {"core.system.unmatched", static_cast<double>(c.unmatched), "count"},
      {"core.system.degraded_queries", static_cast<double>(c.degraded),
       "count"},
      {"core.system.breaker_trips", static_cast<double>(c.breaker_trips),
       "count"},
      {"core.system.watchdog_demotions",
       static_cast<double>(c.watchdog_demotions), "count"},
      {"core.prediction_cache.hit_ratio",
       Ratio(static_cast<double>(c.cache_hits),
             static_cast<double>(c.cache_hits + c.cache_misses)),
       "ratio"},
      {"core.prediction_cache.dedup_joins", static_cast<double>(c.dedup_joins),
       "count"},
      {"core.batch_predictor.rows_per_forward",
       Ratio(static_cast<double>(c.forward_rows),
             static_cast<double>(c.model_batches)),
       "rows"},
      {"core.batch_predictor.plan_s", Percentile(batch_plan_s, 50), "s"},
      {"core.replay.run_us.p50", Percentile(run_us, 50), "us"},
      {"core.replay.run_us.p99", Percentile(run_us, 99), "us"},
      {"core.replay.concurrent_s", Percentile(replay_us, 50) / 1e6, "s"},
      {"core.replay.ns_per_access",
       Ratio(replay_ns, static_cast<double>(t.phase.fetches)), "ns"},
      {"core.replay.accesses", static_cast<double>(c.pool.fetches), "count"},
      {"core.prefetcher.issued", static_cast<double>(c.prefetch.issued),
       "count"},
      {"core.prefetcher.useful_ratio",
       Ratio(static_cast<double>(c.prefetch.consumed),
             static_cast<double>(c.prefetch.issued)),
       "ratio"},
      {"core.prefetcher.late", static_cast<double>(c.pool.prefetch_wait_hits),
       "count"},
      {"core.prefetcher.late_wait_ms",
       static_cast<double>(c.pool.prefetch_wait_us) / 1000.0, "ms"},
      {"core.prefetcher.dropped",
       static_cast<double>(c.prefetch.dropped_faulty +
                           c.prefetch.dropped_corrupt +
                           c.prefetch.dropped_brownout),
       "count"},
      {"core.prefetcher.timed_out", static_cast<double>(c.prefetch.timed_out),
       "count"},
      {"core.prefetcher.shed",
       static_cast<double>(c.prefetch.rejected_by_pool +
                           c.prefetch.shed_by_governor),
       "count"},
      {"core.governor.rung_degrades", static_cast<double>(c.rung_degrades),
       "count"},
      {"core.governor.pages_shed", static_cast<double>(c.pages_shed), "count"},
      {"core.governor.admission_wait_ms.p99",
       Percentile(Sorted(c.admission_wait_ms), 99), "ms"},
      {"core.governor.admission_queue_max",
       static_cast<double>(c.admission_queue_max), "count"},
      {"bufmgr.hit_ratio",
       Ratio(static_cast<double>(c.pool.buffer_hits + c.pool.prefetch_hits),
             static_cast<double>(c.pool.fetches)),
       "ratio"},
      {"bufmgr.evictions", static_cast<double>(c.pool.evictions), "count"},
      {"bufmgr.uncached_reads", static_cast<double>(c.pool.uncached_reads),
       "count"},
      {"bufmgr.read_retries", static_cast<double>(c.pool.read_retries),
       "count"},
      {"bufmgr.failed_fetches", static_cast<double>(c.pool.failed_fetches),
       "count"},
      {"storage.disk_random_reads",
       static_cast<double>(c.pool.disk_random_reads), "count"},
      {"storage.os_cache_copies", static_cast<double>(c.pool.os_cache_copies),
       "count"},
      {"storage.corrupt_reads", static_cast<double>(c.corrupt_reads), "count"},
      {"storage.injected_faults", static_cast<double>(c.injected_faults),
       "count"},
      {"storage.hedges_issued", static_cast<double>(c.hedges_issued), "count"},
      {"storage.hedge_win_ratio",
       Ratio(static_cast<double>(c.hedges_won),
             static_cast<double>(c.hedges_issued)),
       "ratio"},
      {"storage.channel_quarantines", static_cast<double>(c.quarantines),
       "count"},
      {"storage.io_busy_ms", static_cast<double>(c.io_busy_us) / 1000.0, "ms"},
      {"amdahl.core.predictor", share("core.predictor") + share("core.batch_predictor"), "share"},
      {"amdahl.core.system.plan", share("core.system.plan"), "share"},
      {"amdahl.core.replay", share("core.replay"), "share"},
      {"amdahl.harness", share("harness"), "share"},
      {"trace.overhead", t.overhead, "ratio"},
      {"host.steal_ms", p.host.steal_ms + t.phase.host.steal_ms, "ms"},
      {"host.involuntary_switches",
       static_cast<double>(p.host.involuntary_switches +
                           t.phase.host.involuntary_switches),
       "count"},
  };

  // --- Report. ------------------------------------------------------------
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              WorkloadName(kind), static_cast<unsigned long long>(seed),
              seconds, trace ? 1 : 0);
  std::printf(
      "timed phase: %llu %s in %.3f s over %zu rounds; wall tail p%g "
      "(n=%zu), virtual tail p%g (n=%zu)\n",
      static_cast<unsigned long long>(p.served),
      fleet ? "sessions" : "queries", p.timed_s, p.rounds,
      TailPercentile(wall.size()), wall.size(), TailPercentile(virt.size()),
      virt.size());
  if (fleet) {
    std::printf(
        "fleet arrivals: mean solo session %.1f virtual ms, mean gap %.3f "
        "virtual ms (offered load %.2f of %zu slots); admission queue at most "
        "%zu deep, admission wait p99 %.3f ms\n",
        cfg.fleet_solo_us / 1000.0, cfg.fleet_gap_us / 1000.0,
        kFleetOfferedLoad, kAdmissionSlots, c.admission_queue_max,
        Percentile(Sorted(c.admission_wait_ms), 99));
  }
  std::printf("failed_share %.6f (%llu of %llu)\n", p.outcome.failed_share(),
              static_cast<unsigned long long>(p.outcome.failed),
              static_cast<unsigned long long>(p.outcome.attempted));
  const PrefetchSessionStats& pf = c.prefetch;
  std::printf(
      "prefetch outcomes (fixed prefix): issued %llu already_buffered %llu "
      "consumed %llu | dropped: faulty %llu corrupt %llu brownout %llu | "
      "timed_out %llu rejected_by_pool %llu shed_by_governor %llu "
      "denied_by_governor %llu skipped_budget %llu | late %llu\n",
      static_cast<unsigned long long>(pf.issued),
      static_cast<unsigned long long>(pf.already_buffered),
      static_cast<unsigned long long>(pf.consumed),
      static_cast<unsigned long long>(pf.dropped_faulty),
      static_cast<unsigned long long>(pf.dropped_corrupt),
      static_cast<unsigned long long>(pf.dropped_brownout),
      static_cast<unsigned long long>(pf.timed_out),
      static_cast<unsigned long long>(pf.rejected_by_pool),
      static_cast<unsigned long long>(pf.shed_by_governor),
      static_cast<unsigned long long>(pf.denied_by_governor),
      static_cast<unsigned long long>(pf.skipped_budget),
      static_cast<unsigned long long>(c.pool.prefetch_wait_hits));
  PrintMetricsTable("end-to-end:", end_to_end);
  PrintMetricsTable("layer counts (fixed prefix) and traced wall times:",
                    per_layer);
  if (trace) {
    std::printf(
        "Amdahl, %s, traced (%llu %s): share of query wall time and the "
        "end-to-end ceiling if the layer cost nothing\n",
        WorkloadName(kind), static_cast<unsigned long long>(t.phase.served),
        fleet ? "sessions" : "queries");
    for (const Metric& m : t.shares) {
      std::printf("  %-45s %6.3f  %7.2fx\n", m.name.c_str(), m.value,
                  Ratio(1.0, 1.0 - m.value));
    }
    const double s = share("core.predictor") + share("core.batch_predictor");
    std::printf(
        "  inference 5.8x to 8.3x faster (the GEMM kernel range in "
        "BENCH_kernels.json): end-to-end %.3fx to %.3fx\n",
        Ratio(1.0, 1.0 - s + s / 5.8), Ratio(1.0, 1.0 - s + s / 8.3));
  }
  uint64_t digest = kFnvOffsetBasis;
  for (uint64_t d : p.digest) digest = FnvPod(digest, d);
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"host.vcpus\": %ld, \"host.cpu_model\": \"%s\", "
      "\"compiler\": \"%s\", \"simd\": \"%s\", \"predictor.lanes\": %zu, "
      "\"host.steal_ms\": %s, \"host.involuntary_switches\": %ld, "
      "\"served\": %llu, \"rounds\": %zu, \"virtual_digest\": \"%016llx\"}}\n",
      WorkloadName(kind), static_cast<unsigned long long>(seed),
      Num(seconds).c_str(), trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      JsonEscape(CpuModel()).c_str(), JsonEscape(Compiler()).c_str(),
      nn::SimdKernelsEnabled() ? "avx2+fma" : "scalar", kPredictorLanes,
      Num(p.host.steal_ms).c_str(), p.host.involuntary_switches,
      static_cast<unsigned long long>(p.served), p.rounds,
      static_cast<unsigned long long>(digest));
  for (const std::string& f : failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  const std::vector<Metric>& out = trace ? per_layer : end_to_end;
  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(p.outcome.attempted);
  json += ", \"failed\": " + std::to_string(p.outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + Num(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
