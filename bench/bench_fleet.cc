// Open-loop fleet harness: tens to hundreds of sessions with Poisson or
// bursty arrivals and Zipf-skewed template/query popularity, replayed
// concurrently under admission control and the PrefetchGovernor, with plan
// prediction served either sequentially (PythiaSystem::PlanConcurrentQuery,
// one forward pass per cache miss) or through the batched prediction engine
// (core/batch_predictor.h, one multi-row decoder GEMM per flush window).
//
// Self-checking, exit 1 on violation:
//  - bit-identical batching: for batch sizes {1, 4, 32, 128}, the batched
//    engine's page list for every session equals the sequential path's,
//    byte for byte (ungoverned systems, so every session plans full-neural);
//  - fleet scale: peak overlapping admitted sessions >= 50 — 10x the
//    5-query concurrency of the bench_fig13 harnesses;
//  - amortization: mean GEMM rows per forward pass >= 8 under the bursty
//    arm (the whole point of coalescing);
//  - dedupe observable: identical plans inside one window single-flight
//    (deduped > 0) and followers receive fanned-out results;
//  - governed tail: batched-arm p99 stays under a fixed multiple of the
//    uncontended solo runtime;
//  - hygiene: no pin leaks, every admitted session completes, rejection
//    accounting balances, and a same-seed rerun of the bursty batched arm
//    is byte-identical (only virtual-time quantities are serialized).
//
// Results land in BENCH_fleet.json. `--smoke` shrinks database scale,
// query population and session count for the CI fleet-smoke arm.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/json_writer.h"
#include "core/batch_predictor.h"
#include "core/replay.h"
#include "util/table_printer.h"

namespace pythia {
namespace {

struct FleetConfig {
  int scale_factor = 100;
  int num_queries = 300;  // per template
  int epochs = 20;
  size_t num_sessions = 600;
  size_t max_active = 64;
  size_t batch_rows = 64;
  SimTime flush_deadline_us = 2000;
  SimTime base_start_delay_us = 500;
  uint64_t fleet_seed = 20260808;
  // Calibrated from the uncontended solo runtime of session 0's query.
  SimTime solo_us = 0;
  SimTime mean_gap_us = 0;
  SimTime deadline_us = 0;
  SimTime burst_gap_us = 0;
  std::string key18, key91;
};

struct Fleet {
  const Workload* workloads[2] = {nullptr, nullptr};
  std::vector<FleetSessionSpec> sessions;

  const WorkloadQuery& Query(size_t i) const {
    const FleetSessionSpec& s = sessions[i];
    return workloads[s.workload_index]->queries[s.query_index];
  }
};

FleetOptions MakeFleetOptions(const FleetConfig& cfg, ArrivalProcess arrivals) {
  FleetOptions f;
  f.num_sessions = cfg.num_sessions;
  f.arrivals = arrivals;
  f.mean_gap_us = static_cast<double>(cfg.mean_gap_us);
  f.burst_size = cfg.batch_rows;
  f.burst_gap_us = cfg.burst_gap_us;
  f.intra_burst_gap_us = 10;
  f.seed = cfg.fleet_seed;
  return f;
}

// Fresh environment + system per arm: the prediction cache warms as a fleet
// runs, so sharing a system across arms would hand later arms a pre-warmed
// cache and fake their amortization numbers.
struct ArmSystem {
  std::unique_ptr<SimEnvironment> env;
  std::unique_ptr<PythiaSystem> system;
};

ArmSystem MakeSystem(const Workload& wl18, WorkloadModel& m18,
                     const Workload& wl91, WorkloadModel& m91,
                     bool governed) {
  ArmSystem a;
  a.env = std::make_unique<SimEnvironment>(bench::DefaultSim());
  a.system = std::make_unique<PythiaSystem>(a.env.get());
  a.system->AddWorkload(wl18, m18.Clone());
  a.system->AddWorkload(wl91, m91.Clone());
  if (governed) {
    GovernorOptions gopts;
    gopts.max_pinned_pages = 512;
    gopts.max_outstanding_aio = 32;
    a.system->EnableGovernor(gopts);
  }
  return a;
}

struct ArmResult {
  ConcurrentResult batch;
  GovernorStats governor;
  PredictionCacheStats cache;
  BatchPredictorStats bstats;  // zero for the sequential arms
  double rows_per_forward = 0.0;
  size_t peak_concurrency = 0;
  std::vector<double> latencies_us;
  double p50 = 0, p90 = 0, p99 = 0, max = 0;
  uint64_t completed = 0, rejected = 0;
};

// Maximum number of admitted sessions whose [start, end) intervals overlap.
size_t PeakConcurrency(const ConcurrentResult& r) {
  std::vector<std::pair<SimTime, int>> events;
  for (size_t i = 0; i < r.queries.size(); ++i) {
    if (!r.queries[i].status.ok()) continue;
    events.emplace_back(r.start_us[i], +1);
    events.emplace_back(r.end_us[i], -1);
  }
  // Half-open intervals: at a shared timestamp an end frees its slot before
  // the next start claims one.
  std::sort(events.begin(), events.end());
  size_t live = 0, peak = 0;
  for (const auto& [t, delta] : events) {
    (void)t;
    live = static_cast<size_t>(static_cast<int64_t>(live) + delta);
    peak = std::max(peak, live);
  }
  return peak;
}

void FinishArm(ArmResult* arm, const ArmSystem& a, const char* label) {
  if (a.env->pool().pinned_frames() != 0 ||
      (a.system->governor() != nullptr &&
       a.system->governor()->pinned_pages() != 0)) {
    std::fprintf(stderr, "FATAL: pin leak after %s arm\n", label);
    std::exit(1);
  }
  if (a.system->governor() != nullptr) {
    arm->governor = a.system->governor()->stats();
  }
  arm->cache = a.system->prediction_cache_stats();
  for (size_t i = 0; i < arm->batch.queries.size(); ++i) {
    const QueryRunMetrics& m = arm->batch.queries[i];
    if (m.status.code() == StatusCode::kResourceExhausted) {
      ++arm->rejected;
      continue;
    }
    if (!m.status.ok()) {
      std::fprintf(stderr, "FATAL: %s session %zu did not complete: %s\n",
                   label, i, m.status.ToString().c_str());
      std::exit(1);
    }
    ++arm->completed;
    arm->latencies_us.push_back(static_cast<double>(m.elapsed_us));
  }
  if (arm->rejected != arm->batch.admission.rejected) {
    std::fprintf(stderr, "FATAL: %s rejection accounting mismatch\n", label);
    std::exit(1);
  }
  arm->peak_concurrency = PeakConcurrency(arm->batch);
  std::sort(arm->latencies_us.begin(), arm->latencies_us.end());
  arm->p50 = Quantile(arm->latencies_us, 0.50);
  arm->p90 = Quantile(arm->latencies_us, 0.90);
  arm->p99 = Quantile(arm->latencies_us, 0.99);
  arm->max = arm->latencies_us.empty() ? 0.0 : arm->latencies_us.back();
}

ConcurrentOptions GovernedOptions(const FleetConfig& cfg,
                                  PythiaSystem* system) {
  ConcurrentOptions copts;
  copts.governor = system->governor();
  copts.max_active_queries = cfg.max_active;
  // Nothing bounces: the fleet criteria are about tail latency and
  // amortization, and rejected sessions would mute both signals.
  copts.admission_queue_limit = cfg.num_sessions;
  copts.default_deadline_us = cfg.deadline_us;
  return copts;
}

PrefetcherOptions SessionOptions(const FleetConfig& cfg,
                                 const FleetSessionSpec& s) {
  PrefetcherOptions popts;
  popts.start_delay_us = cfg.base_start_delay_us;
  popts.priority = s.priority;
  return popts;
}

ArmResult RunSequentialArm(const FleetConfig& cfg, const Fleet& fleet,
                           const ArmSystem& a, const char* label) {
  std::vector<ConcurrentQuery> batch;
  batch.reserve(fleet.sessions.size());
  for (size_t i = 0; i < fleet.sessions.size(); ++i) {
    const FleetSessionSpec& s = fleet.sessions[i];
    batch.push_back(a.system->PlanConcurrentQuery(
        fleet.Query(i), RunMode::kPythia, s.arrival_us,
        SessionOptions(cfg, s)));
  }
  ArmResult arm;
  arm.batch =
      ReplayConcurrent(batch, GovernedOptions(cfg, a.system.get()), a.env.get());
  FinishArm(&arm, a, label);
  return arm;
}

// Drives the fleet's arrivals through the batch predictor and returns the
// per-session predictions (indexed by session). `charge_wait` adds the
// batching delay (ready - arrival) to each session's prefetch start delay —
// on for the replayed arms, off for the pure equivalence probes.
std::vector<BatchPrediction> PredictFleet(const FleetConfig& cfg,
                                          const Fleet& fleet,
                                          PythiaSystem* system,
                                          size_t batch_rows,
                                          BatchPredictorStats* stats_out) {
  BatchPredictorOptions bopts;
  bopts.max_batch_rows = batch_rows;
  bopts.flush_deadline_us = cfg.flush_deadline_us;
  BatchPredictor bp(system, bopts);
  std::vector<BatchPrediction> done;
  done.reserve(fleet.sessions.size());
  for (size_t i = 0; i < fleet.sessions.size(); ++i) {
    bp.PumpTo(fleet.sessions[i].arrival_us, &done);
    bp.Submit(i, fleet.Query(i), fleet.sessions[i].arrival_us, &done);
  }
  if (bp.pending() > 0) bp.PumpTo(bp.NextDeadline(), &done);
  if (bp.pending() > 0 || done.size() != fleet.sessions.size()) {
    std::fprintf(stderr, "FATAL: batch predictor lost sessions (%zu/%zu)\n",
                 done.size(), fleet.sessions.size());
    std::exit(1);
  }
  if (stats_out != nullptr) *stats_out = bp.stats();
  // Results arrive in flush order; index by ticket for session order.
  std::vector<BatchPrediction> by_session(fleet.sessions.size());
  for (BatchPrediction& p : done) {
    by_session[p.ticket] = std::move(p);
  }
  return by_session;
}

ArmResult RunBatchedArm(const FleetConfig& cfg, const Fleet& fleet,
                        const ArmSystem& a, const char* label) {
  BatchPredictorStats bstats;
  std::vector<BatchPrediction> preds =
      PredictFleet(cfg, fleet, a.system.get(), cfg.batch_rows, &bstats);
  std::vector<ConcurrentQuery> batch(fleet.sessions.size());
  for (size_t i = 0; i < fleet.sessions.size(); ++i) {
    const FleetSessionSpec& s = fleet.sessions[i];
    ConcurrentQuery cq;
    cq.trace = &fleet.Query(i).trace;
    cq.prefetch_pages = std::move(preds[i].pages);
    cq.arrival_us = s.arrival_us;
    cq.prefetch_options = SessionOptions(cfg, s);
    // Honest batching cost: the session cannot start prefetching before
    // its window flushed, so the wait is charged to its start delay.
    cq.prefetch_options.start_delay_us +=
        preds[i].ready_us - s.arrival_us;
    cq.prefetch_options.governor = a.system->governor();
    cq.planned = preds[i].planned;
    batch[i] = std::move(cq);
  }
  ArmResult arm;
  arm.bstats = bstats;
  arm.batch =
      ReplayConcurrent(batch, GovernedOptions(cfg, a.system.get()), a.env.get());
  arm.rows_per_forward =
      bstats.model_batches == 0
          ? 0.0
          : static_cast<double>(bstats.forward_rows) /
                static_cast<double>(bstats.model_batches);
  FinishArm(&arm, a, label);
  return arm;
}

void WriteBatchStats(bench::JsonWriter& json, const BatchPredictorStats& b,
                     double rows_per_forward) {
  json.Key("batch_predictor").BeginObject();
  json.Field("submitted", b.submitted);
  json.Field("served_from_cache", b.served_from_cache);
  json.Field("deduped", b.deduped);
  json.Field("fanned_out", b.fanned_out);
  json.Field("unmatched", b.unmatched);
  json.Field("degraded", b.degraded);
  json.Field("cached_only_misses", b.cached_only_misses);
  json.Field("flushes", b.flushes);
  json.Field("size_flushes", b.size_flushes);
  json.Field("deadline_flushes", b.deadline_flushes);
  json.Field("final_flushes", b.final_flushes);
  json.Field("shed_windows", b.shed_windows);
  json.Field("forward_rows", b.forward_rows);
  json.Field("model_batches", b.model_batches);
  json.Field("rows_per_forward", rows_per_forward);
  json.EndObject();
}

void WriteArmJson(bench::JsonWriter& json, const char* name,
                  const ArmResult& arm, bool batched) {
  json.Key(name).BeginObject();
  json.Field("completed", arm.completed);
  json.Field("rejected", arm.rejected);
  json.Field("peak_concurrency", static_cast<uint64_t>(arm.peak_concurrency));
  json.Field("makespan_us", static_cast<uint64_t>(arm.batch.makespan_us));
  json.Field("total_query_us",
             static_cast<uint64_t>(arm.batch.total_query_us));
  json.Field("p50_us", arm.p50);
  json.Field("p90_us", arm.p90);
  json.Field("p99_us", arm.p99);
  json.Field("max_us", arm.max);
  json.Key("admission").BeginObject();
  json.Field("admitted_immediately", arm.batch.admission.admitted_immediately);
  json.Field("admitted_after_wait", arm.batch.admission.admitted_after_wait);
  json.Field("rejected", arm.batch.admission.rejected);
  json.Field("deadline_stops", arm.batch.admission.deadline_stops);
  json.Field("max_queue_wait_us",
             static_cast<uint64_t>(arm.batch.admission.max_queue_wait_us));
  json.EndObject();
  json.Key("governor").BeginObject();
  json.Field("pin_grants", arm.governor.pin_grants);
  json.Field("pin_denials", arm.governor.pin_denials);
  json.Field("pages_shed", arm.governor.pages_shed);
  json.Field("rung_degrades", arm.governor.rung_degrades);
  json.Field("rung_recoveries", arm.governor.rung_recoveries);
  json.EndObject();
  json.Key("prediction_cache").BeginObject();
  json.Field("hits", arm.cache.hits);
  json.Field("misses", arm.cache.misses);
  json.Field("evictions", arm.cache.evictions);
  json.Field("dedup_joins", arm.cache.dedup_joins);
  json.Field("fanouts", arm.cache.fanouts);
  json.EndObject();
  if (batched) WriteBatchStats(json, arm.bstats, arm.rows_per_forward);
  json.EndObject();
}

}  // namespace
}  // namespace pythia

int main(int argc, char** argv) {
  using namespace pythia;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  FleetConfig cfg;
  if (smoke) {
    cfg.scale_factor = 15;
    cfg.num_queries = 60;
    cfg.epochs = 8;
    cfg.num_sessions = 160;
    cfg.key18 = "fleet_t18_sf15_q60_e8";
    cfg.key91 = "fleet_t91_sf15_q60_e8";
  } else {
    cfg.key18 = "fleet_t18_sf100_q300";
    cfg.key91 = "fleet_t91_sf100_q300";
  }

  std::unique_ptr<Database> db = bench::Dsb(cfg.scale_factor);
  const Workload wl18 = bench::MakeWorkload(*db, TemplateId::kDsb18,
                                            cfg.num_queries);
  const Workload wl91 = bench::MakeWorkload(*db, TemplateId::kDsb91,
                                            cfg.num_queries);
  PredictorOptions popts = bench::DefaultPredictor();
  popts.epochs = cfg.epochs;
  WorkloadModel m18 = bench::CachedModel(*db, wl18, popts, cfg.key18);
  WorkloadModel m91 = bench::CachedModel(*db, wl91, popts, cfg.key91);

  // Calibrate gaps and deadlines from an uncontended solo run (virtual
  // time, exact and deterministic).
  {
    ArmSystem solo = MakeSystem(wl18, m18, wl91, m91, /*governed=*/false);
    QueryRunMetrics pm;
    const std::vector<PageId> plan = solo.system->PrefetchPlan(
        wl18.queries[0], RunMode::kPythia, &pm);
    PrefetcherOptions sp;
    sp.start_delay_us = cfg.base_start_delay_us;
    const QueryRunMetrics r =
        ReplayQuery(wl18.queries[0].trace, plan, sp, solo.env.get());
    if (!r.status.ok()) {
      std::fprintf(stderr, "solo replay failed: %s\n",
                   r.status.ToString().c_str());
      return 1;
    }
    cfg.solo_us = r.elapsed_us;
  }
  // 2x oversubscription against max_active slots, like bench_overload.
  cfg.mean_gap_us = std::max<SimTime>(1, cfg.solo_us / (2 * cfg.max_active));
  cfg.deadline_us = 2 * cfg.solo_us;
  cfg.burst_gap_us = std::max<SimTime>(1, 2 * cfg.solo_us);

  Fleet poisson;
  poisson.workloads[0] = &wl18;
  poisson.workloads[1] = &wl91;
  Fleet bursty = poisson;
  const std::vector<size_t> population = {wl18.queries.size(),
                                          wl91.queries.size()};
  poisson.sessions = GenerateFleetArrivals(
      population, MakeFleetOptions(cfg, ArrivalProcess::kPoisson));
  bursty.sessions = GenerateFleetArrivals(
      population, MakeFleetOptions(cfg, ArrivalProcess::kBursty));

  // --- Bit-identity: batched == sequential at every batch size -----------
  // Ungoverned fresh systems, so every session plans at full-neural and the
  // comparison covers the actual forward passes, not degraded shortcuts.
  std::vector<std::vector<PageId>> sequential_plans;
  {
    ArmSystem ref = MakeSystem(wl18, m18, wl91, m91, /*governed=*/false);
    for (size_t i = 0; i < bursty.sessions.size(); ++i) {
      QueryRunMetrics pm;
      sequential_plans.push_back(ref.system->PrefetchPlan(
          bursty.Query(i), RunMode::kPythia, &pm));
    }
  }
  const size_t kBatchSizes[] = {1, 4, 32, 128};
  for (size_t rows : kBatchSizes) {
    ArmSystem probe = MakeSystem(wl18, m18, wl91, m91, /*governed=*/false);
    std::vector<BatchPrediction> preds =
        PredictFleet(cfg, bursty, probe.system.get(), rows, nullptr);
    for (size_t i = 0; i < bursty.sessions.size(); ++i) {
      if (preds[i].pages != sequential_plans[i]) {
        std::fprintf(stderr,
                     "FATAL: batch size %zu: session %zu pages differ from "
                     "the sequential path\n",
                     rows, i);
        return 1;
      }
    }
  }

  // --- The four replayed arms --------------------------------------------
  auto run_pair = [&](const Fleet& fleet, const char* seq_label,
                      const char* bat_label) {
    ArmSystem seq_sys = MakeSystem(wl18, m18, wl91, m91, /*governed=*/true);
    ArmResult seq = RunSequentialArm(cfg, fleet, seq_sys, seq_label);
    ArmSystem bat_sys = MakeSystem(wl18, m18, wl91, m91, /*governed=*/true);
    ArmResult bat = RunBatchedArm(cfg, fleet, bat_sys, bat_label);
    return std::make_pair(std::move(seq), std::move(bat));
  };
  auto [poisson_seq, poisson_bat] =
      run_pair(poisson, "poisson-sequential", "poisson-batched");
  auto [bursty_seq, bursty_bat] =
      run_pair(bursty, "bursty-sequential", "bursty-batched");

  // --- Acceptance self-checks --------------------------------------------
  const size_t peak = std::max(
      {poisson_seq.peak_concurrency, poisson_bat.peak_concurrency,
       bursty_seq.peak_concurrency, bursty_bat.peak_concurrency});
  if (peak < 50) {
    std::fprintf(stderr, "FATAL: peak concurrency %zu < 50 sessions\n", peak);
    return 1;
  }
  if (bursty_bat.rows_per_forward < 8.0) {
    std::fprintf(stderr,
                 "FATAL: bursty mean rows per forward %.2f < 8 — batching "
                 "is not amortizing\n",
                 bursty_bat.rows_per_forward);
    return 1;
  }
  if (bursty_bat.bstats.deduped == 0 || bursty_bat.bstats.fanned_out == 0) {
    std::fprintf(stderr, "FATAL: single-flight dedupe never engaged\n");
    return 1;
  }
  const double p99_budget = 16.0 * static_cast<double>(cfg.solo_us);
  for (const ArmResult* arm : {&poisson_bat, &bursty_bat}) {
    if (arm->p99 > p99_budget) {
      std::fprintf(stderr,
                   "FATAL: batched p99 %.0fus exceeds budget %.0fus\n",
                   arm->p99, p99_budget);
      return 1;
    }
  }

  auto build_json = [&](const ArmResult& ps, const ArmResult& pb,
                        const ArmResult& bs, const ArmResult& bb) {
    bench::JsonWriter json;
    json.BeginObject();
    json.Field("bench", "fleet");
    json.Field("smoke", smoke);
    json.Field("scale_factor", cfg.scale_factor);
    json.Field("num_queries_per_template", cfg.num_queries);
    json.Field("num_sessions", static_cast<uint64_t>(cfg.num_sessions));
    json.Field("max_active", static_cast<uint64_t>(cfg.max_active));
    json.Field("batch_rows", static_cast<uint64_t>(cfg.batch_rows));
    json.Field("flush_deadline_us",
               static_cast<uint64_t>(cfg.flush_deadline_us));
    json.Field("fleet_seed", cfg.fleet_seed);
    json.Field("solo_us", static_cast<uint64_t>(cfg.solo_us));
    json.Field("mean_gap_us", static_cast<uint64_t>(cfg.mean_gap_us));
    json.Field("deadline_us", static_cast<uint64_t>(cfg.deadline_us));
    json.Field("burst_gap_us", static_cast<uint64_t>(cfg.burst_gap_us));
    json.Field("p99_budget_us", p99_budget);
    json.Key("equivalence").BeginObject();
    json.Key("batch_sizes").BeginArray();
    for (size_t rows : kBatchSizes) json.Uint(rows);
    json.EndArray();
    json.Field("bit_identical", true);  // enforced above, exit 1 otherwise
    json.EndObject();
    WriteArmJson(json, "poisson_sequential", ps, false);
    WriteArmJson(json, "poisson_batched", pb, true);
    WriteArmJson(json, "bursty_sequential", bs, false);
    WriteArmJson(json, "bursty_batched", bb, true);
    json.EndObject();
    return json;
  };
  const bench::JsonWriter json =
      build_json(poisson_seq, poisson_bat, bursty_seq, bursty_bat);

  // Determinism: rerun the bursty batched arm from identical seeds; the
  // full payload must reproduce byte for byte.
  {
    ArmSystem rerun_sys = MakeSystem(wl18, m18, wl91, m91, /*governed=*/true);
    ArmResult rerun = RunBatchedArm(cfg, bursty, rerun_sys, "bursty-rerun");
    if (build_json(poisson_seq, poisson_bat, bursty_seq, rerun).str() !=
        json.str()) {
      std::fprintf(stderr, "FATAL: same-seed rerun is not byte-identical\n");
      return 1;
    }
  }

  TablePrinter table({"arm", "completed", "peak", "p50 (ms)", "p99 (ms)",
                      "makespan (ms)", "cache hits", "deduped",
                      "rows/forward"});
  auto row = [&](const char* name, const ArmResult& arm, bool batched) {
    table.AddRow({name, std::to_string(arm.completed),
                  std::to_string(arm.peak_concurrency),
                  TablePrinter::Num(arm.p50 / 1000.0, 1),
                  TablePrinter::Num(arm.p99 / 1000.0, 1),
                  TablePrinter::Num(arm.batch.makespan_us / 1000.0, 1),
                  std::to_string(arm.cache.hits),
                  batched ? std::to_string(arm.bstats.deduped) : "-",
                  batched ? TablePrinter::Num(arm.rows_per_forward, 1) : "-"});
  };
  std::printf("=== Fleet: %zu sessions, 2 templates, Zipf popularity, "
              "max_active=%zu, batch window %zu rows / %llu us ===\n",
              cfg.num_sessions, cfg.max_active, cfg.batch_rows,
              static_cast<unsigned long long>(cfg.flush_deadline_us));
  row("poisson-sequential", poisson_seq, false);
  row("poisson-batched", poisson_bat, true);
  row("bursty-sequential", bursty_seq, false);
  row("bursty-batched", bursty_bat, true);
  table.Print();
  std::printf("\nall checks passed: batched == sequential bit-identical at "
              "batch sizes 1/4/32/128, peak concurrency %zu >= 50, bursty "
              "rows/forward %.1f >= 8, batched p99 %.1fms <= %.1fms budget, "
              "same-seed rerun byte-identical\n",
              peak, bursty_bat.rows_per_forward, bursty_bat.p99 / 1000.0,
              p99_budget / 1000.0);

  if (!json.WriteToFile("BENCH_fleet.json")) {
    std::fprintf(stderr, "warning: could not write BENCH_fleet.json\n");
    return 1;
  }
  std::printf("wrote BENCH_fleet.json\n");
  return 0;
}
