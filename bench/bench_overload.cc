// Overload chaos/soak harness: concurrent query load at 2x oversubscription
// with seeded fault injection (transient errors + tail-latency spikes + AIO
// stalls) and a deliberately mispredicting "model", replayed with and
// without the overload-protection stack (PrefetchGovernor + admission
// control + deadline budgets).
//
// Self-checking, exit 1 on violation:
//  - no pin leaks: buffer-pool pins and the governor's pin ledger are zero
//    after every batch;
//  - no starvation: every admitted query completes with OK status (rejected
//    queries are accounted, never silently dropped);
//  - bounded tail: governed p99 virtual latency stays under a fixed budget
//    relative to the uncontended solo runtime, and no worse than the
//    ungoverned arm's p99;
//  - graceful degradation is observable: under this load the ladder must
//    actually move (rung degrades > 0) and speculative work must actually
//    be shed or denied;
//  - determinism: the governed arm runs twice from identical seeds and the
//    full JSON payloads (every counter, every latency) must be
//    byte-identical.
//
// Results land in BENCH_overload.json. `--smoke` shrinks the workload for
// the CI chaos-soak arm: same checks, seconds not minutes.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/governor.h"
#include "core/replay.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/table_printer.h"

#include "bench/json_writer.h"

namespace pythia {
namespace {

struct BenchQuery {
  QueryTrace trace;
  std::vector<PageId> prefetch;
};

struct OverloadConfig {
  size_t num_queries = 32;
  size_t accesses_per_query = 4000;
  size_t max_active = 4;        // 2x oversubscription: ~8 overlapping
  size_t queue_limit = 8;
  SimTime deadline_us = 0;      // filled from solo runtime
  SimTime mean_gap_us = 0;      // filled from solo runtime
  double mispredict_fraction = 0.5;
  uint64_t seed = 20260805;
};

// Deterministic synthetic workload: sequential runs interleaved with random
// probes. The "model" predicts every probe but `mispredict_fraction` of its
// predictions point at pages the query never touches — those prefetches pin
// frames until shed/timed out, which is exactly the cache-polluting
// behaviour SeLeP/GrASP warn about and the governor exists to contain.
std::vector<BenchQuery> MakeWorkload(const OverloadConfig& cfg) {
  std::vector<BenchQuery> queries;
  Pcg32 rng(cfg.seed, 0x0f10);
  queries.reserve(cfg.num_queries);
  for (size_t q = 0; q < cfg.num_queries; ++q) {
    BenchQuery bq;
    const ObjectId heap = 1 + static_cast<ObjectId>(q % 4);
    uint32_t seq_page = rng.UniformU32(1000);
    for (size_t a = 0; a < cfg.accesses_per_query; ++a) {
      PageAccess access;
      access.cpu_tuples_before = 20 + rng.UniformU32(30);
      if (a % 4 == 3) {
        access.page = PageId{7, rng.UniformU32(200000)};
        access.sequential = false;
        if (rng.UniformDouble() < cfg.mispredict_fraction) {
          // Misprediction: a page nobody will ever fetch (distinct object).
          bq.prefetch.push_back(PageId{9, rng.UniformU32(200000)});
        } else {
          bq.prefetch.push_back(access.page);
        }
      } else {
        access.page = PageId{heap, seq_page++};
        access.sequential = true;
      }
      bq.trace.accesses.push_back(access);
    }
    queries.push_back(std::move(bq));
  }
  return queries;
}

SimOptions ChaosSim(uint64_t seed) {
  SimOptions sim;
  sim.buffer_pages = 512;   // small pool: concurrent sessions must contend
  sim.os_cache_pages = 4096;
  sim.io_channels = 4;
  sim.faults.transient_error_prob = 0.002;
  sim.faults.tail_latency_prob = 0.01;
  sim.faults.tail_latency_min_mult = 10.0;
  sim.faults.tail_latency_max_mult = 40.0;
  sim.faults.aio_stall_prob = 0.005;
  sim.faults.aio_stall_us = 20000;
  sim.faults.seed = seed;
  return sim;
}

struct ArmResult {
  ConcurrentResult batch;
  GovernorStats governor;
  size_t rung_served[kNumDegradationRungs] = {0, 0, 0, 0};
  std::vector<double> latencies_us;  // admitted queries only
  double p50 = 0, p90 = 0, p99 = 0, max = 0;
  uint64_t completed = 0, rejected = 0;
};

ArmResult RunArm(const std::vector<BenchQuery>& workload,
                 const OverloadConfig& cfg, bool governed) {
  SimEnvironment env(ChaosSim(cfg.seed));
  GovernorOptions gopts;
  gopts.max_pinned_pages = 192;  // well under what 8 greedy sessions want
  gopts.max_outstanding_aio = 16;
  PrefetchGovernor governor(gopts, &env.pool(), &env.io(), &env.os_cache());

  std::vector<ConcurrentQuery> batch;
  SimTime arrival = 0;
  Pcg32 arrivals_rng(cfg.seed, 0xa221);
  for (size_t i = 0; i < workload.size(); ++i) {
    ConcurrentQuery c;
    c.trace = &workload[i].trace;
    c.prefetch_pages = workload[i].prefetch;
    c.arrival_us = arrival;
    c.prefetch_options.start_delay_us = 500;
    c.prefetch_options.readahead_window = 64;
    c.prefetch_options.priority = static_cast<int>(i % 3);  // shed victims
    arrival += cfg.mean_gap_us / 2 +
               arrivals_rng.UniformU32(
                   static_cast<uint32_t>(cfg.mean_gap_us) + 1);
    batch.push_back(std::move(c));
  }

  ConcurrentOptions copts;
  if (governed) {
    copts.governor = &governor;
    copts.max_active_queries = cfg.max_active;
    copts.admission_queue_limit = cfg.queue_limit;
    copts.default_deadline_us = cfg.deadline_us;
  }

  ArmResult arm;
  arm.batch = ReplayConcurrent(batch, copts, &env);
  arm.governor = governor.stats();

  // Pin-leak check covers both ledgers: every admitted query finished, so
  // nothing in the pool may still be pinned and the governor's token count
  // must be back to zero.
  if (env.pool().pinned_frames() != 0 || governor.pinned_pages() != 0) {
    std::fprintf(stderr,
                 "FATAL: pin leak (%s): pool=%zu governor=%zu\n",
                 governed ? "governed" : "ungoverned",
                 env.pool().pinned_frames(), governor.pinned_pages());
    std::exit(1);
  }

  for (size_t i = 0; i < arm.batch.queries.size(); ++i) {
    const QueryRunMetrics& m = arm.batch.queries[i];
    if (m.status.code() == StatusCode::kResourceExhausted) {
      ++arm.rejected;
      continue;
    }
    if (!m.status.ok()) {
      std::fprintf(stderr, "FATAL: admitted query %zu did not complete: %s\n",
                   i, m.status.ToString().c_str());
      std::exit(1);
    }
    ++arm.completed;
    ++arm.rung_served[static_cast<int>(m.rung)];
    arm.latencies_us.push_back(static_cast<double>(m.elapsed_us));
  }
  if (arm.rejected != arm.batch.admission.rejected) {
    std::fprintf(stderr, "FATAL: rejection accounting mismatch\n");
    std::exit(1);
  }

  std::sort(arm.latencies_us.begin(), arm.latencies_us.end());
  arm.p50 = Quantile(arm.latencies_us, 0.50);
  arm.p90 = Quantile(arm.latencies_us, 0.90);
  arm.p99 = Quantile(arm.latencies_us, 0.99);
  arm.max = arm.latencies_us.empty() ? 0.0 : arm.latencies_us.back();
  return arm;
}

void WriteArmJson(bench::JsonWriter& json, const char* name,
                  const ArmResult& arm) {
  json.Key(name).BeginObject();
  json.Field("completed", arm.completed);
  json.Field("rejected", arm.rejected);
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
  json.Field("aio_deferrals", arm.governor.aio_deferrals);
  json.Field("shed_events", arm.governor.shed_events);
  json.Field("pages_shed", arm.governor.pages_shed);
  json.Field("rung_degrades", arm.governor.rung_degrades);
  json.Field("rung_recoveries", arm.governor.rung_recoveries);
  json.EndObject();
  json.Key("rung_served").BeginObject();
  for (int r = 0; r < kNumDegradationRungs; ++r) {
    json.Field(DegradationRungName(static_cast<DegradationRung>(r)),
               static_cast<uint64_t>(arm.rung_served[r]));
  }
  json.EndObject();
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

  OverloadConfig cfg;
  cfg.num_queries = smoke ? 16 : 32;
  cfg.accesses_per_query = smoke ? 2000 : 4000;

  const std::vector<BenchQuery> workload = MakeWorkload(cfg);

  // Calibrate the deadline and arrival rate from an uncontended solo run of
  // the first query (virtual time, so this is exact and deterministic).
  SimTime solo_us = 0;
  {
    SimEnvironment env(ChaosSim(cfg.seed));
    PrefetcherOptions popts;
    popts.start_delay_us = 500;
    const QueryRunMetrics solo =
        ReplayQuery(workload[0].trace, workload[0].prefetch, popts, &env);
    if (!solo.status.ok()) {
      std::fprintf(stderr, "solo replay failed: %s\n",
                   solo.status.ToString().c_str());
      return 1;
    }
    solo_us = solo.elapsed_us;
  }
  // 2x oversubscription: with max_active slots, arrivals come at ~2x the
  // rate the slots can drain (mean gap = solo / (2 * max_active)).
  cfg.mean_gap_us = std::max<SimTime>(1, solo_us / (2 * cfg.max_active));
  // Tight enough that the slowest admitted queries hit it (making the
  // deadline rung observable), loose enough that typical queries do not.
  cfg.deadline_us = (3 * solo_us) / 2;

  const ArmResult ungoverned = RunArm(workload, cfg, /*governed=*/false);
  const ArmResult governed = RunArm(workload, cfg, /*governed=*/true);

  // Graceful degradation must be observable under this load, not merely
  // available: the ladder moved and speculative work was shed or denied.
  if (governed.governor.rung_degrades == 0) {
    std::fprintf(stderr, "FATAL: ladder never degraded under 2x load\n");
    return 1;
  }
  if (governed.governor.pages_shed == 0 &&
      governed.governor.pin_denials == 0 &&
      governed.governor.aio_deferrals == 0) {
    std::fprintf(stderr, "FATAL: governor never shed or denied work\n");
    return 1;
  }
  size_t degraded_served = 0;
  for (int r = 1; r < kNumDegradationRungs; ++r) {
    degraded_served += governed.rung_served[r];
  }
  if (degraded_served == 0) {
    std::fprintf(stderr, "FATAL: no query reports a degraded rung\n");
    return 1;
  }

  // Bounded tail: the governed p99 stays within a fixed multiple of the
  // uncontended solo runtime, and the protection never makes the tail worse
  // than letting sessions collide freely.
  const double p99_budget = 16.0 * static_cast<double>(solo_us);
  if (governed.p99 > p99_budget) {
    std::fprintf(stderr, "FATAL: governed p99 %.0fus exceeds budget %.0fus\n",
                 governed.p99, p99_budget);
    return 1;
  }
  if (governed.p99 > ungoverned.p99) {
    std::fprintf(stderr,
                 "FATAL: governed p99 %.0fus worse than ungoverned %.0fus\n",
                 governed.p99, ungoverned.p99);
    return 1;
  }

  auto build_json = [&](const ArmResult& ug, const ArmResult& gv) {
    bench::JsonWriter json;
    json.BeginObject();
    json.Field("bench", "overload");
    json.Field("smoke", smoke);
    json.Field("seed", cfg.seed);
    json.Field("num_queries", static_cast<uint64_t>(cfg.num_queries));
    json.Field("accesses_per_query",
               static_cast<uint64_t>(cfg.accesses_per_query));
    json.Field("max_active", static_cast<uint64_t>(cfg.max_active));
    json.Field("queue_limit", static_cast<uint64_t>(cfg.queue_limit));
    json.Field("deadline_us", static_cast<uint64_t>(cfg.deadline_us));
    json.Field("mean_gap_us", static_cast<uint64_t>(cfg.mean_gap_us));
    json.Field("mispredict_fraction", cfg.mispredict_fraction);
    json.Field("solo_us", static_cast<uint64_t>(solo_us));
    WriteArmJson(json, "ungoverned", ug);
    WriteArmJson(json, "governed", gv);
    json.EndObject();
    return json;
  };
  const bench::JsonWriter json = build_json(ungoverned, governed);

  // Determinism: rerun the governed arm from the same seeds; every number
  // in the payload must reproduce exactly.
  const ArmResult governed2 = RunArm(workload, cfg, /*governed=*/true);
  if (build_json(ungoverned, governed2).str() != json.str()) {
    std::fprintf(stderr, "FATAL: same-seed rerun is not byte-identical\n");
    return 1;
  }

  TablePrinter table({"arm", "completed", "rejected", "p50 (ms)", "p99 (ms)",
                      "makespan (ms)", "degrades", "pages shed",
                      "deadline stops"});
  auto row = [&](const char* name, const ArmResult& arm) {
    table.AddRow({name, std::to_string(arm.completed),
                  std::to_string(arm.rejected),
                  TablePrinter::Num(arm.p50 / 1000.0, 1),
                  TablePrinter::Num(arm.p99 / 1000.0, 1),
                  TablePrinter::Num(arm.batch.makespan_us / 1000.0, 1),
                  std::to_string(arm.governor.rung_degrades),
                  std::to_string(arm.governor.pages_shed),
                  std::to_string(arm.batch.admission.deadline_stops)});
  };
  std::printf("=== Overload chaos/soak: %zu queries, %zux oversubscribed, "
              "faults+spikes+stalls, %.0f%% mispredicted ===\n",
              cfg.num_queries, size_t{2}, cfg.mispredict_fraction * 100);
  row("ungoverned", ungoverned);
  row("governed", governed);
  table.Print();
  std::printf("\nall checks passed: no pin leaks, every admitted query "
              "completed, governed p99 bounded (%.1fms <= %.1fms budget), "
              "same-seed rerun byte-identical\n",
              governed.p99 / 1000.0, p99_budget / 1000.0);

  if (!json.WriteToFile("BENCH_overload.json")) {
    std::fprintf(stderr, "warning: could not write BENCH_overload.json\n");
    return 1;
  }
  std::printf("wrote BENCH_overload.json\n");
  return 0;
}
