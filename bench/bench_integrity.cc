// Integrity & self-healing sweep (not a paper figure; see DESIGN.md).
//
// Part 1 — corruption sweep: how much of Pythia's speedup over DFLT
// survives as the device silently corrupts reads (bit-flips, torn writes,
// stale reads). Every device read materializes a real page image that is
// verified against its CRC-32/identity/version header; foreground reads
// retry corrupt results, speculative prefetch reads drop them. DFLT and
// PYTHIA see the same corruption sequence per query via ResetFaults(), so
// each speedup is a paired comparison.
//
// Part 2 — drift watchdog: a model trained on one workload is fed queries
// from a drifted variant (same templates, different parameter seed). Its
// useful-prefetch ratio collapses, the per-model watchdog demotes it to the
// sequential-readahead baseline, and when the original workload returns the
// probation probes reinstate it. The timeline of health transitions is the
// output.
#include "bench/common.h"
#include "bench/json_writer.h"

namespace pythia::bench {
namespace {

struct CorruptionPoint {
  double bit_flip;
  double torn_write;
  double stale_read;
};

void CorruptionSweep(const Database& db, const Workload& workload,
                     JsonWriter* json) {
  const std::vector<CorruptionPoint> rates = {
      {0.0, 0.0, 0.0},
      {1e-4, 1e-5, 1e-5},
      {1e-3, 1e-4, 1e-4},
      {1e-2, 1e-3, 1e-3},
      {5e-2, 5e-3, 5e-3}};

  TablePrinter table({"bit flip", "torn", "stale", "PYTHIA speedup",
                      "retained", "crc fails", "stale caught",
                      "fg retries", "pf dropped"});
  double clean_median = 0.0;

  json->Key("corruption_sweep").BeginArray();
  for (const CorruptionPoint& rate : rates) {
    SimOptions sim = DefaultSim();
    sim.faults.bit_flip_prob = rate.bit_flip;
    sim.faults.torn_write_prob = rate.torn_write;
    sim.faults.stale_read_prob = rate.stale_read;
    sim.faults.seed = 20260805;
    // The zero row still verifies checksums on every read, so the sweep
    // baseline includes verification itself (its cost is virtual-time free;
    // this is about behaviour, not CPU).
    sim.verify_page_checksums = true;

    SimEnvironment env(sim);
    PythiaSystem system(&env);
    system.AddWorkload(workload,
                       CachedModel(db, workload, DefaultPredictor(),
                                   "t91_sf50_fault"));

    // Retries and drops caused by corruption are summed over both arms'
    // query metrics.
    uint64_t corrupt_read_retries = 0;
    uint64_t corrupt_prefetch_drops = 0;
    const auto run = [&](size_t ti, RunMode mode) {
      const QueryRunMetrics m =
          system.RunQuery(workload.queries[ti], mode, PrefetcherOptions{});
      CheckRun(m, mode, ti);
      corrupt_read_retries += m.pool_stats.corrupt_retries;
      corrupt_prefetch_drops += m.prefetch_stats.dropped_corrupt;
      return static_cast<double>(m.elapsed_us);
    };

    // Paired *arms*: each arm replays the whole test set against the same
    // injector stream from the same starting point. Resetting per query
    // would rewind the corruption stream every time, replaying the same
    // stream prefix for every query — at rates like 1e-4 the first firing
    // draw usually lies beyond one query's reads, and nothing would ever
    // corrupt.
    env.ResetFaults();
    std::vector<double> dflt_us;
    for (size_t ti : workload.test_indices) {
      dflt_us.push_back(run(ti, RunMode::kDefault));
    }
    env.ResetFaults();
    std::vector<double> speedups;
    for (size_t i = 0; i < workload.test_indices.size(); ++i) {
      speedups.push_back(
          SafeDiv(dflt_us[i], run(workload.test_indices[i], RunMode::kPythia)));
    }

    const double median = Summarize(speedups).median;
    if (rate.bit_flip == 0.0) clean_median = median;
    // Injection counts cover the PYTHIA arm: ResetFaults() clears them.
    // The stack has one storage channel, so channel 0 holds every count.
    const FaultInjector* injector = env.os_cache().channel_fault_injector(0);
    const FaultStats injected =
        injector != nullptr ? injector->stats() : FaultStats();
    const uint64_t degraded_queries = system.breaker().stats().rejected;
    const SimulatedDisk* device = env.os_cache().channel_disk(0);
    const SimulatedDisk::Stats disk =
        device != nullptr ? device->stats() : SimulatedDisk::Stats();
    table.AddRow({TablePrinter::Num(rate.bit_flip, 5),
                  TablePrinter::Num(rate.torn_write, 6),
                  TablePrinter::Num(rate.stale_read, 6),
                  TablePrinter::Num(median, 2) + "x",
                  TablePrinter::Num(SafeDiv(median, clean_median) * 100, 1) +
                      "%",
                  std::to_string(disk.checksum_failures),
                  std::to_string(disk.stale_reads_caught),
                  std::to_string(corrupt_read_retries),
                  std::to_string(corrupt_prefetch_drops)});
    json->BeginObject()
        .Field("bit_flip_rate", rate.bit_flip)
        .Field("torn_write_rate", rate.torn_write)
        .Field("stale_read_rate", rate.stale_read)
        .Field("median_speedup", median)
        .Field("retained", SafeDiv(median, clean_median))
        .Field("device_reads", disk.reads)
        .Field("verified_ok", disk.verified_ok)
        .Field("checksum_failures", disk.checksum_failures)
        .Field("stale_reads_caught", disk.stale_reads_caught)
        .Field("injected_bit_flips", injected.injected_bit_flips)
        .Field("injected_torn_writes", injected.injected_torn_writes)
        .Field("injected_stale_reads", injected.injected_stale_reads)
        .Field("corrupt_read_retries", corrupt_read_retries)
        .Field("corrupt_prefetch_drops", corrupt_prefetch_drops)
        .Field("degraded_queries", degraded_queries)
        .EndObject();
  }
  json->EndArray();

  std::printf("=== Integrity: Pythia speedup vs DFLT under silent "
              "corruption (t91, checksummed pages) ===\n");
  table.Print();
  std::printf("\nExpected shape: every corrupt device read is caught (no "
              "query ever consumes unverified bytes); retained speedup "
              "degrades gracefully as rates climb because foreground "
              "retries cost device time and corrupt prefetches are "
              "dropped.\n\n");
}

const char* PhaseHealth(const PythiaSystem& system) {
  return ModelHealthName(
      const_cast<PythiaSystem&>(system).watchdog(0).health());
}

void DriftWatchdog(const Database& db, const Workload& trained,
                   JsonWriter* json) {
  // Drifted traffic: queries from a *different* template against the same
  // database. A mild re-parameterization of t91 turned out not to be drift
  // at all — the model's useful ratio stays where it was — so the scenario
  // uses the real failure mode: the workload changes shape, the stale
  // model keeps matching (threshold lowered below), and its predictions
  // stop being the pages the queries touch.
  Workload drifted = MakeWorkload(db, TemplateId::kDsb18);

  SimEnvironment env(DefaultSim());
  PythiaSystem system(&env);
  system.AddWorkload(trained, CachedModel(db, trained, DefaultPredictor(),
                                          "t91_sf50_fault"));
  // Drifted plans share the vocabulary but not the structure; lower the
  // match threshold so the (wrong) model keeps engaging — exactly the
  // failure mode the watchdog exists to catch.
  system.set_match_threshold(0.3);
  WatchdogOptions wd;
  wd.window = 4;
  wd.min_samples = 4;
  wd.min_useful_ratio = 0.25;
  wd.min_attempted = 8;
  wd.probation_queries = 4;
  wd.required_probe_successes = 2;
  system.set_watchdog_options(wd);

  TablePrinter table({"phase", "query", "engaged", "degraded", "health",
                      "window ratio"});
  json->Key("drift").BeginObject();
  json->Key("timeline").BeginArray();

  const auto run_phase = [&](const char* phase, const Workload& wl) {
    for (size_t i = 0; i < wl.test_indices.size(); ++i) {
      const size_t ti = wl.test_indices[i];
      const QueryRunMetrics m = system.RunQuery(
          wl.queries[ti], RunMode::kPythia, PrefetcherOptions{});
      CheckRun(m, RunMode::kPythia, ti);
      const char* health = PhaseHealth(system);
      table.AddRow({phase, std::to_string(i),
                    m.engaged ? "yes" : "no",
                    m.degraded_by_watchdog ? "yes" : "no", health,
                    TablePrinter::Num(system.watchdog(0).WindowRatio(), 3)});
      json->BeginObject()
          .Field("phase", phase)
          .Field("query", static_cast<uint64_t>(i))
          .Field("engaged", m.engaged)
          .Field("degraded_by_watchdog", m.degraded_by_watchdog)
          .Field("health", health)
          .Field("window_ratio", system.watchdog(0).WindowRatio())
          .EndObject();
    }
  };

  // Phase 1: the drifted workload arrives — the watchdog should demote.
  run_phase("drift", drifted);
  // Phase 2: the original workload returns — probation probes should
  // reinstate the model.
  run_phase("recover", trained);
  json->EndArray();

  const WatchdogStats& wd_stats = system.watchdog(0).stats();
  json->Key("stats")
      .BeginObject()
      .Field("demotions", wd_stats.demotions)
      .Field("probes", wd_stats.probes)
      .Field("reinstatements", wd_stats.reinstatements)
      .Field("degraded_queries", wd_stats.degraded_queries)
      .Field("final_health", PhaseHealth(system))
      .EndObject()
      .EndObject();

  std::printf("=== Integrity: drift watchdog (t91 model fed a drifted "
              "workload, then the original) ===\n");
  table.Print();
  std::printf("\nwatchdog: demotions=%llu probes=%llu reinstatements=%llu "
              "degraded_queries=%llu final=%s\n",
              static_cast<unsigned long long>(wd_stats.demotions),
              static_cast<unsigned long long>(wd_stats.probes),
              static_cast<unsigned long long>(wd_stats.reinstatements),
              static_cast<unsigned long long>(wd_stats.degraded_queries),
              PhaseHealth(system));
  std::printf("\nExpected shape: during drift the window ratio collapses "
              "and the model is demoted (degraded=yes rows run on the "
              "sequential-readahead baseline); once the original workload "
              "returns, probes succeed and the model is reinstated.\n");
}

void Run() {
  auto dsb = Dsb(50);
  Workload workload = MakeWorkload(*dsb, TemplateId::kDsb91);

  JsonWriter json;
  json.BeginObject()
      .Field("bench", "integrity")
      .Field("workload", "t91")
      .Field("scale_factor", 50);

  CorruptionSweep(*dsb, workload, &json);
  DriftWatchdog(*dsb, workload, &json);

  json.EndObject();
  if (!json.WriteToFile("BENCH_integrity.json")) {
    std::fprintf(stderr, "warning: could not write BENCH_integrity.json\n");
  }
}

}  // namespace
}  // namespace pythia::bench

int main() { pythia::bench::Run(); }
