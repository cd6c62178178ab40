// Robustness sweep: how much of Pythia's speedup over DFLT survives as the
// storage layer degrades. Each row injects a transient-read-error rate (plus
// a fixed 0.1% tail-latency-spike rate for the faulty rows) into every disk
// read. Foreground reads retry with capped exponential backoff; speculative
// prefetch reads are simply dropped; the circuit breaker may degrade
// prefetch-eligible queries when sessions turn unhealthy.
//
// DFLT and PYTHIA see the *same* fault sequence per query via
// SimEnvironment::ResetFaults(), so each speedup is a paired comparison.
#include "bench/common.h"
#include "bench/json_writer.h"

namespace pythia::bench {
namespace {

struct RatePoint {
  double error_prob;
  double spike_prob;
};

void Run() {
  // t91 is the workload where prefetching matters most (highest
  // non-sequential IO fraction), so it is the sharpest probe of how much
  // benefit survives fault injection. Scale 50 keeps the sweep quick.
  auto dsb = Dsb(50);
  Workload workload = MakeWorkload(*dsb, TemplateId::kDsb91);
  WorkloadModel model =
      CachedModel(*dsb, workload, DefaultPredictor(), "t91_sf50_fault");

  const std::vector<RatePoint> rates = {
      {0.0, 0.0}, {0.005, 0.001}, {0.01, 0.001}, {0.02, 0.001},
      {0.05, 0.001}};

  TablePrinter table({"error rate", "spike rate", "PYTHIA speedup",
                      "retained", "retries", "inj err", "dropped pf",
                      "degraded"});
  double fault_free_median = 0.0;

  JsonWriter json;
  json.BeginObject()
      .Field("bench", "fault_tolerance")
      .Field("workload", "t91")
      .Field("scale_factor", 50)
      .Key("rows")
      .BeginArray();

  for (const RatePoint& rate : rates) {
    SimOptions sim = DefaultSim();
    sim.faults.transient_error_prob = rate.error_prob;
    sim.faults.tail_latency_prob = rate.spike_prob;
    sim.faults.seed = 20260805;

    SimEnvironment env(sim);
    PythiaSystem system(&env);
    system.AddWorkload(workload,
                       CachedModel(*dsb, workload, DefaultPredictor(),
                                   "t91_sf50_fault"));

    // ResetFaults() also clears the injector's counters, so the totals for
    // the table are accumulated per arm rather than read at the end; retries
    // and dropped prefetches are summed from each arm's own query metrics.
    uint64_t injected_errors = 0;
    uint64_t read_retries = 0;
    uint64_t dropped_prefetches = 0;
    // Paired arms: both modes replay against an identical fault sequence.
    const auto run_arm = [&](size_t ti, RunMode mode) {
      env.ResetFaults();
      const QueryRunMetrics m =
          system.RunQuery(workload.queries[ti], mode, PrefetcherOptions{});
      CheckRun(m, mode, ti);
      // One storage channel: channel 0's injector sees every read.
      if (const FaultInjector* injector =
              env.os_cache().channel_fault_injector(0)) {
        injected_errors += injector->stats().injected_errors;
      }
      read_retries += m.pool_stats.read_retries;
      dropped_prefetches += m.prefetch_stats.dropped_faulty;
      return m;
    };

    std::vector<double> speedups;
    for (size_t ti : workload.test_indices) {
      const QueryRunMetrics dflt = run_arm(ti, RunMode::kDefault);
      const QueryRunMetrics pythia = run_arm(ti, RunMode::kPythia);
      speedups.push_back(
          SafeDiv(static_cast<double>(dflt.elapsed_us),
                  static_cast<double>(pythia.elapsed_us)));
    }

    const double median = Summarize(speedups).median;
    if (rate.error_prob == 0.0 && rate.spike_prob == 0.0) {
      fault_free_median = median;
    }
    // The breaker counts every query it degraded to the plain buffer
    // manager as a rejection.
    const CircuitBreakerStats& breaker = system.breaker().stats();
    table.AddRow({TablePrinter::Num(rate.error_prob * 100, 2) + "%",
                  TablePrinter::Num(rate.spike_prob * 100, 2) + "%",
                  TablePrinter::Num(median, 2) + "x",
                  TablePrinter::Num(
                      SafeDiv(median, fault_free_median) * 100, 1) +
                      "%",
                  std::to_string(read_retries),
                  std::to_string(injected_errors),
                  std::to_string(dropped_prefetches),
                  std::to_string(breaker.rejected)});
    json.BeginObject()
        .Field("error_rate", rate.error_prob)
        .Field("spike_rate", rate.spike_prob)
        .Field("median_speedup", median)
        .Field("retained", SafeDiv(median, fault_free_median))
        .Field("read_retries", read_retries)
        .Field("injected_errors", injected_errors)
        .Field("dropped_prefetches", dropped_prefetches)
        .Field("degraded_queries", breaker.rejected)
        .Field("breaker_trips", breaker.trips)
        .EndObject();
  }
  json.EndArray().EndObject();
  if (!json.WriteToFile("BENCH_fault_tolerance.json")) {
    std::fprintf(stderr, "warning: could not write "
                 "BENCH_fault_tolerance.json\n");
  }

  std::printf("=== Fault tolerance: Pythia speedup vs DFLT under injected "
              "storage faults (t91) ===\n");
  table.Print();
  std::printf("\nExpected shape: retained speedup stays >=75%% at 1%% "
              "transient errors + 0.1%% spikes; at extreme rates the "
              "breaker may degrade queries to DFLT (retained -> 100%% of "
              "nothing rather than a regression).\n");
}

}  // namespace
}  // namespace pythia::bench

int main() { pythia::bench::Run(); }
