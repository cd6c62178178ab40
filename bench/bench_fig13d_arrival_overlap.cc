// Figure 13d: concurrent queries with different arrival overlap. Five
// queries from one template arrive with exponentially-distributed
// inter-arrival times chosen so consecutive queries overlap by an expected
// 25% to 100% (simultaneous) of the template's expected runtime.
#include "bench/common.h"
#include "bench/json_writer.h"

namespace pythia::bench {
namespace {

void Run() {
  auto db = Dsb();
  Workload workload = MakeWorkload(*db, TemplateId::kDsb91);
  SimEnvironment env(DefaultSim());
  PythiaSystem system(&env);
  WorkloadModel model = CachedModel(*db, workload, DefaultPredictor(),
                                    "dsb_t91_default");
  system.AddWorkload(workload, std::move(model));

  // Expected single-query runtime, measured under DFLT (cold).
  std::vector<double> runtimes;
  for (size_t ti : workload.test_indices) {
    runtimes.push_back(static_cast<double>(
        system.RunQuery(workload.queries[ti], RunMode::kDefault,
                        PrefetcherOptions{})
            .elapsed_us));
  }
  const double expected_runtime = Summarize(runtimes).mean;

  TablePrinter table({"expected overlap", "DFLT total (ms)",
                      "PYTHIA total (ms)", "speedup"});
  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "fig13d_arrival_overlap");
  json.Field("template", "dsb_t91");
  json.Field("num_queries", 5);
  json.Field("expected_runtime_us", expected_runtime);
  json.Key("overlaps").BeginArray();
  for (double overlap : {0.25, 0.50, 0.75, 1.00}) {
    Pcg32 rng(17, 0x13d);  // same arrivals for both modes
    // Expected inter-arrival = (1 - overlap) * runtime; overlap 1.0 means
    // simultaneous arrival.
    std::vector<SimTime> arrivals;
    SimTime t = 0;
    for (size_t i = 0; i < 5; ++i) {
      arrivals.push_back(t);
      const double mean_gap = (1.0 - overlap) * expected_runtime;
      const double gap = mean_gap <= 0.0
                             ? 0.0
                             : -mean_gap * std::log(1.0 -
                                                    rng.UniformDouble());
      t += static_cast<SimTime>(gap);
    }

    auto build = [&](bool prefetch) {
      std::vector<ConcurrentQuery> queries;
      for (size_t i = 0; i < 5; ++i) {
        const WorkloadQuery& q =
            workload.queries[workload.test_indices[i %
                                                   workload.test_indices
                                                       .size()]];
        ConcurrentQuery c;
        c.trace = &q.trace;
        c.arrival_us = arrivals[i];
        if (prefetch) {
          QueryRunMetrics m;
          c.prefetch_pages = system.PrefetchPlan(q, RunMode::kPythia, &m);
        }
        queries.push_back(std::move(c));
      }
      return queries;
    };
    env.ColdRestart();
    const ConcurrentResult base = ReplayConcurrent(build(false), {}, &env);
    CheckConcurrent(base, "DFLT");
    env.ColdRestart();
    const ConcurrentResult pythia = ReplayConcurrent(build(true), {}, &env);
    CheckConcurrent(pythia, "PYTHIA");
    table.AddRow(
        {TablePrinter::Num(overlap * 100, 0) + "%",
         TablePrinter::Num(base.total_query_us / 1000.0, 1),
         TablePrinter::Num(pythia.total_query_us / 1000.0, 1),
         TablePrinter::Num(static_cast<double>(base.total_query_us) /
                               pythia.total_query_us,
                           2) +
             "x"});
    json.BeginObject();
    json.Field("overlap", overlap);
    json.Field("dflt_total_us", static_cast<uint64_t>(base.total_query_us));
    json.Field("pythia_total_us",
               static_cast<uint64_t>(pythia.total_query_us));
    json.Field("dflt_makespan_us", static_cast<uint64_t>(base.makespan_us));
    json.Field("pythia_makespan_us",
               static_cast<uint64_t>(pythia.makespan_us));
    json.Field("speedup", static_cast<double>(base.total_query_us) /
                              pythia.total_query_us);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  std::printf("=== Figure 13d: concurrent queries with varying arrival "
              "overlap (5 queries, dsb_t91, Poisson arrivals) ===\n");
  table.Print();
  std::printf("\nPaper shape: Pythia provides benefits across all arrival "
              "overlaps, not only simultaneous arrivals.\n");
  if (json.WriteToFile("BENCH_fig13d.json")) {
    std::printf("wrote BENCH_fig13d.json\n");
  } else {
    std::fprintf(stderr, "warning: could not write BENCH_fig13d.json\n");
  }
}

}  // namespace
}  // namespace pythia::bench

int main() { pythia::bench::Run(); }
