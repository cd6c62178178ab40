// Figure 13b: concurrent queries from a single template, all arriving at
// the same time. Gains grow with concurrency — pages prefetched for one
// query help the others — until resource contention flattens the curve.
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

  TablePrinter table({"concurrent queries", "DFLT total (ms)",
                      "PYTHIA total (ms)", "speedup"});
  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "fig13b_concurrent_single");
  json.Field("template", "dsb_t91");
  json.Key("levels").BeginArray();
  for (size_t level : {2, 4, 6, 8}) {
    std::vector<ConcurrentQuery> plain, fetched;
    for (size_t i = 0; i < level; ++i) {
      const WorkloadQuery& q =
          workload.queries[workload.test_indices[i %
                                                 workload.test_indices
                                                     .size()]];
      ConcurrentQuery c;
      c.trace = &q.trace;
      plain.push_back(c);
      QueryRunMetrics m;
      c.prefetch_pages = system.PrefetchPlan(q, RunMode::kPythia, &m);
      fetched.push_back(std::move(c));
    }
    env.ColdRestart();
    const ConcurrentResult base = ReplayConcurrent(plain, {}, &env);
    CheckConcurrent(base, "DFLT");
    env.ColdRestart();
    const ConcurrentResult pythia = ReplayConcurrent(fetched, {}, &env);
    CheckConcurrent(pythia, "PYTHIA");
    table.AddRow(
        {TablePrinter::Int(static_cast<long long>(level)),
         TablePrinter::Num(base.total_query_us / 1000.0, 1),
         TablePrinter::Num(pythia.total_query_us / 1000.0, 1),
         TablePrinter::Num(static_cast<double>(base.total_query_us) /
                               pythia.total_query_us,
                           2) +
             "x"});
    json.BeginObject();
    json.Field("concurrency", static_cast<uint64_t>(level));
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

  std::printf("=== Figure 13b: concurrent queries from a single template "
              "(dsb_t91, simultaneous arrival) ===\n");
  table.Print();
  std::printf("\nPaper shape: gains rise with concurrency (prefetches of "
              "one query serve others from the same template), then "
              "plateau as contention grows.\n");
  if (json.WriteToFile("BENCH_fig13b.json")) {
    std::printf("wrote BENCH_fig13b.json\n");
  } else {
    std::fprintf(stderr, "warning: could not write BENCH_fig13b.json\n");
  }
}

}  // namespace
}  // namespace pythia::bench

int main() { pythia::bench::Run(); }
