// Deep-dive demo on one DSB query: inspects the plan serialization, the
// collected trace, the prediction, and a side-by-side of all four execution
// modes (DFLT / PYTHIA / ORCL / NN) with buffer-pool statistics.
//
//   ./examples/dsb_prefetch_demo
#include <cstdio>

#include "core/system.h"
#include "core/trace_processor.h"
#include "exec/serializer.h"
#include "util/metrics.h"
#include "util/table_printer.h"

int main() {
  using namespace pythia;

  auto db = BuildDsbDatabase(DsbConfig{.scale_factor = 20, .seed = 42});
  WorkloadOptions wopts;
  wopts.num_queries = 150;
  Result<Workload> workload =
      GenerateWorkload(*db, TemplateId::kDsb91, wopts);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }

  PredictorOptions popts;
  popts.epochs = 14;
  Result<WorkloadModel> model = WorkloadModel::Train(*db, *workload, popts);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }

  SimOptions sim;
  sim.buffer_pages = 1024;
  SimEnvironment env(sim);
  PythiaSystem system(&env);
  system.AddWorkload(*workload, std::move(*model));

  // Pick one unseen query and dissect it.
  const WorkloadQuery& q = workload->queries[workload->test_indices[0]];
  std::printf("=== Serialized query plan (Algorithm 2) ===\n%s\n\n",
              JoinTokens(q.tokens).c_str());

  std::printf("=== Trace summary ===\n");
  std::printf("page requests: %zu  (sequential: %llu, distinct "
              "non-sequential: %zu)\n",
              q.trace.accesses.size(),
              static_cast<unsigned long long>(q.trace.SequentialCount()),
              q.trace.DistinctNonSequential().size());
  std::printf("tuples processed: %llu\n\n",
              static_cast<unsigned long long>(q.trace.tuples_processed));

  std::printf("=== Per-object non-sequential footprint ===\n");
  for (const auto& [object, pages] : ProcessTrace(q.trace)) {
    std::printf("  %-36s %5zu pages (of %u)\n",
                db->catalog.ObjectName(object).c_str(), pages.size(),
                db->catalog.ObjectPages(object));
  }
  std::printf("\n=== Execution modes (cold cache each) ===\n");

  TablePrinter table({"mode", "time (ms)", "speedup", "F1", "buf hits",
                      "prefetch hits", "disk rand", "os copies"});
  PrefetcherOptions prefetch;
  SimTime dflt_time = 0;
  for (RunMode mode : {RunMode::kDefault, RunMode::kPythia, RunMode::kOracle,
                       RunMode::kNearestNeighbor}) {
    const QueryRunMetrics m = system.RunQuery(q, mode, prefetch);
    if (!m.status.ok()) {
      std::fprintf(stderr, "%s run failed: %s\n", RunModeName(mode),
                   m.status.ToString().c_str());
      return 1;
    }
    if (mode == RunMode::kDefault) dflt_time = m.elapsed_us;
    table.AddRow(
        {RunModeName(mode), TablePrinter::Num(m.elapsed_us / 1000.0, 1),
         TablePrinter::Num(SafeDiv(static_cast<double>(dflt_time),
                                   static_cast<double>(m.elapsed_us)),
                           2) +
             "x",
         m.engaged ? TablePrinter::Num(m.accuracy.f1, 3) : "-",
         TablePrinter::Int(static_cast<long long>(m.pool_stats.buffer_hits)),
         TablePrinter::Int(
             static_cast<long long>(m.pool_stats.prefetch_hits)),
         TablePrinter::Int(
             static_cast<long long>(m.pool_stats.disk_random_reads)),
         TablePrinter::Int(
             static_cast<long long>(m.pool_stats.os_cache_copies))});
  }
  table.Print();
  return 0;
}
