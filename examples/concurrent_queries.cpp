// Concurrent-query demo (Section 5.4): runs batches of queries through the
// shared buffer pool with and without Pythia prefetching, at different
// concurrency levels and arrival patterns.
//
//   ./examples/concurrent_queries
#include <cstdio>

#include "core/system.h"
#include "util/metrics.h"
#include "util/table_printer.h"

namespace {

// Per-query statuses: with faults disabled these are always OK, but the
// replay API is fallible and a demo should model the checking, too.
bool AllOk(const pythia::ConcurrentResult& r, const char* label) {
  for (size_t i = 0; i < r.queries.size(); ++i) {
    if (!r.queries[i].status.ok()) {
      std::fprintf(stderr, "%s query %zu failed: %s\n", label, i,
                   r.queries[i].status.ToString().c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

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
  popts.epochs = 12;
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

  // Build batches of test queries at several concurrency levels; all
  // queries arrive at t=0 and share the buffer pool.
  TablePrinter table({"concurrent queries", "DFLT total (ms)",
                      "PYTHIA total (ms)", "speedup"});
  PrefetcherOptions prefetch;
  for (size_t level : {2, 4, 6}) {
    std::vector<ConcurrentQuery> plain, fetched;
    for (size_t i = 0; i < level; ++i) {
      const WorkloadQuery& q =
          workload->queries[workload->test_indices[i %
                                                   workload->test_indices
                                                       .size()]];
      ConcurrentQuery c;
      c.trace = &q.trace;
      plain.push_back(c);
      QueryRunMetrics m;
      c.prefetch_pages = system.PrefetchPlan(q, RunMode::kPythia, &m);
      c.prefetch_options = prefetch;
      fetched.push_back(std::move(c));
    }
    env.ColdRestart();
    const ConcurrentResult base = ReplayConcurrent(plain, {}, &env);
    env.ColdRestart();
    const ConcurrentResult pythia = ReplayConcurrent(fetched, {}, &env);
    if (!AllOk(base, "DFLT") || !AllOk(pythia, "PYTHIA")) return 1;
    table.AddRow(
        {TablePrinter::Int(static_cast<long long>(level)),
         TablePrinter::Num(base.total_query_us / 1000.0, 1),
         TablePrinter::Num(pythia.total_query_us / 1000.0, 1),
         TablePrinter::Num(
             SafeDiv(static_cast<double>(base.total_query_us),
                     static_cast<double>(pythia.total_query_us)),
             2) +
             "x"});
  }
  table.Print();

  // Staggered arrivals: the same 3 queries arriving 50 ms apart.
  std::printf("\nStaggered arrivals (3 queries, 50 ms apart):\n");
  std::vector<ConcurrentQuery> staggered;
  for (size_t i = 0; i < 3; ++i) {
    const WorkloadQuery& q = workload->queries[workload->test_indices[i]];
    ConcurrentQuery c;
    c.trace = &q.trace;
    c.arrival_us = static_cast<SimTime>(i) * 50000;
    QueryRunMetrics m;
    c.prefetch_pages = system.PrefetchPlan(q, RunMode::kPythia, &m);
    c.prefetch_options = prefetch;
    staggered.push_back(std::move(c));
  }
  env.ColdRestart();
  const ConcurrentResult r = ReplayConcurrent(staggered, {}, &env);
  if (!AllOk(r, "staggered")) return 1;
  for (size_t i = 0; i < 3; ++i) {
    std::printf("  query %zu: start %llu ms, end %llu ms (ran %.1f ms)\n", i,
                static_cast<unsigned long long>(r.start_us[i] / 1000),
                static_cast<unsigned long long>(r.end_us[i] / 1000),
                (r.end_us[i] - r.start_us[i]) / 1000.0);
  }
  std::printf("  makespan: %.1f ms\n", r.makespan_us / 1000.0);
  return 0;
}
