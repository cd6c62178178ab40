// Figure 13c: concurrent queries sampled from multiple templates. Queries
// from different templates have different access patterns and contend for
// the buffer instead of helping each other, so gains shrink with
// concurrency before leveling out.
#include "bench/common.h"
#include "bench/json_writer.h"

namespace pythia::bench {
namespace {

void Run() {
  auto db = Dsb();
  std::map<TemplateId, Workload> workloads;
  SimEnvironment env(DefaultSim());
  PythiaSystem system(&env);
  const TemplateId ids[] = {TemplateId::kDsb18, TemplateId::kDsb19,
                            TemplateId::kDsb91};
  for (TemplateId id : ids) {
    workloads.emplace(id, MakeWorkload(*db, id));
    WorkloadModel model =
        CachedModel(*db, workloads.at(id), DefaultPredictor(),
                    std::string(TemplateName(id)) + "_default");
    system.AddWorkload(workloads.at(id), std::move(model));
  }

  TablePrinter table({"concurrent queries", "DFLT total (ms)",
                      "PYTHIA total (ms)", "speedup"});
  Pcg32 rng(31, 0x13c);
  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "fig13c_concurrent_multi");
  json.Field("templates", "dsb_t18+dsb_t19+dsb_t91");
  json.Key("levels").BeginArray();
  for (size_t level : {3, 6, 9}) {
    std::vector<ConcurrentQuery> plain, fetched;
    for (size_t i = 0; i < level; ++i) {
      const Workload& w = workloads.at(ids[i % 3]);
      const WorkloadQuery& q =
          w.queries[w.test_indices[rng.UniformU32(
              static_cast<uint32_t>(w.test_indices.size()))]];
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

  std::printf("=== Figure 13c: concurrent queries from multiple templates "
              "(t18+t19+t91, simultaneous arrival) ===\n");
  table.Print();
  std::printf("\nPaper shape: Pythia still helps, but mixed templates "
              "hinder each other in the buffer, so gains shrink with "
              "concurrency before valleying out.\n");
  if (json.WriteToFile("BENCH_fig13c.json")) {
    std::printf("wrote BENCH_fig13c.json\n");
  } else {
    std::fprintf(stderr, "warning: could not write BENCH_fig13c.json\n");
  }
}

}  // namespace
}  // namespace pythia::bench

int main() { pythia::bench::Run(); }
