// Figures 7 & 8: impact of the similarity between a test query and the
// training workload. For each test query, the average Jaccard similarity of
// its block-access set to every training query's set is computed; test
// queries are bucketized into bottom-25% / middle / top-25% similarity, and
// F1 (Fig 7) and speedup (Fig 8) are reported per bucket.
#include "bench/common.h"

namespace pythia::bench {
namespace {

void Run() {
  auto dsb = Dsb();
  auto imdb = Imdb();
  TablePrinter f1_table({"workload", "similarity bucket", "PYTHIA F1 med",
                         "mean similarity"});
  TablePrinter sp_table({"workload", "similarity bucket", "PYTHIA speedup",
                         "ORCL speedup"});

  for (TemplateId id : {TemplateId::kDsb18, TemplateId::kDsb19,
                        TemplateId::kDsb91, TemplateId::kImdb1a}) {
    const bool is_dsb = IsDsbTemplate(id);
    const Database& db = is_dsb ? *dsb : *imdb;
    Workload workload =
        MakeWorkload(db, id, is_dsb ? kNumQueries : kImdbNumQueries);
    const PredictorOptions options =
        is_dsb ? DefaultPredictor() : ImdbPredictor(db);
    WorkloadModel model = CachedModel(
        db, workload, options, std::string(TemplateName(id)) + "_default");

    // Average Jaccard similarity of each test query to the whole training
    // workload, over non-sequential page sets.
    std::vector<std::unordered_set<PageId>> train_sets;
    for (size_t qi : workload.train_indices) {
      train_sets.push_back(workload.queries[qi].trace.DistinctNonSequential());
    }
    std::vector<double> similarity;
    for (size_t ti : workload.test_indices) {
      const std::unordered_set<PageId> pages =
          workload.queries[ti].trace.DistinctNonSequential();
      double total = 0.0;
      for (const auto& train : train_sets) {
        total += JaccardSimilarity(pages, train);
      }
      similarity.push_back(total / train_sets.size());
    }
    const std::vector<int> buckets = QuartileBuckets(similarity);

    SimEnvironment env(DefaultSim());
    PythiaSystem system(&env);
    system.AddWorkload(workload, std::move(model));
    const std::vector<QueryEval> evals = EvaluateTestQueries(
        &system, workload, {RunMode::kPythia, RunMode::kOracle});

    for (int bucket = 0; bucket < 3; ++bucket) {
      std::vector<double> f1, sp, orcl, sims;
      for (size_t i = 0; i < evals.size(); ++i) {
        if (buckets[i] != bucket) continue;
        f1.push_back(evals[i].F1(RunMode::kPythia));
        sp.push_back(evals[i].Speedup(RunMode::kPythia));
        orcl.push_back(evals[i].Speedup(RunMode::kOracle));
        sims.push_back(similarity[i]);
      }
      if (f1.empty()) continue;
      f1_table.AddRow({TemplateName(id), BucketName(bucket),
                       TablePrinter::Num(Summarize(f1).median, 3),
                       TablePrinter::Num(Summarize(sims).mean, 3)});
      sp_table.AddRow({TemplateName(id), BucketName(bucket),
                       TablePrinter::Num(Summarize(sp).median, 2) + "x",
                       TablePrinter::Num(Summarize(orcl).median, 2) + "x"});
    }
  }

  std::printf("=== Figure 7: F1 by test-query similarity to the training "
              "workload ===\n");
  f1_table.Print();
  std::printf("\n=== Figure 8: speedup by test-query similarity ===\n");
  sp_table.Print();
  std::printf("\nPaper shape: accuracy and speedup improve monotonically "
              "with similarity to the training workload.\n");
}

}  // namespace
}  // namespace pythia::bench

int main() { pythia::bench::Run(); }
