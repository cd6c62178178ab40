// Figure 9: Pythia vs sequence-prediction transformers.
//
// The paper trains Longformer next-block predictors on template 91 (the
// smallest traces) in four variants — raw vs deduplicated input, context
// window 32 vs 64 — and finds comparable F1 but training/inference costs
// that are orders of magnitude higher than Pythia's one-shot classifier
// (23x training, 8500x inference on far better hardware). This benchmark
// reproduces the comparison with the from-scratch causal transformer.
#include <chrono>

#include "bench/common.h"
#include "core/seq_baseline.h"

namespace pythia::bench {
namespace {

void Run() {
  auto db = Dsb();
  Workload workload = MakeWorkload(*db, TemplateId::kDsb91);
  WorkloadModel model = CachedModel(*db, workload, DefaultPredictor(),
                                    "dsb_t91_default");

  // Pythia: median F1 and measured one-shot inference cost per query.
  std::vector<double> pythia_f1;
  double pythia_infer_seconds = 0.0;
  for (size_t ti : workload.test_indices) {
    const WorkloadQuery& q = workload.queries[ti];
    const auto start = std::chrono::steady_clock::now();
    const auto predicted = model.Predict(q.tokens);
    pythia_infer_seconds += std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    pythia_f1.push_back(
        ComputeSetMetrics(predicted, model.GroundTruth(q.trace)).f1);
  }
  pythia_infer_seconds /= workload.test_indices.size();
  const double pythia_train_seconds = model.report().train_seconds;

  TablePrinter table({"predictor", "median F1", "train (s)",
                      "inference (s/query)", "train vs PYTHIA",
                      "inference vs PYTHIA"});
  table.AddRow({"PYTHIA", TablePrinter::Num(Summarize(pythia_f1).median, 3),
                TablePrinter::Num(pythia_train_seconds, 1),
                TablePrinter::Num(pythia_infer_seconds, 4), "1x", "1x"});

  for (bool dedup : {false, true}) {
    for (size_t ctx : {size_t{32}, size_t{64}}) {
      SeqBaselineConfig config;
      config.context_window = ctx;
      config.dedup_input = dedup;
      config.epochs = 2;
      config.max_seq_len = 384;
      config.max_train_sequences = 40;
      SequenceTransformerBaseline baseline(workload, config);

      std::vector<double> f1;
      double infer_seconds = 0.0;
      for (size_t ti : workload.test_indices) {
        const SeqEvalResult r =
            baseline.Evaluate(workload.queries[ti].trace);
        f1.push_back(r.accuracy.f1);
        infer_seconds += r.infer_seconds;
      }
      infer_seconds /= workload.test_indices.size();
      const std::string name = std::string("seq-transformer ctx=") +
                               std::to_string(ctx) +
                               (dedup ? " dedup" : " raw");
      table.AddRow(
          {name, TablePrinter::Num(Summarize(f1).median, 3),
           TablePrinter::Num(baseline.train_seconds(), 1),
           TablePrinter::Num(infer_seconds, 4),
           TablePrinter::Num(baseline.train_seconds() / pythia_train_seconds,
                             1) +
               "x",
           TablePrinter::Num(infer_seconds / pythia_infer_seconds, 0) +
               "x"});
    }
  }

  std::printf("=== Figure 9: Pythia vs sequence-transformer predictors "
              "(dsb_t91) ===\n");
  table.Print();
  std::printf("\nPaper shape: comparable F1, but sequence models need far "
              "more training and per-block (autoregressive) inference time, "
              "making them impractical for prefetching. (Note: the seq "
              "baselines above are trained on truncated traces and few "
              "epochs; their *costs* are already prohibitive at this tiny "
              "scale.)\n");
}

}  // namespace
}  // namespace pythia::bench

int main() { pythia::bench::Run(); }
