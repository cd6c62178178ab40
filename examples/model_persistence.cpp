// Model persistence: train a workload model once, save it to disk, reload
// it in a "fresh process" and verify the reloaded predictor is bit-identical
// — the deployment flow for periodically retrained Pythia models.
//
//   ./examples/model_persistence [model_path]
#include <cstdio>
#include <string>

#include "core/predictor.h"
#include "util/metrics.h"

int main(int argc, char** argv) {
  using namespace pythia;
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/pythia_t91_model.pywm";

  auto db = BuildDsbDatabase(DsbConfig{.scale_factor = 10, .seed = 42});
  WorkloadOptions wopts;
  wopts.num_queries = 80;
  Result<Workload> workload =
      GenerateWorkload(*db, TemplateId::kDsb91, wopts);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }

  std::printf("Training...\n");
  PredictorOptions popts;
  popts.epochs = 10;
  Result<WorkloadModel> model = WorkloadModel::Train(*db, *workload, popts);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("  %zu models, %zu parameters\n", model->report().num_models,
              model->report().total_parameters);

  Status save = model->Save(path).status();
  if (!save.ok()) {
    std::fprintf(stderr, "save failed: %s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("Saved to %s\n", path.c_str());

  Result<WorkloadModel> loaded = WorkloadModel::Load(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("Reloaded; verifying predictions match...\n");

  size_t checked = 0, mismatches = 0;
  double f1_sum = 0.0;
  for (size_t ti : workload->test_indices) {
    const WorkloadQuery& q = workload->queries[ti];
    const auto a = model->Predict(q.tokens);
    const auto b = loaded->Predict(q.tokens);
    mismatches += a != b;
    ++checked;
    f1_sum += ComputeSetMetrics(b, loaded->GroundTruth(q.trace)).f1;
  }
  std::printf("  %zu test queries checked, %zu mismatches, mean F1 %.3f\n",
              checked, mismatches, f1_sum / checked);
  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: reloaded model diverges\n");
    return 1;
  }
  std::printf("OK: reloaded model is identical.\n");
  return 0;
}
