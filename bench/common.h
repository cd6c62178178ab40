// Shared scaffolding for the benchmark binaries: database/workload
// construction with the canonical seeds, model training with a disk cache
// (so the ~20 figure binaries don't retrain the same models), and the
// evaluation loop shared by most figures.
//
// All binaries print deterministic tables: randomness is seeded and timing
// is virtual, so reruns are bit-identical.
#ifndef PYTHIA_BENCH_COMMON_H_
#define PYTHIA_BENCH_COMMON_H_

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "util/metrics.h"
#include "util/table_printer.h"

namespace pythia::bench {

// Canonical experiment scale. The paper uses SF 100 (100 GB) and 1000
// queries per workload; this simulator uses SF 100 of its own page scale
// and 300 queries (~285 train / 15 test after the 5% split).
constexpr int kScaleFactor = 100;
constexpr int kNumQueries = 300;
constexpr int kImdbNumQueries = 200;

inline std::string CacheDir() {
  const char* env = std::getenv("PYTHIA_CACHE_DIR");
  std::string dir = env != nullptr ? env : "pythia_cache";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

inline std::unique_ptr<Database> Dsb(int sf = kScaleFactor) {
  return BuildDsbDatabase(DsbConfig{.scale_factor = sf, .seed = 42});
}

inline std::unique_ptr<Database> Imdb(int sf = kScaleFactor) {
  return BuildImdbDatabase(ImdbConfig{.scale_factor = sf, .seed = 1337});
}

inline Workload MakeWorkload(const Database& db, TemplateId id,
                             int num_queries = kNumQueries) {
  WorkloadOptions options;
  options.num_queries = num_queries;
  Result<Workload> workload = GenerateWorkload(db, id, options);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 workload.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*workload);
}

inline PredictorOptions DefaultPredictor() {
  return PredictorOptions{};  // paper-shaped defaults, see predictor.h
}

// IMDB experiments model (and prefetch) only cast_info, per Section 5.1.
inline PredictorOptions ImdbPredictor(const Database& db) {
  PredictorOptions options;
  options.restrict_objects = {
      db.catalog.GetRelation("cast_info")->object_id()};
  return options;
}

// Trains or loads the model for `key`; exits on failure (benchmarks have no
// meaningful degraded mode).
inline WorkloadModel CachedModel(const Database& db, const Workload& workload,
                                 const PredictorOptions& options,
                                 const std::string& key) {
  const std::string path = CacheDir() + "/" + key + ".pywm";
  Result<WorkloadModel> model =
      GetOrTrainWorkloadModel(path, db, workload, options);
  if (!model.ok()) {
    std::fprintf(stderr, "model for %s failed: %s\n", key.c_str(),
                 model.status().ToString().c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "[model %s] units=%zu params=%zu train=%.1fs\n",
               key.c_str(), model->report().num_models,
               model->report().total_parameters,
               model->report().train_seconds);
  return std::move(*model);
}

inline SimOptions DefaultSim() {
  SimOptions options;
  options.buffer_pages = 1024;  // ~1% of the paper's data:buffer ratio class
  return options;
}

// Per-test-query evaluation record across run modes.
struct QueryEval {
  size_t query_index = 0;
  std::map<RunMode, QueryRunMetrics> metrics;

  double Speedup(RunMode mode) const {
    const SimTime base = metrics.at(RunMode::kDefault).elapsed_us;
    const SimTime t = metrics.at(mode).elapsed_us;
    return SafeDiv(static_cast<double>(base), static_cast<double>(t));
  }
  double F1(RunMode mode) const { return metrics.at(mode).accuracy.f1; }
};

// Aborts the benchmark if a replay hit an unrecoverable read error —
// benchmark tables must never aggregate partially-run queries.
inline void CheckRun(const QueryRunMetrics& m, RunMode mode, size_t ti) {
  if (m.status.ok()) return;
  std::fprintf(stderr, "query %zu (%s) failed: %s\n", ti, RunModeName(mode),
               m.status.ToString().c_str());
  std::exit(1);
}

// Same contract for concurrent batches: every query in the batch must have
// replayed to completion.
inline void CheckConcurrent(const ConcurrentResult& r, const char* label) {
  for (size_t i = 0; i < r.queries.size(); ++i) {
    if (r.queries[i].status.ok()) continue;
    std::fprintf(stderr, "%s query %zu failed: %s\n", label, i,
                 r.queries[i].status.ToString().c_str());
    std::exit(1);
  }
}

// Runs every test query of `workload` cold under each mode.
inline std::vector<QueryEval> EvaluateTestQueries(
    PythiaSystem* system, const Workload& workload,
    const std::vector<RunMode>& modes,
    const PrefetcherOptions& prefetch = PrefetcherOptions{}) {
  std::vector<QueryEval> evals;
  for (size_t ti : workload.test_indices) {
    QueryEval eval;
    eval.query_index = ti;
    eval.metrics[RunMode::kDefault] = system->RunQuery(
        workload.queries[ti], RunMode::kDefault, prefetch);
    CheckRun(eval.metrics[RunMode::kDefault], RunMode::kDefault, ti);
    for (RunMode mode : modes) {
      if (mode == RunMode::kDefault) continue;
      eval.metrics[mode] =
          system->RunQuery(workload.queries[ti], mode, prefetch);
      CheckRun(eval.metrics[mode], mode, ti);
    }
    evals.push_back(std::move(eval));
  }
  return evals;
}

inline std::vector<double> Collect(const std::vector<QueryEval>& evals,
                                   RunMode mode, bool speedup) {
  std::vector<double> out;
  for (const QueryEval& e : evals) {
    out.push_back(speedup ? e.Speedup(mode) : e.F1(mode));
  }
  return out;
}

// "median (p25-p75)" cell for box-plot style figures.
inline std::string BoxCell(const std::vector<double>& values, int digits = 3) {
  const Summary s = Summarize(values);
  return TablePrinter::Num(s.median, digits) + " (" +
         TablePrinter::Num(s.p25, digits) + "-" +
         TablePrinter::Num(s.p75, digits) + ")";
}

// Prediction-only F1 over a workload's test queries (no replay).
inline std::vector<double> PythiaF1(WorkloadModel* model,
                                    const Workload& workload) {
  std::vector<double> f1;
  for (size_t ti : workload.test_indices) {
    const WorkloadQuery& q = workload.queries[ti];
    const auto predicted = model->Predict(q.tokens);
    f1.push_back(
        ComputeSetMetrics(predicted, model->GroundTruth(q.trace)).f1);
  }
  return f1;
}

// Buckets `order_by` into bottom-25% / middle / top-25% and returns the
// bucket index (0/1/2) per element — the quantile bucketing of Figures 7-11.
inline std::vector<int> QuartileBuckets(const std::vector<double>& order_by) {
  std::vector<double> sorted = order_by;
  std::sort(sorted.begin(), sorted.end());
  const double lo = Quantile(sorted, 0.25);
  const double hi = Quantile(sorted, 0.75);
  std::vector<int> buckets;
  for (double v : order_by) buckets.push_back(v <= lo ? 0 : (v >= hi ? 2 : 1));
  return buckets;
}

inline const char* BucketName(int b) {
  return b == 0 ? "low (bottom 25%)" : (b == 1 ? "medium" : "high (top 25%)");
}

}  // namespace pythia::bench

#endif  // PYTHIA_BENCH_COMMON_H_
