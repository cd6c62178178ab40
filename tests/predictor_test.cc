#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/predictor.h"
#include "storage/durable.h"
#include "util/metrics.h"

namespace pythia {
namespace {

// Shared tiny workload: templates over a SF-5 DSB database, enough signal
// for small models to learn something within seconds.
class PredictorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Force real worker threads into the shared pool even on single-core
    // machines, so the determinism guard below exercises actual
    // parallelism. Must happen before the first ThreadPool::Global() use.
    setenv("PYTHIA_THREADS", "4", /*overwrite=*/1);
    db_ = BuildDsbDatabase(DsbConfig{5, 42}).release();
    WorkloadOptions options;
    options.num_queries = 40;
    options.test_fraction = 0.1;
    Result<Workload> wl =
        GenerateWorkload(*db_, TemplateId::kDsb91, options);
    ASSERT_TRUE(wl.ok());
    workload_ = new Workload(std::move(*wl));
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete db_;
    workload_ = nullptr;
    db_ = nullptr;
  }

  static PredictorOptions FastOptions() {
    PredictorOptions options;
    options.epochs = 4;
    options.num_threads = 1;
    return options;
  }

  static Database* db_;
  static Workload* workload_;
};

Database* PredictorTest::db_ = nullptr;
Workload* PredictorTest::workload_ = nullptr;

TEST_F(PredictorTest, TrainsModelsForNonSeqObjects) {
  Result<WorkloadModel> model =
      WorkloadModel::Train(*db_, *workload_, FastOptions());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(model->report().num_models, 0u);
  EXPECT_GT(model->report().total_parameters, 0u);
  EXPECT_FALSE(model->modeled_objects().empty());
}

TEST_F(PredictorTest, PredictReturnsPagesWithinModeledObjects) {
  Result<WorkloadModel> model =
      WorkloadModel::Train(*db_, *workload_, FastOptions());
  ASSERT_TRUE(model.ok());
  const WorkloadQuery& q = workload_->queries[workload_->test_indices[0]];
  std::unordered_set<PageId> predicted = model->Predict(q.tokens);
  for (const PageId& p : predicted) {
    EXPECT_NE(std::find(model->modeled_objects().begin(),
                        model->modeled_objects().end(), p.object_id),
              model->modeled_objects().end());
  }
}

TEST_F(PredictorTest, RestrictObjectsLimitsModels) {
  // Restrict to the customer heap relation only.
  PredictorOptions options = FastOptions();
  options.restrict_objects = {
      db_->catalog.GetRelation("customer")->object_id()};
  Result<WorkloadModel> model =
      WorkloadModel::Train(*db_, *workload_, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->modeled_objects(), options.restrict_objects);
  const WorkloadQuery& q = workload_->queries[0];
  for (const PageId& p : model->Predict(q.tokens)) {
    EXPECT_EQ(p.object_id, options.restrict_objects[0]);
  }
}

TEST_F(PredictorTest, RestrictToModeledFiltersGroundTruth) {
  PredictorOptions options = FastOptions();
  options.restrict_objects = {
      db_->catalog.GetRelation("customer")->object_id()};
  Result<WorkloadModel> model =
      WorkloadModel::Train(*db_, *workload_, options);
  ASSERT_TRUE(model.ok());
  const WorkloadQuery& q = workload_->queries[0];
  const std::unordered_set<PageId> truth = model->GroundTruth(q.trace);
  for (const PageId& p : truth) {
    EXPECT_EQ(p.object_id, options.restrict_objects[0]);
  }
}

TEST_F(PredictorTest, PartitioningSplitsLargeObjects) {
  PredictorOptions options = FastOptions();
  options.max_pages_per_model = 16;  // force splitting
  Result<WorkloadModel> split = WorkloadModel::Train(*db_, *workload_, options);
  Result<WorkloadModel> whole =
      WorkloadModel::Train(*db_, *workload_, FastOptions());
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(whole.ok());
  EXPECT_GT(split->report().num_models, whole->report().num_models);
}

TEST_F(PredictorTest, CombinedModeGroupsTableWithIndex) {
  PredictorOptions options = FastOptions();
  options.combined_index_table_model = true;
  Result<WorkloadModel> combined =
      WorkloadModel::Train(*db_, *workload_, options);
  Result<WorkloadModel> split =
      WorkloadModel::Train(*db_, *workload_, FastOptions());
  ASSERT_TRUE(combined.ok());
  ASSERT_TRUE(split.ok());
  EXPECT_LT(combined->report().num_models, split->report().num_models);
  // Same objects covered either way.
  EXPECT_EQ(combined->modeled_objects(), split->modeled_objects());
}

TEST_F(PredictorTest, TopKLimitsPredictableUniverse) {
  PredictorOptions options = FastOptions();
  options.top_k_pages = 5;
  Result<WorkloadModel> model =
      WorkloadModel::Train(*db_, *workload_, options);
  ASSERT_TRUE(model.ok());
  const WorkloadQuery& q = workload_->queries[0];
  const size_t max_possible = model->modeled_objects().size() * 5;
  EXPECT_LE(model->Predict(q.tokens).size(), max_possible);
}

TEST_F(PredictorTest, TrainFractionReducesTrainingSet) {
  PredictorOptions options = FastOptions();
  options.epochs = 1;
  options.train_fraction = 0.25;
  Result<WorkloadModel> model =
      WorkloadModel::Train(*db_, *workload_, options);
  EXPECT_TRUE(model.ok());
}

TEST_F(PredictorTest, MatchScoreHighForOwnWorkload) {
  Result<WorkloadModel> model =
      WorkloadModel::Train(*db_, *workload_, FastOptions());
  ASSERT_TRUE(model.ok());
  for (size_t ti : workload_->test_indices) {
    const WorkloadQuery& q = workload_->queries[ti];
    EXPECT_GE(model->MatchScore(q.tokens, q.structure_key), 0.8);
  }
}

TEST_F(PredictorTest, MatchScoreLowForForeignTokens) {
  Result<WorkloadModel> model =
      WorkloadModel::Train(*db_, *workload_, FastOptions());
  ASSERT_TRUE(model.ok());
  const std::vector<std::string> foreign = {"[RELN_SEQ]", "martian_table",
                                            "[PRED]", "m_col", "=", "m:v1"};
  EXPECT_LT(model->MatchScore(foreign, "martian structure"), 0.8);
}

TEST_F(PredictorTest, SaveLoadRoundTripPredictsIdentically) {
  Result<WorkloadModel> model =
      WorkloadModel::Train(*db_, *workload_, FastOptions());
  ASSERT_TRUE(model.ok());
  const std::string path = ::testing::TempDir() + "/wm.pywm";
  ASSERT_TRUE(model->Save(path).ok());

  Result<WorkloadModel> loaded = WorkloadModel::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->template_id(), model->template_id());
  EXPECT_EQ(loaded->modeled_objects(), model->modeled_objects());
  EXPECT_EQ(loaded->report().num_models, model->report().num_models);

  for (size_t ti : workload_->test_indices) {
    const WorkloadQuery& q = workload_->queries[ti];
    const auto a = model->Predict(q.tokens);
    const auto b = loaded->Predict(q.tokens);
    EXPECT_EQ(a, b);
    EXPECT_DOUBLE_EQ(model->MatchScore(q.tokens, q.structure_key),
                     loaded->MatchScore(q.tokens, q.structure_key));
  }
}

TEST_F(PredictorTest, LoadMissingFileFails) {
  EXPECT_FALSE(WorkloadModel::Load("/nonexistent/model.pywm").ok());
}

TEST_F(PredictorTest, GetOrTrainUsesCache) {
  const std::string path = ::testing::TempDir() + "/cache.pywm";
  std::remove(path.c_str());
  PredictorOptions options = FastOptions();

  Result<WorkloadModel> first =
      GetOrTrainWorkloadModel(path, *db_, *workload_, options);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->report().train_seconds, 0.0);

  Result<WorkloadModel> second =
      GetOrTrainWorkloadModel(path, *db_, *workload_, options);
  ASSERT_TRUE(second.ok());
  // Same predictions from the cached copy.
  const WorkloadQuery& q = workload_->queries[workload_->test_indices[0]];
  EXPECT_EQ(first->Predict(q.tokens), second->Predict(q.tokens));
}

TEST_F(PredictorTest, CachedModelKeepsTrainedRevision) {
  // A model served from the cache is the model trained into it, revision
  // included: re-adopting the same threshold on load is not a change.
  const std::string path = ::testing::TempDir() + "/cache_rev.pywm";
  std::remove(path.c_str());
  std::remove((path + ".lkg").c_str());
  PredictorOptions options = FastOptions();
  Result<WorkloadModel> trained =
      GetOrTrainWorkloadModel(path, *db_, *workload_, options);
  ASSERT_TRUE(trained.ok());
  Result<WorkloadModel> loaded =
      GetOrTrainWorkloadModel(path, *db_, *workload_, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->revision(), trained->revision());

  // A real threshold change still moves the revision.
  const uint64_t before = loaded->revision();
  loaded->set_threshold(options.threshold + 0.1f);
  EXPECT_GT(loaded->revision(), before);
}

TEST_F(PredictorTest, GetOrTrainRetrainsOnConfigChange) {
  const std::string path = ::testing::TempDir() + "/cache2.pywm";
  std::remove(path.c_str());
  PredictorOptions options = FastOptions();
  ASSERT_TRUE(GetOrTrainWorkloadModel(path, *db_, *workload_, options).ok());

  PredictorOptions changed = options;
  changed.epochs = options.epochs + 1;
  Result<WorkloadModel> retrained =
      GetOrTrainWorkloadModel(path, *db_, *workload_, changed);
  ASSERT_TRUE(retrained.ok());
  EXPECT_EQ(retrained->fingerprint(),
            WorkloadModel::Fingerprint(changed, *workload_,
                                       db_->TotalPages()));
}

TEST_F(PredictorTest, FingerprintSensitiveToOptions) {
  PredictorOptions a = FastOptions();
  PredictorOptions b = FastOptions();
  b.lr *= 2;
  EXPECT_NE(WorkloadModel::Fingerprint(a, *workload_, 100),
            WorkloadModel::Fingerprint(b, *workload_, 100));
  EXPECT_NE(WorkloadModel::Fingerprint(a, *workload_, 100),
            WorkloadModel::Fingerprint(a, *workload_, 200));
}

// Determinism guard for the fast inference path: training and predicting
// with 4 pool lanes must be bit-identical to a single-threaded run under
// the same seed. Each unit's work depends only on its own index, so the
// interleaving cannot change any result.
TEST_F(PredictorTest, ParallelTrainingAndPredictionAreBitIdentical) {
  PredictorOptions sequential = FastOptions();  // num_threads = 1
  PredictorOptions parallel = FastOptions();
  parallel.num_threads = 4;

  Result<WorkloadModel> a = WorkloadModel::Train(*db_, *workload_, sequential);
  Result<WorkloadModel> b = WorkloadModel::Train(*db_, *workload_, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->report().num_models, b->report().num_models);
  // Exact double equality on the aggregated loss: any schedule-dependent
  // arithmetic anywhere in training would break this.
  EXPECT_EQ(a->report().mean_final_loss, b->report().mean_final_loss);

  for (size_t ti : workload_->test_indices) {
    const WorkloadQuery& q = workload_->queries[ti];
    EXPECT_EQ(a->Predict(q.tokens), b->Predict(q.tokens));
  }
}

// Fuzz the loader with a truncation at every byte of the integrity header
// (magic, version, payload size, CRC) and well into the payload: every
// prefix must be rejected as corruption — loudly, never with a garbage
// model or a crash.
TEST_F(PredictorTest, LoadRejectsTruncationAtEveryHeaderOffset) {
  Result<WorkloadModel> model =
      WorkloadModel::Train(*db_, *workload_, FastOptions());
  ASSERT_TRUE(model.ok());
  const std::string full = ::testing::TempDir() + "/fuzz_full.pywm";
  ASSERT_TRUE(model->Save(full).ok());
  Result<std::string> bytes = ReadFileBytes(full);
  ASSERT_TRUE(bytes.ok());
  // 20-byte header (u32 magic, u32 version, u64 payload size, u32 CRC),
  // then a margin of payload bytes.
  const size_t limit = std::min<size_t>(bytes.value().size(), 28);
  for (size_t keep = 0; keep < limit; ++keep) {
    const std::string path = ::testing::TempDir() + "/fuzz_trunc.pywm";
    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
    ASSERT_TRUE(WriteFileAtomic(path, bytes.value().data(), keep).ok());
    Result<WorkloadModel> loaded = WorkloadModel::Load(path);
    EXPECT_FALSE(loaded.ok()) << "truncation at byte " << keep << " loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataCorruption)
        << "truncation at byte " << keep;
    // Corrupt files are quarantined, not left for the next loader to trip
    // over again.
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  }
}

// The crash window between the primary's rename and the .lkg sidecar copy:
// GetOrTrain must die there as Aborted (the fresh weights do not escape),
// and the next start must self-heal — load the published primary and
// recreate the missing sidecar.
TEST_F(PredictorTest, GetOrTrainCrashBeforeSidecarThenSelfHeals) {
  const std::string path = ::testing::TempDir() + "/crash_sidecar.pywm";
  std::remove(path.c_str());
  std::remove((path + ".lkg").c_str());
  PredictorOptions options = FastOptions();

  CrashPointRegistry::Global().Reset();
  CrashPointRegistry::Global().Arm(kCrashPostRenamePreSidecar);
  Result<WorkloadModel> crashed =
      GetOrTrainWorkloadModel(path, *db_, *workload_, options);
  EXPECT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kAborted);
  // The kill landed after the publish: primary on disk, sidecar missing.
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".lkg"));

  // "Reboot" and retry: the cached primary serves and the sidecar heals.
  CrashPointRegistry::Global().Reset();
  Result<WorkloadModel> recovered =
      GetOrTrainWorkloadModel(path, *db_, *workload_, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(path + ".lkg"));
}

TEST_F(PredictorTest, UnknownTokensMapToUnk) {
  Result<WorkloadModel> model =
      WorkloadModel::Train(*db_, *workload_, FastOptions());
  ASSERT_TRUE(model.ok());
  // A query with entirely novel tokens still produces a (possibly empty)
  // prediction without crashing.
  const std::unordered_set<PageId> predicted =
      model->Predict({"[XX]", "never", "seen"});
  EXPECT_LE(predicted.size(), 100000u);
}

}  // namespace
}  // namespace pythia
