#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/adaptation.h"
#include "core/system.h"

namespace pythia {
namespace {

// Shared fixtures: one DSB database + t91 workload, retrained per test so
// every test starts from the same deterministic model.
class AdaptationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = BuildDsbDatabase(DsbConfig{5, 42}).release();
    WorkloadOptions options;
    options.num_queries = 40;
    options.test_fraction = 0.1;
    auto w91 = GenerateWorkload(*db_, TemplateId::kDsb91, options);
    ASSERT_TRUE(w91.ok());
    w91_ = new Workload(std::move(*w91));
  }
  static void TearDownTestSuite() {
    delete w91_;
    delete db_;
  }

  static WorkloadModel TrainModel(int epochs = 4) {
    PredictorOptions options;
    options.epochs = epochs;
    options.num_threads = 1;
    Result<WorkloadModel> model = WorkloadModel::Train(*db_, *w91_, options);
    EXPECT_TRUE(model.ok());
    return std::move(*model);
  }

  void MakeSystem() {
    SimOptions sim;
    sim.buffer_pages = 512;
    env_ = std::make_unique<SimEnvironment>(sim);
    system_ = std::make_unique<PythiaSystem>(env_.get());
    system_->AddWorkload(*w91_, TrainModel());
  }

  static const WorkloadQuery& TestQuery(size_t i) {
    return w91_->queries[w91_->test_indices[i % w91_->test_indices.size()]];
  }

  static Database* db_;
  static Workload* w91_;
  std::unique_ptr<SimEnvironment> env_;
  std::unique_ptr<PythiaSystem> system_;
};

Database* AdaptationTest::db_ = nullptr;
Workload* AdaptationTest::w91_ = nullptr;

// ---------------------------------------------------------------------------
// Clone + incremental training.
// ---------------------------------------------------------------------------

TEST_F(AdaptationTest, CloneIsIndependentAndIdentical) {
  WorkloadModel original = TrainModel();
  WorkloadModel clone = original.Clone();

  const std::vector<std::string>& tokens = TestQuery(0).tokens;
  EXPECT_EQ(clone.Predict(tokens), original.Predict(tokens));
  EXPECT_EQ(clone.revision(), original.revision());
  EXPECT_EQ(clone.fingerprint(), original.fingerprint());

  // Retraining the clone must not disturb the original (deep copy).
  const std::unordered_set<PageId> before = original.Predict(tokens);
  std::vector<IncrementalSample> samples;
  for (size_t i = 0; i < 4; ++i) {
    const WorkloadQuery& q = w91_->queries[w91_->train_indices[i]];
    IncrementalSample s;
    s.tokens = &q.tokens;
    s.trace = &q.trace;
    s.structure_key = &q.structure_key;
    samples.push_back(s);
  }
  IncrementalTrainOptions topts;
  topts.epochs = 2;
  const IncrementalTrainReport report = clone.IncrementalTrain(samples, topts);
  EXPECT_EQ(report.samples, samples.size());
  EXPECT_GT(clone.revision(), original.revision());
  EXPECT_EQ(original.Predict(tokens), before);
}

TEST_F(AdaptationTest, IncrementalTrainGrowsVocabForNovelTokens) {
  WorkloadModel model = TrainModel();
  const uint64_t rev_before = model.revision();
  const std::vector<std::string>& known = TestQuery(0).tokens;
  const std::unordered_set<PageId> known_before = model.Predict(known);

  // A sample whose plan contains tokens the frozen vocabulary has never
  // seen: the incremental round must extend the vocabulary (and therefore
  // reset the optimizer moments — the embedding matrix changed shape).
  const WorkloadQuery& base = w91_->queries[w91_->train_indices[0]];
  std::vector<std::string> novel_tokens = base.tokens;
  novel_tokens.push_back("totally-novel-token-a");
  novel_tokens.push_back("totally-novel-token-b");
  std::string structure_key = base.structure_key;

  IncrementalSample s;
  s.tokens = &novel_tokens;
  s.trace = &base.trace;
  s.structure_key = &structure_key;

  IncrementalTrainOptions topts;
  topts.epochs = 0;  // vocab/profile growth only, no gradient steps
  topts.calibrate_threshold = false;  // keep the decision threshold fixed too
  const IncrementalTrainReport report = model.IncrementalTrain({s}, topts);
  EXPECT_GE(report.new_tokens, 2u);
  EXPECT_TRUE(report.grew_vocab);
  EXPECT_TRUE(report.optimizer_reset);
  EXPECT_GT(model.revision(), rev_before);
  // Growth appends rows; with zero gradient steps, predictions for known
  // plans are untouched.
  EXPECT_EQ(model.Predict(known), known_before);
}

TEST_F(AdaptationTest, ThresholdCalibrationMatchesManualGridSelection) {
  WorkloadModel base = TrainModel();
  std::vector<IncrementalSample> samples;
  for (size_t i = 0; i < 6; ++i) {
    const WorkloadQuery& q = w91_->queries[w91_->train_indices[i]];
    IncrementalSample s;
    s.tokens = &q.tokens;
    s.trace = &q.trace;
    s.structure_key = &q.structure_key;
    samples.push_back(s);
  }
  IncrementalTrainOptions topts;
  topts.epochs = 3;

  // Twin A: train without calibration, then replicate the documented grid
  // rule by hand (best F1 among grid points whose precision clears the
  // floor; most precise grid point when none does).
  topts.calibrate_threshold = false;
  WorkloadModel manual = base.Clone();
  manual.IncrementalTrain(samples, topts);
  const float grid[] = {0.40f, 0.45f, 0.50f, 0.55f, 0.60f,
                        0.65f, 0.70f, 0.75f, 0.80f};
  float expected = manual.options().threshold;
  double best_f1 = -1.0, best_precision = -1.0;
  bool best_meets = false;
  for (const float t : grid) {
    manual.set_threshold(t);
    double f1 = 0.0, precision = 0.0;
    for (const IncrementalSample& s : samples) {
      const PrecisionRecall m = ComputeSetMetrics(
          manual.Predict(*s.tokens), manual.GroundTruth(*s.trace));
      f1 += m.f1;
      precision += m.precision;
    }
    f1 /= samples.size();
    precision /= samples.size();
    const bool meets = precision >= topts.calibration_min_precision;
    if (meets ? (!best_meets || f1 > best_f1)
              : (!best_meets && precision > best_precision)) {
      expected = t;
      best_f1 = f1;
      best_precision = precision;
      best_meets = meets;
    }
  }

  // Twin B: same training with calibration on must land on that threshold.
  topts.calibrate_threshold = true;
  WorkloadModel calibrated = base.Clone();
  const IncrementalTrainReport report =
      calibrated.IncrementalTrain(samples, topts);
  EXPECT_FLOAT_EQ(report.threshold, expected);
  EXPECT_FLOAT_EQ(calibrated.options().threshold, expected);
  manual.set_threshold(expected);
  EXPECT_EQ(calibrated.Predict(*samples[0].tokens),
            manual.Predict(*samples[0].tokens));
}

// ---------------------------------------------------------------------------
// Hot swap + rollback at the system level (satellite: revision-bump
// correctness — no pre-swap-revision memoized plan may ever be served).
// ---------------------------------------------------------------------------

TEST_F(AdaptationTest, SwapModelInvalidatesMemoizedPlans) {
  MakeSystem();
  const WorkloadQuery& q = TestQuery(0);
  QueryRunMetrics m;

  const std::vector<PageId> plan_before = system_->PrefetchPlan(q, RunMode::kPythia, &m);
  const uint64_t misses_before = system_->prediction_cache_stats().misses;
  system_->PrefetchPlan(q, RunMode::kPythia, &m);
  EXPECT_GE(system_->prediction_cache_stats().hits, 1u);
  EXPECT_EQ(system_->prediction_cache_stats().misses, misses_before);

  const uint64_t rev_before = system_->model(0).revision();
  WorkloadModel candidate = system_->model(0).Clone();
  const uint64_t installed =
      system_->SwapModel(0, std::move(candidate), /*probation_sessions=*/4);
  EXPECT_GT(installed, rev_before);
  EXPECT_EQ(system_->model(0).revision(), installed);
  ASSERT_NE(system_->last_known_good(0), nullptr);
  EXPECT_TRUE(system_->watchdog(0).post_swap_probation_active());

  // Same plan again: the old revision's memoized entry must miss (the key
  // includes the revision), then re-memoize under the new revision.
  const uint64_t hits_after_swap = system_->prediction_cache_stats().hits;
  const std::vector<PageId> plan_after = system_->PrefetchPlan(q, RunMode::kPythia, &m);
  EXPECT_EQ(system_->prediction_cache_stats().misses, misses_before + 1);
  EXPECT_EQ(plan_after, plan_before);  // identical weights, same plan
  system_->PrefetchPlan(q, RunMode::kPythia, &m);
  EXPECT_EQ(system_->prediction_cache_stats().hits, hits_after_swap + 1);
  // One swap: exactly one revision step.
  EXPECT_EQ(installed, rev_before + 1);
}

TEST_F(AdaptationTest, RollbackRestoresSnapshotWithMonotonicRevision) {
  MakeSystem();
  const WorkloadQuery& q = TestQuery(0);
  const std::unordered_set<PageId> incumbent_pred =
      system_->model(0).Predict(q.tokens);

  // Install a visibly different candidate (stricter threshold changes the
  // emitted page set), then roll it back.
  WorkloadModel candidate = system_->model(0).Clone();
  candidate.set_threshold(0.999f);
  const uint64_t installed = system_->SwapModel(0, std::move(candidate), 4);

  ASSERT_TRUE(system_->RollbackModel(0));
  EXPECT_GT(system_->model(0).revision(), installed);
  EXPECT_EQ(system_->model(0).Predict(q.tokens), incumbent_pred);
  EXPECT_EQ(system_->last_known_good(0), nullptr);
  // One rollback: exactly one revision step past the swapped-in candidate.
  EXPECT_EQ(system_->model(0).revision(), installed + 1);
  // Snapshot consumed: a second rollback has nothing to restore.
  EXPECT_FALSE(system_->RollbackModel(0));
  // Rollback restarts the watchdog without a probation window.
  EXPECT_FALSE(system_->watchdog(0).post_swap_probation_active());
  EXPECT_FALSE(system_->watchdog(0).post_swap_demoted());
}

TEST_F(AdaptationTest, HotSwapMidConcurrentReplayConservesResources) {
  // Satellite: plans built before the swap keep running safely while the
  // swap lands "between" batches — pins and governor tokens are conserved,
  // and no pre-swap-revision plan is ever served afterwards.
  MakeSystem();
  GovernorOptions gopts;
  PrefetchGovernor& governor = system_->EnableGovernor(gopts);

  PrefetcherOptions prefetch;
  prefetch.start_delay_us = 0;
  std::vector<ConcurrentQuery> batch;
  for (size_t i = 0; i < 4; ++i) {
    batch.push_back(system_->PlanConcurrentQuery(
        TestQuery(i), RunMode::kPythia, /*arrival_us=*/i * 500, prefetch));
  }

  // Hot swap between planning and replay: the batch's page lists were
  // derived from the outgoing model — they must still replay fine (pages
  // are plain data; sessions never dereference the model).
  WorkloadModel candidate = system_->model(0).Clone();
  const uint64_t installed = system_->SwapModel(0, std::move(candidate), 4);

  ConcurrentOptions copts;
  copts.governor = &governor;
  env_->ColdRestart();
  const ConcurrentResult result = ReplayConcurrent(batch, copts, env_.get());
  for (const QueryRunMetrics& qm : result.queries) {
    EXPECT_TRUE(qm.status.ok()) << qm.status.ToString();
  }

  // Resource conservation: every prefetch pin was released and every
  // outstanding async read retired by the end of the batch.
  EXPECT_EQ(env_->pool().pinned_frames(), 0u);
  EXPECT_EQ(governor.outstanding_aio(result.makespan_us + 1), 0u);

  // Post-swap planning memoizes under the installed revision only.
  QueryRunMetrics m;
  const uint64_t misses_before = system_->prediction_cache_stats().misses;
  system_->PrefetchPlan(TestQuery(0), RunMode::kPythia, &m);
  EXPECT_EQ(system_->prediction_cache_stats().misses, misses_before + 1);
  EXPECT_EQ(system_->model(0).revision(), installed);
}

// ---------------------------------------------------------------------------
// Watchdog post-swap probation.
// ---------------------------------------------------------------------------

TEST(PostSwapProbationTest, DemotionInsideWindowLatches) {
  WatchdogOptions opts;
  opts.window = 4;
  opts.min_samples = 2;
  opts.min_useful_ratio = 0.5;
  opts.min_attempted = 4;
  PredictionWatchdog wd(opts);
  wd.RestartForNewModel(/*probation_sessions=*/6);
  EXPECT_TRUE(wd.post_swap_probation_active());
  EXPECT_FALSE(wd.post_swap_demoted());

  // Useless sessions demote within the window: the latch fires.
  wd.Record(/*attempted=*/10, /*consumed=*/0);
  wd.Record(10, 0);
  EXPECT_EQ(wd.health(), ModelHealth::kDegraded);
  EXPECT_TRUE(wd.post_swap_demoted());
}

TEST(PostSwapProbationTest, DemotionOnFinalProbationSessionStillLatches) {
  WatchdogOptions opts;
  opts.window = 2;
  opts.min_samples = 2;
  opts.min_useful_ratio = 0.5;
  opts.min_attempted = 4;
  PredictionWatchdog wd(opts);
  wd.RestartForNewModel(2);
  // The window closes after the session is judged, so a demotion triggered
  // by the last in-window session must still latch.
  wd.Record(10, 0);
  EXPECT_TRUE(wd.post_swap_probation_active());
  wd.Record(10, 0);
  EXPECT_TRUE(wd.post_swap_demoted());
  EXPECT_FALSE(wd.post_swap_probation_active());
}

TEST(PostSwapProbationTest, HealthySessionsExpireWindowWithoutLatch) {
  WatchdogOptions opts;
  opts.window = 4;
  opts.min_samples = 2;
  opts.min_useful_ratio = 0.5;
  opts.min_attempted = 4;
  PredictionWatchdog wd(opts);
  wd.RestartForNewModel(3);
  for (int i = 0; i < 3; ++i) wd.Record(10, 9);
  EXPECT_FALSE(wd.post_swap_probation_active());
  EXPECT_FALSE(wd.post_swap_demoted());
  EXPECT_EQ(wd.health(), ModelHealth::kHealthy);

  // A demotion after the window closed is ordinary drift, not a bad swap.
  for (int i = 0; i < 6; ++i) wd.Record(10, 0);
  EXPECT_EQ(wd.health(), ModelHealth::kDegraded);
  EXPECT_FALSE(wd.post_swap_demoted());
}

TEST(PostSwapProbationTest, TinySessionsDoNotConsumeTheWindow) {
  WatchdogOptions opts;
  opts.min_attempted = 8;
  PredictionWatchdog wd(opts);
  wd.RestartForNewModel(2);
  // Below min_attempted: never judged, so the probation window must not
  // shrink — a bad model could otherwise coast through on tiny sessions.
  for (int i = 0; i < 10; ++i) wd.Record(2, 0);
  EXPECT_TRUE(wd.post_swap_probation_active());
}

// ---------------------------------------------------------------------------
// The full adaptation loop.
// ---------------------------------------------------------------------------

// Options tuned for tests: volume-only trigger, tiny window, trivially
// passing validation gates unless a test overrides them.
AdaptationOptions FastLoopOptions() {
  AdaptationOptions opts;
  opts.window_capacity = 8;
  opts.retrain_after = 6;
  opts.min_holdout = 2;
  opts.trigger_useful_ratio = 1.0;  // volume-only trigger
  opts.train.epochs = 1;
  opts.train_cost_per_sample_us = 1;
  opts.min_speedup_vs_default = 0.0;
  opts.min_speedup_vs_incumbent = 0.0;
  opts.min_useful_ratio = 0.0;
  opts.probation_sessions = 2;
  opts.cooldown_captures = 4;
  return opts;
}

TEST_F(AdaptationTest, LoopRetrainsSwapsAndCommits) {
  MakeSystem();
  AdaptationManager& manager = system_->EnableAdaptation(FastLoopOptions());

  PrefetcherOptions prefetch;
  prefetch.start_delay_us = 0;
  const uint64_t rev_before = system_->model(0).revision();
  for (int i = 0; i < 40 && manager.stats().commits == 0; ++i) {
    system_->RunQuery(TestQuery(i), RunMode::kPythia, prefetch);
  }

  const AdaptationStats& stats = manager.stats();
  EXPECT_GE(stats.retrains_started, 1u);
  EXPECT_EQ(stats.retrains_completed, stats.retrains_started);
  EXPECT_GE(stats.swaps, 1u);
  EXPECT_GE(stats.commits, 1u);
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_GT(system_->model(0).revision(), rev_before);

  // The event timeline tells the same story in order: a retrain starts
  // before its swap, which precedes its commit.
  const std::vector<AdaptationEvent>& events = manager.events();
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events[0].kind, AdaptationEvent::Kind::kRetrainStart);
  auto swap_it = std::find_if(events.begin(), events.end(), [](const AdaptationEvent& e) {
    return e.kind == AdaptationEvent::Kind::kSwap;
  });
  auto commit_it = std::find_if(events.begin(), events.end(), [](const AdaptationEvent& e) {
    return e.kind == AdaptationEvent::Kind::kCommit;
  });
  ASSERT_NE(swap_it, events.end());
  ASSERT_NE(commit_it, events.end());
  EXPECT_LT(swap_it - events.begin(), commit_it - events.begin());
}

TEST_F(AdaptationTest, FailingShadowValidationKeepsIncumbent) {
  MakeSystem();
  AdaptationOptions opts = FastLoopOptions();
  opts.min_speedup_vs_default = 1e9;  // unattainable gate
  AdaptationManager& manager = system_->EnableAdaptation(opts);

  PrefetcherOptions prefetch;
  prefetch.start_delay_us = 0;
  const uint64_t rev_before = system_->model(0).revision();
  for (int i = 0; i < 30 && manager.stats().validations_failed == 0; ++i) {
    system_->RunQuery(TestQuery(i), RunMode::kPythia, prefetch);
  }

  EXPECT_GE(manager.stats().validations_failed, 1u);
  EXPECT_EQ(manager.stats().swaps, 0u);
  EXPECT_EQ(manager.stats().rollbacks, 0u);
  // The incumbent keeps serving at its original revision: the candidate
  // never became visible to live traffic.
  EXPECT_EQ(system_->model(0).revision(), rev_before);
  EXPECT_EQ(system_->last_known_good(0), nullptr);
}

TEST_F(AdaptationTest, PostSwapDemotionRollsBackAutomatically) {
  MakeSystem();
  AdaptationOptions opts = FastLoopOptions();
  opts.probation_sessions = 8;
  AdaptationManager& manager = system_->EnableAdaptation(opts);

  PrefetcherOptions prefetch;
  prefetch.start_delay_us = 0;
  const std::unordered_set<PageId> incumbent_pred =
      system_->model(0).Predict(TestQuery(0).tokens);

  // Drive the loop to the first swap.
  int i = 0;
  for (; i < 40 && manager.stats().swaps == 0; ++i) {
    system_->RunQuery(TestQuery(i), RunMode::kPythia, prefetch);
  }
  ASSERT_GE(manager.stats().swaps, 1u);
  ASSERT_EQ(manager.phase(0), AdaptationPhase::kProbation);
  const uint64_t swapped_revision = system_->model(0).revision();

  // Simulate the freshly-installed model being useless on live traffic:
  // feed the watchdog useless sessions until it demotes inside the
  // post-swap window. The next observed query must trigger the rollback.
  PredictionWatchdog& wd = system_->watchdog(0);
  while (!wd.post_swap_demoted() && wd.post_swap_probation_active()) {
    wd.Record(/*attempted=*/64, /*consumed=*/0);
  }
  ASSERT_TRUE(wd.post_swap_demoted());
  EXPECT_GE(wd.stats().demotions, 1u);

  system_->RunQuery(TestQuery(i), RunMode::kPythia, prefetch);
  EXPECT_EQ(manager.stats().rollbacks, 1u);
  EXPECT_EQ(system_->last_known_good(0), nullptr);  // snapshot restored
  EXPECT_GT(system_->model(0).revision(), swapped_revision);
  EXPECT_EQ(system_->model(0).Predict(TestQuery(0).tokens), incumbent_pred);
  EXPECT_EQ(manager.phase(0), AdaptationPhase::kCooldown);
  // The rollback event is on the timeline with the restored revision.
  const std::vector<AdaptationEvent>& events = manager.events();
  auto it = std::find_if(events.begin(), events.end(), [](const AdaptationEvent& e) {
    return e.kind == AdaptationEvent::Kind::kRollback;
  });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->revision, system_->model(0).revision());
}

TEST_F(AdaptationTest, SameSeedRerunsProduceIdenticalTimelines) {
  // Determinism acceptance: the whole loop — capture, trigger, virtual
  // training cost, shadow validation, swap — is a pure function of the
  // observed query stream. Two fresh systems driven identically must
  // produce byte-identical event timelines (including lane timestamps).
  auto run_once = [this]() {
    MakeSystem();
    AdaptationManager& manager = system_->EnableAdaptation(FastLoopOptions());
    PrefetcherOptions prefetch;
    prefetch.start_delay_us = 0;
    for (int i = 0; i < 30; ++i) {
      system_->RunQuery(TestQuery(i), RunMode::kPythia, prefetch);
    }
    return manager.events();
  };
  const std::vector<AdaptationEvent> a = run_once();
  const std::vector<AdaptationEvent> b = run_once();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GE(a.size(), 2u);  // the loop actually did something
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].entry, b[i].entry) << "event " << i;
    EXPECT_EQ(a[i].lane_us, b[i].lane_us) << "event " << i;
    EXPECT_EQ(a[i].revision, b[i].revision) << "event " << i;
  }
}

}  // namespace
}  // namespace pythia
