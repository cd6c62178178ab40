#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "core/system.h"

namespace pythia {
namespace {

class SystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = BuildDsbDatabase(DsbConfig{5, 42}).release();
    WorkloadOptions options;
    options.num_queries = 40;
    options.test_fraction = 0.1;
    auto w91 = GenerateWorkload(*db_, TemplateId::kDsb91, options);
    auto w18 = GenerateWorkload(*db_, TemplateId::kDsb18, options);
    ASSERT_TRUE(w91.ok());
    ASSERT_TRUE(w18.ok());
    w91_ = new Workload(std::move(*w91));
    w18_ = new Workload(std::move(*w18));
  }
  static void TearDownTestSuite() {
    delete w91_;
    delete w18_;
    delete db_;
  }

  void SetUp() override {
    SimOptions sim;
    sim.buffer_pages = 512;
    env_ = std::make_unique<SimEnvironment>(sim);
    system_ = std::make_unique<PythiaSystem>(env_.get());
    PredictorOptions options;
    options.epochs = 4;
    options.num_threads = 1;
    Result<WorkloadModel> model = WorkloadModel::Train(*db_, *w91_, options);
    ASSERT_TRUE(model.ok());
    system_->AddWorkload(*w91_, std::move(*model));
  }

  static Database* db_;
  static Workload* w91_;
  static Workload* w18_;
  std::unique_ptr<SimEnvironment> env_;
  std::unique_ptr<PythiaSystem> system_;
};

Database* SystemTest::db_ = nullptr;
Workload* SystemTest::w91_ = nullptr;
Workload* SystemTest::w18_ = nullptr;

TEST_F(SystemTest, RunModeNames) {
  EXPECT_STREQ(RunModeName(RunMode::kDefault), "DFLT");
  EXPECT_STREQ(RunModeName(RunMode::kPythia), "PYTHIA");
  EXPECT_STREQ(RunModeName(RunMode::kOracle), "ORCL");
  EXPECT_STREQ(RunModeName(RunMode::kNearestNeighbor), "NN");
}

TEST_F(SystemTest, MatchesOwnWorkload) {
  const WorkloadQuery& q = w91_->queries[w91_->test_indices[0]];
  WorkloadModel* matched = system_->MatchWorkload(q);
  ASSERT_NE(matched, nullptr);
  EXPECT_EQ(matched->template_id(), TemplateId::kDsb91);
}

TEST_F(SystemTest, DoesNotMatchForeignWorkload) {
  // Algorithm 3 line 13: queries from a workload Pythia has no model for
  // fall back to default execution.
  const WorkloadQuery& q = w18_->queries[0];
  EXPECT_EQ(system_->MatchWorkload(q), nullptr);
  const QueryRunMetrics m =
      system_->RunQuery(q, RunMode::kPythia, PrefetcherOptions{});
  EXPECT_FALSE(m.engaged);
  EXPECT_EQ(m.prefetch_stats.issued, 0u);
}

TEST_F(SystemTest, DefaultModeNeverPrefetches) {
  const WorkloadQuery& q = w91_->queries[w91_->test_indices[0]];
  const QueryRunMetrics m =
      system_->RunQuery(q, RunMode::kDefault, PrefetcherOptions{});
  EXPECT_FALSE(m.engaged);
  EXPECT_EQ(m.pool_stats.prefetches_started, 0u);
}

TEST_F(SystemTest, OracleHasPerfectAccuracy) {
  const WorkloadQuery& q = w91_->queries[w91_->test_indices[0]];
  QueryRunMetrics m;
  system_->PrefetchPlan(q, RunMode::kOracle, &m);
  EXPECT_TRUE(m.engaged);
  EXPECT_DOUBLE_EQ(m.accuracy.f1, 1.0);
  EXPECT_EQ(m.predicted_pages, q.trace.DistinctNonSequential().size());
}

TEST_F(SystemTest, OracleNeverSlowerThanDefault) {
  PrefetcherOptions prefetch;
  prefetch.start_delay_us = 0;
  for (size_t ti : w91_->test_indices) {
    const WorkloadQuery& q = w91_->queries[ti];
    const auto dflt = system_->RunQuery(q, RunMode::kDefault, prefetch);
    const auto orcl = system_->RunQuery(q, RunMode::kOracle, prefetch);
    EXPECT_LE(orcl.elapsed_us, dflt.elapsed_us * 1.02) << "query " << ti;
  }
}

TEST_F(SystemTest, NearestNeighborEngagesWithPages) {
  const WorkloadQuery& q = w91_->queries[w91_->test_indices[0]];
  QueryRunMetrics m;
  const std::vector<PageId> pages =
      system_->PrefetchPlan(q, RunMode::kNearestNeighbor, &m);
  EXPECT_TRUE(m.engaged);
  EXPECT_FALSE(pages.empty());
  EXPECT_GT(m.accuracy.f1, 0.0);
  // The neighbor sets and the F1 reference are the model's ground truth:
  // the plan stays on modeled objects and is scored like the learned mode.
  const WorkloadModel& model = system_->model(0);
  const std::vector<ObjectId>& modeled = model.modeled_objects();
  for (const PageId& p : pages) {
    EXPECT_NE(std::find(modeled.begin(), modeled.end(), p.object_id),
              modeled.end())
        << "object " << p.object_id;
  }
  const PrecisionRecall expected = ComputeSetMetrics(
      std::unordered_set<PageId>(pages.begin(), pages.end()),
      model.GroundTruth(q.trace));
  EXPECT_EQ(m.accuracy.f1, expected.f1);
  EXPECT_EQ(m.accuracy.precision, expected.precision);
  EXPECT_EQ(m.accuracy.recall, expected.recall);
  EXPECT_EQ(m.accuracy.true_positives, expected.true_positives);
  EXPECT_EQ(m.accuracy.actual, expected.actual);
  EXPECT_EQ(m.predicted_pages, pages.size());
}

TEST_F(SystemTest, PythiaModeReportsAccuracy) {
  const WorkloadQuery& q = w91_->queries[w91_->test_indices[0]];
  QueryRunMetrics m;
  system_->PrefetchPlan(q, RunMode::kPythia, &m);
  EXPECT_TRUE(m.engaged);
  EXPECT_GE(m.accuracy.f1, 0.0);
  EXPECT_LE(m.accuracy.f1, 1.0);
}

TEST_F(SystemTest, PrefetchPlanSortedByOffsetForPythia) {
  const WorkloadQuery& q = w91_->queries[w91_->test_indices[0]];
  QueryRunMetrics m;
  const std::vector<PageId> pages =
      system_->PrefetchPlan(q, RunMode::kPythia, &m);
  for (size_t i = 1; i < pages.size(); ++i) {
    EXPECT_LT(pages[i - 1], pages[i]);
  }
}

TEST_F(SystemTest, ColdFlagControlsRestart) {
  const WorkloadQuery& q = w91_->queries[w91_->test_indices[0]];
  const auto cold1 =
      system_->RunQuery(q, RunMode::kDefault, PrefetcherOptions{}, true);
  const auto warm =
      system_->RunQuery(q, RunMode::kDefault, PrefetcherOptions{}, false);
  EXPECT_LT(warm.elapsed_us, cold1.elapsed_us);
  const auto cold2 =
      system_->RunQuery(q, RunMode::kDefault, PrefetcherOptions{}, true);
  EXPECT_EQ(cold2.elapsed_us, cold1.elapsed_us);
}

TEST_F(SystemTest, BreakerDegradesToDefaultAndRecovers) {
  CircuitBreakerOptions bopts;
  bopts.window = 4;
  bopts.min_samples = 2;
  bopts.failure_threshold = 0.5;
  bopts.cooldown_queries = 2;
  bopts.required_probe_successes = 2;
  system_->set_breaker_options(bopts);
  PrefetchHealthPolicy policy;
  policy.min_attempted = 1;
  system_->set_health_policy(policy);

  // A 1 us prefetch deadline writes off essentially every outstanding page
  // as timed out before the query can consume it — sessions look unhealthy
  // without needing any model or storage faults (kOracle isolates the
  // breaker from prediction quality).
  PrefetcherOptions sick;
  sick.start_delay_us = 0;
  sick.prefetch_timeout_us = 1;
  const WorkloadQuery& q = w91_->queries[w91_->test_indices[0]];

  for (int i = 0; i < 8 && system_->breaker().state() == BreakerState::kClosed;
       ++i) {
    const QueryRunMetrics m = system_->RunQuery(q, RunMode::kOracle, sick);
    ASSERT_TRUE(m.status.ok());
    ASSERT_FALSE(m.degraded_by_breaker);
    ASSERT_GT(m.prefetch_stats.timed_out, 0u);
  }
  ASSERT_EQ(system_->breaker().state(), BreakerState::kOpen);
  EXPECT_EQ(system_->breaker().stats().trips, 1u);

  // Open: prefetch-eligible queries run as DFLT for the cooldown.
  for (int i = 0; i < 2; ++i) {
    const QueryRunMetrics m = system_->RunQuery(q, RunMode::kOracle, sick);
    EXPECT_TRUE(m.degraded_by_breaker);
    EXPECT_FALSE(m.engaged);
    EXPECT_EQ(m.prefetch_stats.issued, 0u);
  }
  EXPECT_EQ(system_->breaker().stats().rejected, 2u);
  EXPECT_EQ(system_->breaker().state(), BreakerState::kHalfOpen);

  // Half-open: probes run with healthy options and close the breaker.
  PrefetcherOptions healthy;
  healthy.start_delay_us = 0;
  for (int i = 0; i < 2; ++i) {
    const QueryRunMetrics m = system_->RunQuery(q, RunMode::kOracle, healthy);
    EXPECT_FALSE(m.degraded_by_breaker);
    EXPECT_TRUE(m.engaged);
    EXPECT_GT(m.prefetch_stats.consumed, 0u);
  }
  EXPECT_EQ(system_->breaker().state(), BreakerState::kClosed);
  EXPECT_EQ(system_->breaker().stats().recoveries, 1u);

  // Closed again: prefetching is back for good.
  const QueryRunMetrics m = system_->RunQuery(q, RunMode::kOracle, healthy);
  EXPECT_FALSE(m.degraded_by_breaker);
  EXPECT_GT(m.prefetch_stats.issued, 0u);
}

TEST_F(SystemTest, CachedPlanOnlyServesHitsWithoutInference) {
  const WorkloadQuery& q = w91_->queries[w91_->test_indices[0]];
  // Cold plan cache: the cached-only rung sheds inference entirely, so a
  // miss returns no pages (and does not engage).
  QueryRunMetrics miss;
  EXPECT_TRUE(system_->CachedPlanOnly(q, RunMode::kPythia, &miss).empty());
  EXPECT_FALSE(miss.engaged);

  // A full plan memoizes the prediction; the cached-only rung now serves
  // the identical page list with full metrics.
  QueryRunMetrics full;
  const std::vector<PageId> planned =
      system_->PrefetchPlan(q, RunMode::kPythia, &full);
  QueryRunMetrics hit;
  const std::vector<PageId> cached =
      system_->CachedPlanOnly(q, RunMode::kPythia, &hit);
  EXPECT_EQ(cached, planned);
  EXPECT_EQ(hit.engaged, full.engaged);
  EXPECT_EQ(hit.predicted_pages, full.predicted_pages);

  // Only the learned mode has inference to shed.
  QueryRunMetrics oracle;
  EXPECT_TRUE(system_->CachedPlanOnly(q, RunMode::kOracle, &oracle).empty());
}

TEST_F(SystemTest, GovernorRungDegradesAndRecoversRunQuery) {
  // Budget well above what one query's session pins, so only the ballast
  // below (not the query's own speculation) can move the ladder.
  GovernorOptions gopts;
  gopts.max_pinned_pages = 400;
  gopts.max_outstanding_aio = 10000;  // AIO pacing is not under test here
  PrefetchGovernor& governor = system_->EnableGovernor(gopts);
  const WorkloadQuery& q = w91_->queries[w91_->test_indices[0]];

  // Ballast pins drive pressure to 1.0: the ladder jumps to its last rung
  // and every query is served without any speculation.
  const uint64_t ballast = governor.RegisterSession(nullptr, 0);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(governor.TryAcquirePin(ballast, 0));
  }
  ASSERT_EQ(governor.Evaluate(0), DegradationRung::kNoPrefetch);

  const QueryRunMetrics degraded =
      system_->RunQuery(q, RunMode::kPythia, PrefetcherOptions{});
  ASSERT_TRUE(degraded.status.ok());
  EXPECT_EQ(degraded.rung, DegradationRung::kNoPrefetch);
  EXPECT_TRUE(degraded.degraded_by_governor);
  EXPECT_FALSE(degraded.engaged);
  EXPECT_EQ(degraded.prefetch_stats.issued, 0u);
  EXPECT_GT(governor.stats().rung_degrades, 0u);

  // Pressure gone: the ladder climbs back (one rung per evaluation) and
  // full neural service resumes.
  for (int i = 0; i < 400; ++i) governor.ReleasePin(ballast);
  governor.UnregisterSession(ballast);
  for (int i = 0; i < kNumDegradationRungs; ++i) governor.Evaluate(0);
  ASSERT_EQ(governor.rung(), DegradationRung::kFullNeural);
  const QueryRunMetrics healthy =
      system_->RunQuery(q, RunMode::kPythia, PrefetcherOptions{});
  ASSERT_TRUE(healthy.status.ok());
  EXPECT_EQ(healthy.rung, DegradationRung::kFullNeural);
  EXPECT_FALSE(healthy.degraded_by_governor || healthy.degraded_by_breaker ||
               healthy.degraded_by_watchdog);
  EXPECT_TRUE(healthy.engaged);
}

TEST_F(SystemTest, GovernedRunQueryStreamRecoversTheLadder) {
  // A closed-loop RunQuery stream lifts its own ladder: the replay walks
  // the governor at every access, so once the pressure is gone the query
  // after a degraded one plans at full neural service. No manual Evaluate.
  GovernorOptions gopts;
  gopts.max_pinned_pages = 400;
  gopts.max_outstanding_aio = 10000;
  PrefetchGovernor& governor = system_->EnableGovernor(gopts);
  const WorkloadQuery& q = w91_->queries[w91_->test_indices[0]];

  const uint64_t ballast = governor.RegisterSession(nullptr, 0);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(governor.TryAcquirePin(ballast, 0));
  }
  ASSERT_EQ(governor.Evaluate(0), DegradationRung::kNoPrefetch);
  for (int i = 0; i < 400; ++i) governor.ReleasePin(ballast);
  governor.UnregisterSession(ballast);

  // Planned while the ladder still reads no-prefetch: no session runs.
  const QueryRunMetrics first =
      system_->RunQuery(q, RunMode::kOracle, PrefetcherOptions{});
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.rung, DegradationRung::kNoPrefetch);
  EXPECT_FALSE(first.engaged);
  EXPECT_EQ(first.prefetch_stats.issued, 0u);
  EXPECT_EQ(governor.rung(), DegradationRung::kFullNeural);

  const QueryRunMetrics second =
      system_->RunQuery(q, RunMode::kOracle, PrefetcherOptions{});
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.rung, DegradationRung::kFullNeural);
  EXPECT_TRUE(second.engaged);
  EXPECT_GT(second.prefetch_stats.issued, 0u);
  EXPECT_GT(governor.stats().rung_recoveries, 0u);
}

TEST_F(SystemTest, ConcurrentPlanRoundTrip) {
  GovernorOptions gopts;
  PrefetchGovernor& governor = system_->EnableGovernor(gopts);
  env_->ColdRestart();

  // Four queries, staggered arrivals, two slots, a one-deep queue and a
  // 1 us deadline: three admissions (one after a wait), one rejection, and
  // every admitted session is deadline-stopped on its first step.
  PrefetcherOptions popts;
  popts.start_delay_us = 0;
  std::vector<ConcurrentQuery> batch;
  for (size_t i = 0; i < 4; ++i) {
    const WorkloadQuery& q =
        w91_->queries[w91_->test_indices[i % w91_->test_indices.size()]];
    ConcurrentQuery cq = system_->PlanConcurrentQuery(
        q, RunMode::kOracle, /*arrival_us=*/0, popts);
    ASSERT_FALSE(cq.prefetch_pages.empty());
    EXPECT_EQ(cq.prefetch_options.governor, &governor);
    EXPECT_TRUE(cq.planned.engaged);
    batch.push_back(std::move(cq));
  }

  ConcurrentOptions copts;
  copts.governor = &governor;
  copts.max_active_queries = 2;
  copts.admission_queue_limit = 1;
  copts.default_deadline_us = 1;
  const ConcurrentResult r = ReplayConcurrent(batch, copts, env_.get());

  EXPECT_EQ(r.admission.admitted_immediately, 2u);
  EXPECT_EQ(r.admission.admitted_after_wait, 1u);
  EXPECT_EQ(r.admission.rejected, 1u);
  EXPECT_EQ(r.admission.deadline_stops, 3u);
  uint64_t ok = 0, rejected = 0, waited = 0;
  for (const QueryRunMetrics& m : r.queries) {
    if (m.status.ok()) {
      ++ok;
      EXPECT_TRUE(m.engaged);  // planning-time seed survived the replay
      EXPECT_TRUE(m.deadline_exceeded);
      if (m.queue_wait_us > 0) ++waited;
    } else {
      ++rejected;
      EXPECT_EQ(m.status.code(), StatusCode::kResourceExhausted);
    }
  }
  EXPECT_EQ(ok, 3u);
  EXPECT_EQ(rejected, 1u);
  // Each query carries its own wait; the admitted-after-wait count is theirs.
  EXPECT_EQ(waited, r.admission.admitted_after_wait);
  EXPECT_EQ(env_->pool().pinned_frames(), 0u);
  EXPECT_EQ(governor.pinned_pages(), 0u);
}

TEST_F(SystemTest, MatchThresholdAdjustable) {
  system_->set_match_threshold(0.0);
  EXPECT_NE(system_->MatchWorkload(w18_->queries[0]), nullptr);
  system_->set_match_threshold(1.01);
  // Even own-workload queries with exactly seen structure score 1.0 < 1.01.
  EXPECT_EQ(system_->MatchWorkload(w91_->queries[0]), nullptr);
}

}  // namespace
}  // namespace pythia
