// Prediction-memoization tests: LRU mechanics and counters on the cache
// itself, and end-to-end through PythiaSystem — a repeated plan must be
// served bit-identically from the cache, and a model mutation (threshold
// change) must invalidate it via the revision key component.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/prediction_cache.h"
#include "core/predictor.h"
#include "core/system.h"
#include "workload/generator.h"

namespace pythia {
namespace {

PredictionKey Key(uint64_t model_id, uint64_t revision,
                  const std::string& plan) {
  return PredictionKey{model_id, revision, plan};
}

std::vector<PageId> Pages(std::initializer_list<uint32_t> pages) {
  std::vector<PageId> out;
  for (uint32_t p : pages) out.push_back(PageId{1, p});
  return out;
}

TEST(PredictionCacheTest, MissThenHit) {
  PredictionCache cache(4);
  std::vector<PageId> got;
  EXPECT_FALSE(cache.Lookup(Key(0, 0, "a"), &got));
  cache.Insert(Key(0, 0, "a"), Pages({1, 2, 3}));
  ASSERT_TRUE(cache.Lookup(Key(0, 0, "a"), &got));
  EXPECT_EQ(got, Pages({1, 2, 3}));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(PredictionCacheTest, KeyComponentsAllMatter) {
  PredictionCache cache(8);
  cache.Insert(Key(0, 0, "a"), Pages({1}));
  std::vector<PageId> got;
  EXPECT_FALSE(cache.Lookup(Key(1, 0, "a"), &got));  // other model
  EXPECT_FALSE(cache.Lookup(Key(0, 1, "a"), &got));  // other revision
  EXPECT_FALSE(cache.Lookup(Key(0, 0, "b"), &got));  // other plan
  EXPECT_TRUE(cache.Lookup(Key(0, 0, "a"), &got));
}

TEST(PredictionCacheTest, EvictsLeastRecentlyUsed) {
  PredictionCache cache(2);
  cache.Insert(Key(0, 0, "a"), Pages({1}));
  cache.Insert(Key(0, 0, "b"), Pages({2}));
  std::vector<PageId> got;
  ASSERT_TRUE(cache.Lookup(Key(0, 0, "a"), &got));  // a is now MRU
  cache.Insert(Key(0, 0, "c"), Pages({3}));         // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(Key(0, 0, "a"), &got));
  EXPECT_FALSE(cache.Lookup(Key(0, 0, "b"), &got));
  EXPECT_TRUE(cache.Lookup(Key(0, 0, "c"), &got));
}

TEST(PredictionCacheTest, InsertOverwritesInPlace) {
  PredictionCache cache(2);
  cache.Insert(Key(0, 0, "a"), Pages({1}));
  cache.Insert(Key(0, 0, "a"), Pages({9, 10}));
  EXPECT_EQ(cache.size(), 1u);
  std::vector<PageId> got;
  ASSERT_TRUE(cache.Lookup(Key(0, 0, "a"), &got));
  EXPECT_EQ(got, Pages({9, 10}));
}

TEST(PredictionCacheTest, OverwriteRefreshesLruPosition) {
  // Overwriting an existing key must move it to the MRU end: after the
  // overwrite, "a" is the freshest entry, so the next insert evicts "b".
  PredictionCache cache(2);
  cache.Insert(Key(0, 0, "a"), Pages({1}));
  cache.Insert(Key(0, 0, "b"), Pages({2}));
  cache.Insert(Key(0, 0, "a"), Pages({3}));  // overwrite, not a new entry
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.Insert(Key(0, 0, "c"), Pages({4}));  // evicts b, the true LRU
  EXPECT_EQ(cache.stats().evictions, 1u);
  std::vector<PageId> got;
  EXPECT_TRUE(cache.Lookup(Key(0, 0, "a"), &got));
  EXPECT_EQ(got, Pages({3}));
  EXPECT_FALSE(cache.Lookup(Key(0, 0, "b"), &got));
  EXPECT_TRUE(cache.Lookup(Key(0, 0, "c"), &got));
}

TEST(PredictionCacheTest, OverwriteAtCapacityNeitherEvictsNorGrows) {
  PredictionCache cache(2);
  cache.Insert(Key(0, 0, "a"), Pages({1}));
  cache.Insert(Key(0, 0, "b"), Pages({2}));
  cache.Insert(Key(0, 0, "b"), Pages({5, 6}));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  std::vector<PageId> got;
  EXPECT_TRUE(cache.Lookup(Key(0, 0, "a"), &got));
  ASSERT_TRUE(cache.Lookup(Key(0, 0, "b"), &got));
  EXPECT_EQ(got, Pages({5, 6}));
}

TEST(PredictionCacheTest, ZeroCapacityDisables) {
  PredictionCache cache(0);
  cache.Insert(Key(0, 0, "a"), Pages({1}));
  std::vector<PageId> got;
  EXPECT_FALSE(cache.Lookup(Key(0, 0, "a"), &got));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PredictionCacheTest, ClearDropsEntriesKeepsCounters) {
  PredictionCache cache(4);
  cache.Insert(Key(0, 0, "a"), Pages({1}));
  std::vector<PageId> got;
  ASSERT_TRUE(cache.Lookup(Key(0, 0, "a"), &got));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(Key(0, 0, "a"), &got));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PredictionCacheTest, PlanKeyIsUnambiguous) {
  // Token boundaries must survive the join: ["ab","c"] != ["a","bc"],
  // ["a"] != ["a",""].
  EXPECT_NE(PredictionCache::PlanKey({"ab", "c"}),
            PredictionCache::PlanKey({"a", "bc"}));
  EXPECT_NE(PredictionCache::PlanKey({"a"}),
            PredictionCache::PlanKey({"a", ""}));
  EXPECT_NE(PredictionCache::PlanKey({}), PredictionCache::PlanKey({""}));
  EXPECT_EQ(PredictionCache::PlanKey({"a", "b"}),
            PredictionCache::PlanKey({"a", "b"}));
}

// --- Single-flight dedupe (batch windows) --------------------------------

TEST(PredictionCacheTest, SingleFlightLeaderThenFollowers) {
  PredictionCache cache(4);
  EXPECT_TRUE(cache.BeginInflight(Key(0, 0, "a")));   // leader
  EXPECT_FALSE(cache.BeginInflight(Key(0, 0, "a")));  // follower 1
  EXPECT_FALSE(cache.BeginInflight(Key(0, 0, "a")));  // follower 2
  EXPECT_TRUE(cache.BeginInflight(Key(0, 0, "b")));   // distinct plan: leader
  EXPECT_EQ(cache.inflight(), 2u);
  EXPECT_EQ(cache.stats().dedup_joins, 2u);
  EXPECT_EQ(cache.stats().fanouts, 0u);  // nothing published yet
}

TEST(PredictionCacheTest, PublishInsertsAndCountsFanouts) {
  PredictionCache cache(4);
  ASSERT_TRUE(cache.BeginInflight(Key(0, 0, "a")));
  ASSERT_FALSE(cache.BeginInflight(Key(0, 0, "a")));
  ASSERT_FALSE(cache.BeginInflight(Key(0, 0, "a")));
  EXPECT_EQ(cache.PublishInflight(Key(0, 0, "a"), Pages({1, 2})), 2u);
  EXPECT_EQ(cache.stats().fanouts, 2u);
  EXPECT_EQ(cache.inflight(), 0u);
  // The publish is a real Insert: later lookups hit.
  std::vector<PageId> got;
  ASSERT_TRUE(cache.Lookup(Key(0, 0, "a"), &got));
  EXPECT_EQ(got, Pages({1, 2}));
  // The registration is gone: a new window starts a fresh leader.
  EXPECT_TRUE(cache.BeginInflight(Key(0, 0, "a")));
}

TEST(PredictionCacheTest, PublishWithoutFollowersReturnsZero) {
  PredictionCache cache(4);
  ASSERT_TRUE(cache.BeginInflight(Key(0, 0, "a")));
  EXPECT_EQ(cache.PublishInflight(Key(0, 0, "a"), Pages({7})), 0u);
  EXPECT_EQ(cache.stats().fanouts, 0u);
  // Publishing an unregistered key is a no-op, not an insert.
  EXPECT_EQ(cache.PublishInflight(Key(0, 0, "zz"), Pages({8})), 0u);
  std::vector<PageId> got;
  EXPECT_FALSE(cache.Lookup(Key(0, 0, "zz"), &got));
}

TEST(PredictionCacheTest, AbortDropsRegistrationWithoutInsert) {
  PredictionCache cache(4);
  ASSERT_TRUE(cache.BeginInflight(Key(0, 0, "a")));
  ASSERT_FALSE(cache.BeginInflight(Key(0, 0, "a")));
  cache.AbortInflight(Key(0, 0, "a"));
  EXPECT_EQ(cache.inflight(), 0u);
  std::vector<PageId> got;
  EXPECT_FALSE(cache.Lookup(Key(0, 0, "a"), &got));  // nothing was inserted
  EXPECT_EQ(cache.stats().fanouts, 0u);              // nobody was fanned
  EXPECT_TRUE(cache.BeginInflight(Key(0, 0, "a")));  // fresh leader again
}

TEST(PredictionCacheTest, SnapshotEntriesReproducesRecencyOrder) {
  PredictionCache cache(4);
  cache.Insert(Key(0, 0, "a"), Pages({1}));
  cache.Insert(Key(0, 0, "b"), Pages({2}));
  cache.Insert(Key(0, 0, "c"), Pages({3}));
  std::vector<PageId> got;
  ASSERT_TRUE(cache.Lookup(Key(0, 0, "a"), &got));  // a is MRU now
  const auto snapshot = cache.SnapshotEntries();    // LRU -> MRU
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].first.plan, "b");
  EXPECT_EQ(snapshot[1].first.plan, "c");
  EXPECT_EQ(snapshot[2].first.plan, "a");
  // Re-inserting in snapshot order into a fresh cache reproduces recency:
  // the LRU victim of the copy matches the original's.
  PredictionCache copy(3);
  for (const auto& [key, pages] : snapshot) copy.Insert(key, pages);
  copy.Insert(Key(0, 0, "d"), Pages({4}));  // evicts b, the LRU
  EXPECT_FALSE(copy.Lookup(Key(0, 0, "b"), &got));
  EXPECT_TRUE(copy.Lookup(Key(0, 0, "c"), &got));
  EXPECT_TRUE(copy.Lookup(Key(0, 0, "a"), &got));
}

TEST(PredictionCacheTest, ClearDropsInflightRegistrations) {
  PredictionCache cache(4);
  ASSERT_TRUE(cache.BeginInflight(Key(0, 0, "a")));
  cache.Clear();
  EXPECT_EQ(cache.inflight(), 0u);
  EXPECT_TRUE(cache.BeginInflight(Key(0, 0, "a")));
}

// End-to-end: PythiaSystem memoizes PrefetchPlan results per plan and
// invalidates them when the model's predictive behaviour changes.
TEST(PredictionCacheSystemTest, RepeatedPlanHitsCacheBitIdentically) {
  auto db = BuildDsbDatabase(DsbConfig{5, 42});
  WorkloadOptions wopts;
  wopts.num_queries = 30;
  wopts.test_fraction = 0.2;
  Result<Workload> wl = GenerateWorkload(*db, TemplateId::kDsb91, wopts);
  ASSERT_TRUE(wl.ok());
  PredictorOptions popts;
  popts.epochs = 2;
  popts.num_threads = 1;
  Result<WorkloadModel> model = WorkloadModel::Train(*db, *wl, popts);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  // PrefetchPlan touches no storage, so the system needs no environment.
  PythiaSystem system(nullptr);
  system.AddWorkload(*wl, std::move(*model));

  const WorkloadQuery& q = wl->queries[wl->test_indices[0]];
  QueryRunMetrics m1, m2;
  const std::vector<PageId> p1 =
      system.PrefetchPlan(q, RunMode::kPythia, &m1);
  EXPECT_EQ(system.prediction_cache_stats().misses, 1u);
  EXPECT_EQ(system.prediction_cache_stats().hits, 0u);

  const std::vector<PageId> p2 =
      system.PrefetchPlan(q, RunMode::kPythia, &m2);
  EXPECT_EQ(system.prediction_cache_stats().hits, 1u);
  EXPECT_EQ(p1, p2);  // bit-identical plan from the cache
  EXPECT_EQ(m1.accuracy.f1, m2.accuracy.f1);
  EXPECT_EQ(m1.predicted_pages, m2.predicted_pages);

  // Changing the threshold bumps the model revision: the cached plan for
  // the old revision must not be served.
  WorkloadModel* wm = system.MatchWorkload(q);
  ASSERT_NE(wm, nullptr);
  const uint64_t before = wm->revision();
  wm->set_threshold(0.95f);
  EXPECT_GT(wm->revision(), before);

  QueryRunMetrics m3;
  const std::vector<PageId> p3 =
      system.PrefetchPlan(q, RunMode::kPythia, &m3);
  EXPECT_EQ(system.prediction_cache_stats().misses, 2u);
  // A much stricter threshold cannot predict more pages than before.
  EXPECT_LE(p3.size(), p1.size());
}

}  // namespace
}  // namespace pythia
