// Tests of the benchmark harness's own arithmetic and inputs: percentile
// choice, failure share, span self time, and seeded input generation.
#include <gtest/gtest.h>

#include "bench_stats.h"
#include "inputs.h"
#include "util/hash.h"

namespace perfbench {
namespace {

using pythia::QueryRunMetrics;
using pythia::Status;

TEST(TailPercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(9999), 99.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(999), 95.0);
  EXPECT_EQ(TailPercentile(200), 95.0);
  EXPECT_EQ(TailPercentile(199), 90.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(40), 75.0);
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(19), 0.0);
  EXPECT_EQ(TailPercentile(0), 0.0);
}

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 51.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 100.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 3.0}, 50), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 99), 0.0);
}

TEST(OutcomeTest, RejectionsAndErrorsCountAsFailed) {
  Outcome o;
  EXPECT_EQ(o.failed_share(), 0.0);
  QueryRunMetrics ok;
  QueryRunMetrics rejected;
  rejected.status = Status::ResourceExhausted("admission queue full");
  QueryRunMetrics broken;
  broken.status = Status::IoError("retries exhausted");
  for (int i = 0; i < 6; ++i) o.Add(ok);
  o.Add(rejected);
  o.Add(rejected);
  o.Add(broken);
  o.Add(ok);
  EXPECT_EQ(o.attempted, 10u);
  EXPECT_EQ(o.failed, 3u);
  EXPECT_DOUBLE_EQ(o.failed_share(), 0.3);
}

Span At(int64_t start, int64_t end, int32_t parent) {
  Span s;
  s.name = "x";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTimesTest, NestedChildrenAreSubtractedOnce) {
  // root [0,100) > child [10,60) > grandchild [20,40).
  const std::vector<Span> spans = {At(0, 100, -1), At(10, 60, 0),
                                   At(20, 40, 1)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 20);
}

TEST(SelfTimesTest, BackToBackAndOverlappingChildren) {
  // Back to back [10,30) [30,50), then [60,80) and [70,90) overlapping.
  const std::vector<Span> spans = {At(0, 100, -1), At(10, 30, 0),
                                   At(30, 50, 0), At(60, 80, 0),
                                   At(70, 90, 0)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 30);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[4], 20);
}

TEST(SelfTimesTest, RecorderNestsByOpenSpan) {
  SpanRecorder rec(true);
  const int32_t root = rec.Begin("query", 7);
  const int32_t a = rec.Begin("plan", 7);
  rec.End(a);
  const int32_t b = rec.Begin("run", 7);
  rec.End(b);
  rec.End(root);
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[1].parent, root);
  EXPECT_EQ(rec.spans()[2].parent, root);
  EXPECT_EQ(rec.spans()[2].query, 7);
  const std::vector<int64_t> self = SelfTimes(rec.spans());
  EXPECT_EQ(self[0] + self[1] + self[2],
            rec.spans()[0].end_ns - rec.spans()[0].start_ns);
  SpanRecorder off(false);
  EXPECT_EQ(off.Begin("query", 1), -1);
  EXPECT_TRUE(off.spans().empty());
}

// Any gap will do: the harness derives the real one from solo session times.
constexpr double kGapUs = 10000.0;

uint64_t Fingerprint(const Inputs& in) {
  uint64_t h = pythia::kFnvOffsetBasis;
  for (const pythia::Workload* w : {&in.train, &in.t91, &in.t19}) {
    for (const pythia::WorkloadQuery& q : w->queries) {
      for (const std::string& t : q.tokens) h = pythia::FnvString(h, t);
      for (const pythia::PageAccess& a : q.trace.accesses) {
        h = pythia::FnvPod(h, a.page.Pack());
      }
    }
    for (size_t i : w->train_indices) h = pythia::FnvPod(h, i);
  }
  h = pythia::FnvPod(h, in.fault_seed);
  for (const pythia::FleetSessionSpec& s : FleetArrivals(in, 1, kGapUs)) {
    h = pythia::FnvPod(h, s.arrival_us);
    h = pythia::FnvPod(h, s.workload_index);
    h = pythia::FnvPod(h, s.query_index);
  }
  return h;
}

TEST(InputsTest, SameSeedGivesSameInputs) {
  Inputs a, b, c;
  ASSERT_TRUE(MakeInputs(WorkloadKind::kZipfFleet, 11, &a).ok());
  ASSERT_TRUE(MakeInputs(WorkloadKind::kZipfFleet, 11, &b).ok());
  ASSERT_TRUE(MakeInputs(WorkloadKind::kZipfFleet, 12, &c).ok());
  EXPECT_EQ(a.t91.queries.size(), static_cast<size_t>(kCatalogT91));
  EXPECT_EQ(a.t19.queries.size(), static_cast<size_t>(kCatalogT19));
  EXPECT_EQ(FleetArrivals(a, 0, kGapUs).size(), kFleetSessions);
  EXPECT_EQ(Fingerprint(a), Fingerprint(b));
  EXPECT_NE(Fingerprint(a), Fingerprint(c));
  EXPECT_NE(FleetArrivals(a, 0, kGapUs)[5].arrival_us,
            FleetArrivals(a, 1, kGapUs)[5].arrival_us);
}

}  // namespace
}  // namespace perfbench
