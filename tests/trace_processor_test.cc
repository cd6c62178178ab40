#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/trace_processor.h"

namespace pythia {
namespace {

QueryTrace MakeTrace(
    const std::vector<std::tuple<ObjectId, uint32_t, bool>>& accesses) {
  QueryTrace trace;
  for (const auto& [object, page, seq] : accesses) {
    trace.accesses.push_back(PageAccess{PageId{object, page}, seq, 0});
  }
  return trace;
}

TEST(TraceProcessorTest, RemovesSequentialByOrigin) {
  const QueryTrace trace = MakeTrace({{1, 0, true},
                                      {1, 1, true},
                                      {2, 5, false},
                                      {1, 2, true},
                                      {2, 9, false}});
  const ObjectPageSets sets = ProcessTrace(trace);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets.at(2), (std::vector<uint32_t>{5, 9}));
}

TEST(TraceProcessorTest, Deduplicates) {
  const QueryTrace trace =
      MakeTrace({{2, 5, false}, {2, 5, false}, {2, 5, false}, {2, 7, false}});
  const ObjectPageSets sets = ProcessTrace(trace);
  EXPECT_EQ(sets.at(2), (std::vector<uint32_t>{5, 7}));
}

TEST(TraceProcessorTest, SortsByOffset) {
  const QueryTrace trace =
      MakeTrace({{2, 9, false}, {2, 1, false}, {2, 4, false}});
  const ObjectPageSets sets = ProcessTrace(trace);
  EXPECT_EQ(sets.at(2), (std::vector<uint32_t>{1, 4, 9}));
}

TEST(TraceProcessorTest, SegregatesByObject) {
  const QueryTrace trace =
      MakeTrace({{3, 1, false}, {2, 1, false}, {3, 0, false}});
  const ObjectPageSets sets = ProcessTrace(trace);
  EXPECT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets.at(2), (std::vector<uint32_t>{1}));
  EXPECT_EQ(sets.at(3), (std::vector<uint32_t>{0, 1}));
}

TEST(TraceProcessorTest, OriginModeIgnoresPositions) {
  // A positional run tagged non-sequential is kept: the rule reads the
  // executor's origin tag, not page numbers.
  const QueryTrace trace =
      MakeTrace({{1, 10, false}, {1, 11, false}, {1, 12, false}});
  const ObjectPageSets sets = ProcessTrace(trace);
  EXPECT_EQ(sets.at(1), (std::vector<uint32_t>{10, 11, 12}));
}

TEST(TraceProcessorTest, OracleLabelsAndFootprintAgree) {
  // Sequential runs, repeated pages, a page read sequentially and later
  // non-sequentially, and a non-sequential positional run, over three
  // objects: the oracle's plan, the training labels and the Table 1
  // footprint are three orders of one page set.
  const QueryTrace trace = MakeTrace({{1, 0, true},
                                      {1, 1, true},
                                      {2, 9, false},
                                      {1, 2, true},
                                      {3, 2, false},
                                      {1, 7, false},
                                      {2, 4, false},
                                      {2, 9, false},
                                      {3, 3, false},
                                      {1, 1, false},
                                      {3, 4, false},
                                      {1, 7, false},
                                      {2, 5, false},
                                      {1, 3, true}});
  const std::vector<PageId> first_access = {{2, 9}, {3, 2}, {1, 7}, {2, 4},
                                            {3, 3}, {1, 1}, {3, 4}, {2, 5}};
  EXPECT_EQ(OraclePages(trace), first_access);
  EXPECT_EQ(ProcessTrace(trace),
            (ObjectPageSets{{1, {1, 7}}, {2, {4, 5, 9}}, {3, {2, 3, 4}}}));
  EXPECT_EQ(trace.DistinctNonSequential(),
            std::unordered_set<PageId>(first_access.begin(),
                                       first_access.end()));
}

TEST(TraceProcessorTest, EmptyTrace) {
  EXPECT_TRUE(ProcessTrace(QueryTrace()).empty());
}

TEST(TraceProcessorTest, AllSequentialYieldsEmpty) {
  const QueryTrace trace = MakeTrace({{1, 0, true}, {1, 1, true}});
  EXPECT_TRUE(ProcessTrace(trace).empty());
}

TEST(QueryTraceTest, DistinctNonSequentialHelper) {
  const QueryTrace trace = MakeTrace(
      {{1, 0, true}, {2, 5, false}, {2, 5, false}, {3, 1, false}});
  EXPECT_EQ(trace.DistinctNonSequential().size(), 2u);
  EXPECT_EQ(trace.SequentialCount(), 1u);
}

TEST(TraceRecorderTest, CpuWorkAttachedToNextAccess) {
  TraceRecorder recorder;
  recorder.AddCpuWork(3);
  recorder.Record(PageId{1, 0}, true);
  recorder.Record(PageId{1, 1}, true);
  recorder.AddCpuWork(2);
  recorder.Record(PageId{1, 2}, true);
  const QueryTrace trace = recorder.Take();
  ASSERT_EQ(trace.accesses.size(), 3u);
  EXPECT_EQ(trace.accesses[0].cpu_tuples_before, 3u);
  EXPECT_EQ(trace.accesses[1].cpu_tuples_before, 0u);
  EXPECT_EQ(trace.accesses[2].cpu_tuples_before, 2u);
  EXPECT_EQ(trace.tuples_processed, 5u);
}

TEST(TraceRecorderTest, TakeResets) {
  TraceRecorder recorder;
  recorder.Record(PageId{1, 0}, false);
  recorder.Take();
  const QueryTrace trace = recorder.Take();
  EXPECT_TRUE(trace.accesses.empty());
  EXPECT_EQ(trace.tuples_processed, 0u);
}

}  // namespace
}  // namespace pythia
