// Tracer tests: recording mechanics, Chrome-JSON export, per-query timeline
// aggregation, determinism (same inputs -> byte-identical JSON), and the
// disabled-by-default zero-recording guarantee. End-to-end trace content
// over a real replay is covered by bench_observability and replay_test.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/replay.h"
#include "util/trace.h"

namespace pythia {
namespace {

// Every test drives the process-global tracer (that is what the macros hit),
// so each one starts from a clean, disabled slate.
class TracerTest : public ::testing::Test {
 protected:
  TracerTest() {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
  ~TracerTest() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

TEST_F(TracerTest, DisabledRecordsNothingThroughMacros) {
  Tracer& tracer = Tracer::Global();
  ASSERT_FALSE(tracer.enabled());
  PYTHIA_TRACE_INSTANT("cat", "event", 10);
  PYTHIA_TRACE_SPAN("cat", "span", 0, 100);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST_F(TracerTest, DisabledDoesNotEvaluateArguments) {
  // The macro must not touch its arguments when tracing is off — that is
  // the zero-cost contract for hot paths.
  int evaluations = 0;
  auto expensive = [&evaluations]() -> uint64_t { return ++evaluations; };
  PYTHIA_TRACE_INSTANT("cat", "event", 0, "arg", expensive());
  EXPECT_EQ(evaluations, 0);
  Tracer::Global().Enable();
  PYTHIA_TRACE_INSTANT("cat", "event", 0, "arg", expensive());
  EXPECT_EQ(evaluations, 1);
}

TEST_F(TracerTest, RecordsSpansAndInstantsOnLanes) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  const uint32_t track = tracer.StartQueryTrack();
  PYTHIA_TRACE_SPAN("bufmgr", "fetch.miss", 100, 250, "obj", 1, "page", 7);
  PYTHIA_TRACE_IO_SPAN("io", "aio", 120, 400, "channel", 0);
  PYTHIA_TRACE_INSTANT("prefetch", "issue", 120);
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].lane, 2 * track);      // executor lane
  EXPECT_EQ(events[0].dur, 150u);
  EXPECT_EQ(events[1].lane, 2 * track + 1);  // I/O lane
  EXPECT_EQ(events[2].phase, 'i');
  EXPECT_STREQ(events[2].name, "issue");
}

TEST_F(TracerTest, ChromeJsonShapeAndArgs) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  tracer.StartQueryTrack();
  PYTHIA_TRACE_SPAN("bufmgr", "fetch.miss", 5, 30, "obj", 2, "page", 9);
  PYTHIA_TRACE_IO_SPAN("io", "aio", 6, 20);
  const std::string json = tracer.ToChromeJson();
  // Structural markers of the trace-event format.
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // lane names
  EXPECT_NE(json.find("\"name\":\"q0 exec\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"q0 io\""), std::string::npos);
  EXPECT_NE(json.find(
                "\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":5,\"dur\":25"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"obj\":2,\"page\":9}"), std::string::npos);
  // Balanced braces/brackets — a cheap structural-validity check with no
  // JSON parser in the test toolchain.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.back(), '}');
}

TEST_F(TracerTest, ClearedTracerReRecordsByteIdentically) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  auto record = [&tracer] {
    tracer.StartQueryTrack();
    PYTHIA_TRACE_INSTANT("prefetch", "issue", 10, "page", 3);
    PYTHIA_TRACE_SPAN("bufmgr", "fetch.miss", 10, 40);
    tracer.StartQueryTrack();
    PYTHIA_TRACE_IO_SPAN("io", "aio", 12, 90, "channel", 1);
  };
  record();
  const std::string first = tracer.ToChromeJson();
  tracer.Clear();
  record();
  const std::string second = tracer.ToChromeJson();
  EXPECT_EQ(first, second);  // determinism: the export has no hidden state
}

TEST_F(TracerTest, ContextTimeStampsCtxInstants) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  tracer.StartQueryTrack();
  PYTHIA_TRACE_SET_TIME(777);
  PYTHIA_TRACE_INSTANT_CTX("storage", "read.corrupt", "obj", 1);
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts, 777u);
}

TEST_F(TracerTest, TimelinesAggregatePerQuery) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  const uint32_t q0 = tracer.StartQueryTrack();
  PYTHIA_TRACE_INSTANT("prefetch", "issue", 10);
  PYTHIA_TRACE_INSTANT("prefetch", "issue", 11);
  PYTHIA_TRACE_INSTANT("prefetch", "consume", 40);
  PYTHIA_TRACE_INSTANT("prefetch", "shed", 41);
  PYTHIA_TRACE_INSTANT("prefetch", "timeout", 60);
  PYTHIA_TRACE_INSTANT("bufmgr", "prefetch.wait", 70, "wait_us", 25);
  PYTHIA_TRACE_SPAN("bufmgr", "fetch.miss", 80, 120);
  PYTHIA_TRACE_IO_SPAN("io", "aio", 10, 55);
  const uint32_t q1 = tracer.StartQueryTrack();
  PYTHIA_TRACE_SPAN("query", "replay", 0, 500);

  const std::vector<QueryTimeline> timelines = tracer.Timelines();
  ASSERT_EQ(timelines.size(), 2u);
  const QueryTimeline& t0 = timelines[0];
  EXPECT_EQ(t0.query, q0);
  EXPECT_EQ(t0.prefetch_issued, 2u);
  EXPECT_EQ(t0.prefetch_consumed, 1u);
  EXPECT_EQ(t0.prefetch_dropped, 1u);   // the shed
  EXPECT_EQ(t0.prefetch_timed_out, 1u);
  EXPECT_EQ(t0.demand_misses, 1u);
  EXPECT_EQ(t0.prefetch_wait_us, 25u);
  EXPECT_EQ(t0.prefetch_io_us, 45u);
  EXPECT_EQ(t0.begin_us, 10u);
  EXPECT_EQ(t0.end_us, 120u);
  EXPECT_EQ(timelines[1].query, q1);
  EXPECT_EQ(timelines[1].end_us, 500u);

  const std::string summary = tracer.TimelineSummary();
  EXPECT_NE(summary.find("q0"), std::string::npos);
  EXPECT_NE(summary.find("q1"), std::string::npos);
}

// End-to-end over a real (tiny) replay: the executor lane's demand misses
// and the I/O lane's async reads land on adjacent lanes of the same track,
// and the async spans overlap the query span on the virtual timeline — the
// overlap Figure-13-style analyses read off the trace.
TEST_F(TracerTest, ReplayProducesOverlappingExecAndIoSpans) {
  SimOptions options;
  options.buffer_pages = 64;
  options.os_cache_pages = 256;
  SimEnvironment env(options);

  QueryTrace qtrace;
  std::vector<PageId> prefetch;
  for (uint32_t p = 0; p < 16; ++p) {
    qtrace.accesses.push_back(
        PageAccess{PageId{1, p * 50}, /*sequential=*/false,
                   /*cpu_tuples_before=*/40});
    prefetch.push_back(PageId{1, p * 50});
  }
  PrefetcherOptions popts;
  popts.start_delay_us = 0;

  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  tracer.StartQueryTrack();
  const QueryRunMetrics r1 = ReplayQuery(qtrace, prefetch, popts, &env);
  ASSERT_TRUE(r1.status.ok());
  const std::string json1 = tracer.ToChromeJson();

  bool saw_exec_span = false;
  bool saw_io_overlap = false;
  SimTime query_end = 0;
  for (const TraceEvent& e : tracer.Events()) {
    if (std::string(e.name) == "replay") query_end = e.ts + e.dur;
  }
  for (const TraceEvent& e : tracer.Events()) {
    if (e.phase != 'X') continue;
    if (e.lane % 2 == 0 && std::string(e.name) != "replay") {
      saw_exec_span = true;
    }
    if (e.lane % 2 == 1) {
      // An async read that starts before the query finishes overlaps it.
      EXPECT_EQ(std::string(e.name), "aio");
      if (e.ts < query_end) saw_io_overlap = true;
    }
  }
  EXPECT_TRUE(saw_io_overlap);
  EXPECT_GT(tracer.size(), 0u);
  (void)saw_exec_span;  // present when the plan misses; overlap is the claim

  // Same seed, fresh environment, cleared tracer: byte-identical JSON.
  tracer.Clear();
  SimEnvironment env2(options);
  tracer.StartQueryTrack();
  const QueryRunMetrics r2 = ReplayQuery(qtrace, prefetch, popts, &env2);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r1.elapsed_us, r2.elapsed_us);
  EXPECT_EQ(json1, tracer.ToChromeJson());
}

}  // namespace
}  // namespace pythia
