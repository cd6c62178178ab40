// Observability overhead + sample-trace benchmark.
//
// Measures what the tracing layer costs on the replay hot path by running
// the identical (seeded, virtual-time) replay workload with tracing disabled
// and enabled (interleaved reps) and comparing process-CPU time. The virtual
// results must be bit-identical between the arms (tracing observes, never
// perturbs), and two traced runs of the same seed must export byte-identical
// Chrome JSON (determinism). Writes:
//   BENCH_observability.json    overhead numbers + per-query timelines
//   trace_observability.json    a sample trace, loadable in chrome://tracing
//                               or https://ui.perfetto.dev
//
// `--smoke` shrinks the workload for CI: same checks, seconds not minutes.
#include <algorithm>
#include <ctime>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/replay.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/trace.h"

#include "bench/json_writer.h"

namespace pythia {
namespace {

struct BenchQuery {
  QueryTrace trace;
  std::vector<PageId> prefetch;
};

// A deterministic synthetic workload: per query, sequential runs (cheap,
// OS-readahead-friendly) interleaved with random probes that the "model"
// predicts perfectly, so the prefetcher has real issue/consume traffic.
std::vector<BenchQuery> MakeWorkload(size_t num_queries,
                                     size_t accesses_per_query,
                                     uint64_t seed) {
  std::vector<BenchQuery> queries;
  Pcg32 rng(seed);
  for (size_t q = 0; q < num_queries; ++q) {
    BenchQuery bq;
    const ObjectId heap = 1 + static_cast<ObjectId>(q % 3);
    uint32_t seq_page = rng.UniformU32(1000);
    for (size_t a = 0; a < accesses_per_query; ++a) {
      PageAccess access;
      access.cpu_tuples_before = 20 + rng.UniformU32(30);
      if (a % 4 == 3) {
        // Random probe into a large object; predicted, hence prefetched.
        access.page = PageId{7, rng.UniformU32(200000)};
        access.sequential = false;
        bq.prefetch.push_back(access.page);
      } else {
        access.page = PageId{heap, seq_page++};
        access.sequential = true;
      }
      bq.trace.accesses.push_back(access);
    }
    queries.push_back(std::move(bq));
  }
  return queries;
}

// One full pass over the workload in a fresh environment; returns the summed
// virtual elapsed time (the determinism witness between arms).
SimTime ReplayAll(const std::vector<BenchQuery>& queries,
                  const SimOptions& sim, const PrefetcherOptions& popts,
                  bool per_query_track) {
  SimEnvironment env(sim);
  SimTime total_virtual = 0;
  for (const BenchQuery& q : queries) {
    if (per_query_track) Tracer::Global().StartQueryTrack();
    env.ColdRestart();
    const QueryRunMetrics r = ReplayQuery(q.trace, q.prefetch, popts, &env);
    if (!r.status.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", r.status.ToString().c_str());
      std::exit(1);
    }
    total_virtual += r.elapsed_us;
  }
  return total_virtual;
}

// Process-CPU seconds, not wall: the replay loop is single-threaded, so CPU
// time is the same quantity minus descheduling noise — at the tens-of-ms
// scale of one pass, that noise would otherwise swamp a few-percent signal.
double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

}  // namespace
}  // namespace pythia

int main(int argc, char** argv) {
  using namespace pythia;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const size_t num_queries = smoke ? 20 : 60;
  const size_t accesses = smoke ? 5000 : 10000;
  const int reps = smoke ? 9 : 11;
  const uint64_t seed = 20260805;

  SimOptions sim;
  sim.buffer_pages = 1024;
  sim.os_cache_pages = 4096;
  PrefetcherOptions popts;
  popts.start_delay_us = 500;

  const std::vector<BenchQuery> queries =
      MakeWorkload(num_queries, accesses, seed);

  Tracer& tracer = Tracer::Global();
  tracer.Disable();
  tracer.Clear();

  // Warm-up pass (page tables, allocator), not timed.
  const SimTime virtual_expected = ReplayAll(queries, sim, popts, false);

  // Both arms interleaved within each rep — an off run immediately followed
  // by an on run — so slow drift in machine speed (thermal, noisy
  // neighbours) hits both arms equally instead of biasing whichever arm ran
  // second. The reported overhead is the MEDIAN of the per-pair ratios: the
  // two runs of a pair share machine conditions, so their ratio is far more
  // stable than any absolute time, and the median discards the reps where a
  // scheduling hiccup landed inside exactly one arm.
  double best_off = 1e100;
  double best_on = 1e100;
  std::vector<double> pair_overhead_pct;
  size_t events_recorded = 0;
  for (int r = 0; r < reps; ++r) {
    tracer.Disable();
    double start = CpuSeconds();
    SimTime v = ReplayAll(queries, sim, popts, false);
    const double off = CpuSeconds() - start;
    best_off = std::min(best_off, off);
    if (v != virtual_expected) {
      std::fprintf(stderr, "FATAL: virtual time drifted across reps\n");
      return 1;
    }

    tracer.Enable();
    tracer.Clear();
    start = CpuSeconds();
    v = ReplayAll(queries, sim, popts, true);
    const double on = CpuSeconds() - start;
    best_on = std::min(best_on, on);
    pair_overhead_pct.push_back((on - off) / off * 100.0);
    events_recorded = tracer.size();
    if (v != virtual_expected) {
      std::fprintf(stderr,
                   "FATAL: tracing changed virtual results (%llu != %llu)\n",
                   static_cast<unsigned long long>(v),
                   static_cast<unsigned long long>(virtual_expected));
      return 1;
    }
  }
  std::sort(pair_overhead_pct.begin(), pair_overhead_pct.end());
  const double overhead_pct = pair_overhead_pct[pair_overhead_pct.size() / 2];
  const std::string trace_json = tracer.ToChromeJson();
  const std::vector<QueryTimeline> timelines = tracer.Timelines();

  // Determinism: a second traced pass must export byte-identical JSON.
  tracer.Clear();
  ReplayAll(queries, sim, popts, true);
  const bool deterministic = tracer.ToChromeJson() == trace_json;
  tracer.Disable();
  if (!deterministic) {
    std::fprintf(stderr, "FATAL: same-seed traces are not byte-identical\n");
    return 1;
  }

  TablePrinter table({"arm", "cpu_s", "events", "virtual_us"});
  table.AddRow({"tracing off", TablePrinter::Num(best_off, 3), "0",
                std::to_string(virtual_expected)});
  table.AddRow({"tracing on", TablePrinter::Num(best_on, 3),
                std::to_string(events_recorded),
                std::to_string(virtual_expected)});
  std::printf("%s\n", table.ToString().c_str());
  std::printf("overhead: %.2f%% (target < 5%%), deterministic: %s\n\n",
              overhead_pct, deterministic ? "yes" : "no");
  std::printf("per-query timelines:\n%s\n",
              Tracer::Global().TimelineSummary().c_str());

  if (!tracer.WriteChromeJson("trace_observability.json")) {
    std::fprintf(stderr, "warning: could not write trace_observability.json\n");
  }

  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", "observability");
  json.Field("smoke", smoke);
  json.Field("num_queries", static_cast<uint64_t>(num_queries));
  json.Field("accesses_per_query", static_cast<uint64_t>(accesses));
  json.Field("reps", reps);
  json.Field("cpu_seconds_tracing_off", best_off);
  json.Field("cpu_seconds_tracing_on", best_on);
  json.Field("overhead_pct", overhead_pct);
  json.Field("events_recorded", static_cast<uint64_t>(events_recorded));
  json.Field("virtual_elapsed_us", static_cast<uint64_t>(virtual_expected));
  json.Field("deterministic", deterministic);
  json.Field("trace_file", "trace_observability.json");
  json.Key("timelines").BeginArray();
  for (const QueryTimeline& t : timelines) {
    json.BeginObject();
    json.Field("query", static_cast<uint64_t>(t.query));
    json.Field("begin_us", static_cast<uint64_t>(t.begin_us));
    json.Field("end_us", static_cast<uint64_t>(t.end_us));
    json.Field("demand_misses", t.demand_misses);
    json.Field("prefetch_issued", t.prefetch_issued);
    json.Field("prefetch_consumed", t.prefetch_consumed);
    json.Field("prefetch_dropped", t.prefetch_dropped);
    json.Field("prefetch_timed_out", t.prefetch_timed_out);
    json.Field("prefetch_wait_us", static_cast<uint64_t>(t.prefetch_wait_us));
    json.Field("prefetch_io_us", static_cast<uint64_t>(t.prefetch_io_us));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!json.WriteToFile("BENCH_observability.json")) {
    std::fprintf(stderr, "warning: could not write BENCH_observability.json\n");
    return 1;
  }
  std::printf("wrote BENCH_observability.json and trace_observability.json\n");
  return 0;
}
