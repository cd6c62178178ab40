// Shard-contention micro-bench: real threads hammering the buffer pool.
//
// PR 7's fleet engine interleaves sessions in virtual time, so it never
// showed whether the storage stack itself scales. This bench does: T OS
// threads replay Zipf-skewed page traces against one shared SimEnvironment,
// swept over buffer-pool shard counts (storage channels striped to match),
// with wall-clock lock profiling on. The unsharded arm (shards=1) is the
// old single-mutex pool; its contended-acquisition rate and lock wait time
// are the direct evidence that one mutex was the fleet bottleneck, and the
// sharded arms show striping removing it.
//
// Self-checking, exit 1 on violation:
//  - completeness: every arm completes every access of every thread, with
//    zero leaked pins, regardless of interleaving;
//  - single-thread parity: with capacity for every distinct page (no
//    evictions), a single-threaded replay against a sharded pool is
//    field-for-field identical to the unsharded pool — sharding must not
//    change what the simulation computes, only who holds which lock;
//  - determinism: the single-threaded sharded replay reruns bit-identical;
//  - scaling (full mode only, on >= 4 hardware threads, and only when the
//    unsharded arm contended on >= 2% of its acquisitions over all its
//    reps): the best arm's median throughput must be >= 1.1x the unsharded
//    arm's. Reps are interleaved — rep r of every arm runs before rep r+1
//    of any — so a swing in host speed lands on every arm alike rather than
//    on whole arms, and arms compare medians, not their luckiest rep.
//    Wall-clock thresholds are deliberately lenient — CI runners share
//    cores — and the raw numbers land in the JSON for the honest read.
//
// Results land in BENCH_shard.json, written before the scaling verdict and
// recording it. `--smoke` shrinks the sweep for CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/replay.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/table_printer.h"

#include "bench/json_writer.h"

namespace pythia {
namespace {

struct ShardConfig {
  size_t num_threads = 8;
  size_t accesses_per_thread = 60000;
  size_t reps = 3;  // interleaved across arms; arms compare medians
  std::vector<size_t> shard_counts = {1, 2, 4, 8};
  uint32_t page_space = 1 << 18; // distinct page universe per thread domain
  uint32_t num_objects = 16;
  double zipf_s = 0.9;
  uint64_t seed = 20260808;
};

// Per-thread Zipf trace. Threads share one hot page universe (that is what
// makes the single mutex hot: skew concentrates every thread on the same
// shard-0 page table), spread across objects so storage channels stripe too.
std::vector<QueryTrace> MakeTraces(const ShardConfig& cfg) {
  std::vector<QueryTrace> traces(cfg.num_threads);
  const ZipfSampler zipf(cfg.page_space, cfg.zipf_s);
  for (size_t t = 0; t < cfg.num_threads; ++t) {
    Pcg32 rng(cfg.seed, 0x5a4d0000ULL + t);
    QueryTrace& trace = traces[t];
    trace.accesses.reserve(cfg.accesses_per_thread);
    for (size_t a = 0; a < cfg.accesses_per_thread; ++a) {
      const uint32_t v = zipf.Sample(&rng);
      PageAccess access;
      access.page = PageId{1 + v % cfg.num_objects, v / cfg.num_objects};
      access.sequential = false;
      access.cpu_tuples_before = 1;  // keep the lock, not the "CPU", hot
      trace.accesses.push_back(access);
    }
  }
  return traces;
}

SimOptions ArmSim(size_t shards, size_t capacity) {
  SimOptions sim;
  sim.buffer_pages = capacity;
  sim.os_cache_pages = 4 * capacity;
  sim.buffer_shards = shards;
  sim.storage_channels = shards;
  sim.profile_pool_locks = true;
  return sim;
}

struct ArmResult {
  size_t shards = 0;
  uint64_t fetches = 0;         // per rep: every rep replays the same traces
  std::vector<double> wall_ms;  // one per rep, in run order
  BufferPoolLockStats lock;     // summed over every rep
  double median_wall_ms() const { return Summarize(wall_ms).median; }
  double throughput_mfps() const {
    std::vector<double> per_rep;
    for (double ms : wall_ms) {
      per_rep.push_back(ms > 0.0 ? static_cast<double>(fetches) / ms / 1000.0
                                 : 0.0);
    }
    return Summarize(per_rep).median;
  }
  double contended_rate() const {
    return lock.acquisitions > 0
               ? static_cast<double>(lock.contended) /
                     static_cast<double>(lock.acquisitions)
               : 0.0;
  }
  double avg_wait_ns() const {
    return lock.contended > 0 ? static_cast<double>(lock.wait_ns) /
                                    static_cast<double>(lock.contended)
                              : 0.0;
  }
  double avg_hold_ns() const {
    return lock.acquisitions > 0 ? static_cast<double>(lock.hold_ns) /
                                       static_cast<double>(lock.acquisitions)
                                 : 0.0;
  }
};

// One rep of `arm`: a fresh environment, so every rep starts cold and reps
// replay identical workloads. Exits 1 on a failed thread, a lost access or
// a leaked pin.
void RunRep(const ShardConfig& cfg, const std::vector<QueryTrace>& traces,
            ArmResult* arm) {
  const size_t shards = arm->shards;
  std::vector<ConcurrentQuery> threads(cfg.num_threads);
  for (size_t t = 0; t < cfg.num_threads; ++t) {
    threads[t].trace = &traces[t];
  }
  const uint64_t expected =
      static_cast<uint64_t>(cfg.num_threads) * cfg.accesses_per_thread;
  SimEnvironment env(ArmSim(shards, /*capacity=*/cfg.page_space / 16));
  ParallelReplayResult r = ReplayParallelFleet(threads, &env);
  uint64_t completed = 0;
  for (const QueryRunMetrics& tr : r.threads) {
    if (!tr.status.ok()) {
      std::fprintf(stderr, "FAIL: thread error (shards=%zu): %s\n", shards,
                   tr.status.ToString().c_str());
      std::exit(1);
    }
    completed += tr.completed_accesses;
  }
  if (completed != expected || r.pool_stats.fetches != expected) {
    std::fprintf(stderr,
                 "FAIL: lost accesses (shards=%zu): completed=%llu "
                 "fetches=%llu expected=%llu\n",
                 shards, static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(r.pool_stats.fetches),
                 static_cast<unsigned long long>(expected));
    std::exit(1);
  }
  if (env.pool().pinned_frames() != 0) {
    std::fprintf(stderr, "FAIL: leaked pins (shards=%zu)\n", shards);
    std::exit(1);
  }
  arm->fetches = r.pool_stats.fetches;
  arm->wall_ms.push_back(r.wall_ms);
  AccumulateStats(&arm->lock, r.lock_stats);
}

// Single-threaded replay of thread 0's trace with capacity for every
// distinct page (no evictions, so shard-local replacement cannot diverge).
QueryRunMetrics SoloRun(const ShardConfig& cfg, size_t shards,
                        const QueryTrace& trace) {
  SimEnvironment env(ArmSim(shards, /*capacity=*/cfg.page_space));
  return ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
}

}  // namespace
}  // namespace pythia

int main(int argc, char** argv) {
  using namespace pythia;
  using bench::JsonWriter;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  ShardConfig cfg;
  if (smoke) {
    cfg.num_threads = 4;
    cfg.accesses_per_thread = 15000;
    cfg.reps = 2;
    cfg.shard_counts = {1, 4};
  }
  // Deliberately NOT capped at hardware_concurrency: on a small runner the
  // threads time-slice, which still exercises the multi-threaded path and
  // still measures contention — only the wall-clock scaling gate below
  // needs real cores.
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("shard contention bench: %zu threads x %zu accesses (%u "
              "cores), Zipf s=%.2f over %u pages%s\n",
              cfg.num_threads, cfg.accesses_per_thread, hw, cfg.zipf_s,
              cfg.page_space, smoke ? " [smoke]" : "");
  const std::vector<QueryTrace> traces = MakeTraces(cfg);

  std::vector<ArmResult> arms(cfg.shard_counts.size());
  for (size_t i = 0; i < arms.size(); ++i) arms[i].shards = cfg.shard_counts[i];
  for (size_t rep = 0; rep < cfg.reps; ++rep) {
    for (ArmResult& arm : arms) RunRep(cfg, traces, &arm);
  }

  // Parity: sharded single-thread run vs the unsharded pool, no evictions.
  const QueryRunMetrics solo1 = SoloRun(cfg, 1, traces[0]);
  const QueryRunMetrics solo4 = SoloRun(cfg, 4, traces[0]);
  const QueryRunMetrics solo4b = SoloRun(cfg, 4, traces[0]);
  const bool parity = solo1.status.ok() && solo4.status.ok() &&
                      solo1.elapsed_us == solo4.elapsed_us &&
                      solo1.pool_stats == solo4.pool_stats;
  const bool deterministic = solo4.elapsed_us == solo4b.elapsed_us &&
                             solo4.pool_stats == solo4b.pool_stats;
  if (!parity) {
    std::fprintf(stderr, "FAIL: sharded solo run diverged from unsharded\n");
    return 1;
  }
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: sharded solo rerun not bit-identical\n");
    return 1;
  }

  TablePrinter table({"shards", "median wall_ms", "median Mfetch/s", "speedup",
                      "contended%", "avg_wait_ns", "avg_hold_ns"});
  const double base = arms[0].throughput_mfps();
  for (const ArmResult& arm : arms) {
    table.AddRow({std::to_string(arm.shards),
                  TablePrinter::Num(arm.median_wall_ms(), 1),
                  TablePrinter::Num(arm.throughput_mfps(), 2),
                  TablePrinter::Num(arm.throughput_mfps() / base, 2),
                  TablePrinter::Num(100.0 * arm.contended_rate(), 2),
                  TablePrinter::Num(arm.avg_wait_ns(), 0),
                  TablePrinter::Num(arm.avg_hold_ns(), 0)});
  }
  table.Print();

  double best_thr = 0.0;
  for (const ArmResult& arm : arms) {
    best_thr = std::max(best_thr, arm.throughput_mfps());
  }
  // Scaling gate: only meaningful on a machine with real parallelism AND
  // when the single mutex actually contended (on one core, striping cannot
  // buy wall time — threads just time-slice), and lenient because
  // wall-clock on shared runners is noisy. The JSON has the real curve.
  const bool gate_armed =
      !smoke && hw >= 4 && arms[0].contended_rate() >= 0.02;
  const bool gate_passed = best_thr >= 1.1 * arms[0].throughput_mfps();

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "shard");
  json.Field("smoke", smoke);
  json.Field("threads", static_cast<uint64_t>(cfg.num_threads));
  json.Field("hardware_concurrency", static_cast<uint64_t>(hw));
  json.Field("accesses_per_thread",
             static_cast<uint64_t>(cfg.accesses_per_thread));
  json.Field("zipf_s", cfg.zipf_s);
  json.Field("page_space", static_cast<uint64_t>(cfg.page_space));
  json.Field("reps", static_cast<uint64_t>(cfg.reps));
  json.Key("arms").BeginArray();
  for (const ArmResult& arm : arms) {
    json.BeginObject();
    json.Field("shards", static_cast<uint64_t>(arm.shards));
    json.Key("rep_wall_ms").BeginArray();
    for (double ms : arm.wall_ms) json.Double(ms);
    json.EndArray();
    json.Field("wall_ms", arm.median_wall_ms());
    json.Field("fetches", arm.fetches);
    json.Field("throughput_mfps", arm.throughput_mfps());
    json.Field("speedup_vs_unsharded", arm.throughput_mfps() / base);
    json.Field("lock_acquisitions", arm.lock.acquisitions);
    json.Field("lock_contended", arm.lock.contended);
    json.Field("contended_rate", arm.contended_rate());
    json.Field("avg_wait_ns", arm.avg_wait_ns());
    json.Field("avg_hold_ns", arm.avg_hold_ns());
    json.EndObject();
  }
  json.EndArray();
  json.Field("solo_parity_sharded_vs_unsharded", parity);
  json.Field("solo_rerun_deterministic", deterministic);
  json.Field("scaling_gate_armed", gate_armed);
  json.Field("scaling_gate_passed", gate_passed);
  json.EndObject();
  if (json.WriteToFile("BENCH_shard.json")) {
    std::printf("wrote BENCH_shard.json\n");
  } else {
    std::fprintf(stderr, "warning: could not write BENCH_shard.json\n");
  }

  if (gate_armed && !gate_passed) {
    std::fprintf(stderr,
                 "FAIL: unsharded pool contended %.1f%% but striping gained "
                 "<10%% median throughput (%.2f -> %.2f Mfetch/s)\n",
                 100.0 * arms[0].contended_rate(),
                 arms[0].throughput_mfps(), best_thr);
    return 1;
  }
  return 0;
}
