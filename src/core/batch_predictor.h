// Batched prediction engine: coalesces plan-prediction requests from
// concurrent sessions into flush windows so the transformer decoder runs
// one multi-row GEMM pass per model instead of one single-row pass per
// session (PR: fleet-scale inference).
//
// Where it sits: ReplayConcurrent interleaves sessions in virtual time, and
// every session that plans under RunMode::kPythia needs a prefetch page
// list before it starts touching pages. The sequential path
// (PythiaSystem::PrefetchPlan) charges one full WorkloadModel::Predict per
// cache miss. Under fleet load — tens of sessions arriving within a few
// milliseconds — those misses are highly batchable: the decoder GEMMs
// dominate inference cost and their kernels amortize beautifully across
// rows (bench_kernels peaks near 128-row shapes). The BatchPredictor queues
// misses, flushes on a size or deadline trigger, and runs the whole window
// through WorkloadModel::PredictBatch.
//
// Determinism / bit-identity: every delivered page list is bit-identical to
// what the sequential path produces for the same query, at every batch
// size. The argument has three legs:
//  1. the GEMM kernels (nn/matrix.cc) compute each output row with a k-loop
//     order that depends only on the column count, never the row count, so
//     row r of a B-row decoder pass equals the 1-row pass on row r alone;
//  2. bias/ReLU epilogues and the logit thresholding are row-wise;
//  3. the encoder runs per-sequence in both paths (attention mixes
//     positions within one sequence, so it is never batched across
//     sessions).
// tests/batch_predictor_test.cc pins this down at batch sizes 1/4/32/128.
//
// Ladder interaction: each Submit consults PythiaSystem::PlanningRung.
//  - kFullNeural  cache hit -> immediate; miss -> queued for the next flush
//  - kCachedOnly  cache hit -> immediate; miss -> empty immediate (the
//                 inference cost is exactly what this rung sheds)
//  - kReadahead+  empty immediate (neural prediction is off the menu)
// A window additionally rechecks the governor rung when it flushes: if the
// ladder moved to kCachedOnly or below while requests sat queued, the whole
// window is shed without running a forward pass.
//
// Dedupe: identical plan fingerprints inside one window single-flight
// through PredictionCache::BeginInflight — one leader runs in the GEMM
// batch, followers are fanned the published result.
//
// Not thread-safe: like ReplayConcurrent, this is a virtual-time simulation
// component driven from one thread. The parallelism is inside
// PredictBatch's unit fan-out, not across callers.
#ifndef PYTHIA_CORE_BATCH_PREDICTOR_H_
#define PYTHIA_CORE_BATCH_PREDICTOR_H_

#include <cstdint>
#include <vector>

#include "core/prediction_cache.h"
#include "core/query_metrics.h"
#include "core/system.h"
#include "storage/sim_clock.h"
#include "workload/generator.h"

namespace pythia {

struct BatchPredictorOptions {
  // Size trigger: a window flushes as soon as it holds this many distinct
  // (non-deduped) prediction rows.
  size_t max_batch_rows = 64;
  // Deadline trigger: the window flushes once its oldest request has waited
  // this long, whether or not the size trigger fired. Bounds the latency a
  // request can pay for amortization.
  SimTime flush_deadline_us = 2000;
};

struct BatchPredictorStats {
  uint64_t submitted = 0;
  uint64_t served_from_cache = 0;   // immediate hits (any rung)
  uint64_t deduped = 0;             // joined an in-flight identical plan
  uint64_t unmatched = 0;           // no workload model matched
  uint64_t degraded = 0;            // shed at submit by rung >= kReadahead
  uint64_t cached_only_misses = 0;  // kCachedOnly rung, miss -> empty
  uint64_t flushes = 0;
  uint64_t size_flushes = 0;
  uint64_t deadline_flushes = 0;
  uint64_t final_flushes = 0;       // FlushAll (end of arrivals)
  uint64_t shed_windows = 0;        // whole window dropped at flush recheck
  uint64_t forward_rows = 0;        // GEMM rows across all model batches
  uint64_t model_batches = 0;       // PredictBatch calls (per model, per flush)
  uint64_t fanned_out = 0;          // follower results delivered via dedupe
};

// One completed request, delivered in submission order.
struct BatchPrediction {
  uint64_t ticket = 0;       // caller's correlation id, echoed back
  SimTime ready_us = 0;      // virtual time the result became available
  std::vector<PageId> pages; // sorted, bit-identical to the sequential path
  QueryRunMetrics planned;   // rung flags + engaged/accuracy, as PrefetchPlan
  bool from_cache = false;
  bool deduped = false;
};

class BatchPredictor {
 public:
  // `system` must outlive the predictor; queries passed to Submit must stay
  // valid until their window flushes.
  BatchPredictor(PythiaSystem* system, const BatchPredictorOptions& options);
  // A teardown mid-flush (crash, shutdown) must not leak the pending
  // leaders' in-flight cache registrations: an orphaned slot would make
  // every future identical plan a follower waiting on a forward pass that
  // will never run. Aborts whatever is still queued.
  ~BatchPredictor();

  // Submits one session's plan-prediction request at virtual time `now`.
  // Requests that settle immediately (cache hit, unmatched, shed) are
  // appended to *done; requests that need a forward pass queue until a
  // flush. May itself flush (size trigger).
  void Submit(uint64_t ticket, const WorkloadQuery& query, SimTime now,
              std::vector<BatchPrediction>* done);

  // Advances the deadline trigger to virtual time `now`, flushing the
  // window if its oldest request is due. Call whenever simulation time
  // advances past arrivals.
  void PumpTo(SimTime now, std::vector<BatchPrediction>* done);

  // Flushes whatever is queued (end of the arrival stream).
  void FlushAll(SimTime now, std::vector<BatchPrediction>* done);

  // Earliest virtual time PumpTo would flush at, or 0 when nothing queued.
  SimTime NextDeadline() const;

  size_t pending() const { return pending_.size(); }
  const BatchPredictorStats& stats() const { return stats_; }
  // Mean GEMM rows per PredictBatch call — the amortization the engine
  // exists to buy. 0 before the first flush.
  double MeanRowsPerForward() const;

 private:
  struct Pending {
    uint64_t ticket = 0;
    const WorkloadQuery* query = nullptr;
    WorkloadModel* model = nullptr;
    PredictionKey key;
    SimTime enqueue_us = 0;
    bool leader = false;          // false: dedupe follower
    QueryRunMetrics planned;      // rung flags captured at submit time
  };

  void Flush(SimTime ready_us, std::vector<BatchPrediction>* done);

  PythiaSystem* system_;
  BatchPredictorOptions options_;
  std::vector<Pending> pending_;
  size_t leaders_ = 0;
  BatchPredictorStats stats_;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_BATCH_PREDICTOR_H_
