// PythiaSystem: the inference-time integration of predictor + prefetcher +
// buffer manager (Algorithm 3 and Section 4).
//
// When a query is scheduled, the system checks whether it belongs to a
// workload Pythia has trained models for; if so it predicts the query's
// non-sequential pages and hands them to an asynchronous prefetch session,
// otherwise the query runs exactly as it would without Pythia.
#ifndef PYTHIA_CORE_SYSTEM_H_
#define PYTHIA_CORE_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/circuit_breaker.h"
#include "core/governor.h"
#include "core/prediction_cache.h"
#include "core/predictor.h"
#include "core/query_metrics.h"
#include "core/replay.h"
#include "core/watchdog.h"

namespace pythia {

class AdaptationManager;
struct AdaptationOptions;

enum class RunMode {
  kDefault,          // DFLT: plain buffer manager, no prefetch
  kPythia,           // learned prediction + prefetch
  kOracle,           // ORCL: exact access sequence prefetched
  kNearestNeighbor,  // NN: most similar training query's pages prefetched
};

const char* RunModeName(RunMode mode);

// QueryRunMetrics lives in core/query_metrics.h (shared with the concurrent
// replay path, which reports one per batch query).

// Marks *metrics engaged on `pages`, the plan the learned or NN mode built
// for `query` under `model`, scored against model.GroundTruth(query.trace).
// No-op when metrics is nullptr.
void FillPlanMetrics(const WorkloadModel& model, const WorkloadQuery& query,
                     const std::vector<PageId>& pages,
                     QueryRunMetrics* metrics);

class PythiaSystem {
 public:
  // `env` must outlive the system. Ctor/dtor are out-of-line because
  // AdaptationManager is an incomplete type here.
  explicit PythiaSystem(SimEnvironment* env);
  ~PythiaSystem();

  // Registers a trained workload model (and builds its NN baseline store
  // from the same workload).
  void AddWorkload(const Workload& workload, WorkloadModel&& model);

  // Runs one query under `mode`: plans it like PlanConcurrentQuery and
  // replays it as a batch of one under the governor, which re-evaluates its
  // ladder at every access. `cold` restarts the buffer pool and drops OS
  // caches first (the paper's single-query protocol).
  QueryRunMetrics RunQuery(const WorkloadQuery& query, RunMode mode,
                           const PrefetcherOptions& prefetch_options,
                           bool cold = true);

  // Prefetch page list a given mode would issue for `query` (empty when the
  // mode does not engage). Exposed for the concurrent-query benches, which
  // assemble ConcurrentQuery specs themselves.
  std::vector<PageId> PrefetchPlan(const WorkloadQuery& query, RunMode mode,
                                   QueryRunMetrics* metrics);

  // PrefetchPlan restricted to the prediction memoization cache: a plan-
  // cache hit returns the memoized pages (filling metrics like PrefetchPlan
  // does), a miss returns empty WITHOUT running any transformer forwards.
  // This is the kCachedOnly rung of the degradation ladder — inference cost
  // is shed, hot plans keep their prefetch benefit. Only RunMode::kPythia
  // has inference to shed; other modes return empty.
  std::vector<PageId> CachedPlanOnly(const WorkloadQuery& query, RunMode mode,
                                     QueryRunMetrics* metrics);

  // Builds a ConcurrentQuery spec for `query` under `mode`, applying the
  // same guardrail ladder RunQuery applies (breaker, watchdog, governor
  // rung) at planning time. Fleet sessions feed neither the breaker nor the
  // watchdog: only RunQuery records a session's health verdict.
  ConcurrentQuery PlanConcurrentQuery(const WorkloadQuery& query,
                                      RunMode mode, SimTime arrival_us,
                                      const PrefetcherOptions& options);

  // Algorithm 3 line 3: the workload this query belongs to, or nullptr.
  WorkloadModel* MatchWorkload(const WorkloadQuery& query);

  // The ladder rung a query under `mode` would be planned at right now
  // (governor + breaker + watchdog folded via max), with the degradation
  // flags recorded into *metrics. Public wrapper over the private PlanRung
  // for callers that assemble plans themselves instead of going through
  // PlanConcurrentQuery — the batched prediction engine
  // (core/batch_predictor.h) decides per submission whether a request may
  // queue for a neural flush, must settle from cache, or is shed.
  DegradationRung PlanningRung(const WorkloadQuery& query, RunMode mode,
                               QueryRunMetrics* metrics) {
    return PlanRung(query, mode, metrics, /*watchdog_entry=*/nullptr);
  }

  // The prediction-cache key of `query`'s plan under `model`: the model's
  // registration index, its revision and the plan fingerprint.
  PredictionKey PredictionKeyFor(const WorkloadModel& model,
                                 const WorkloadQuery& query) const;

  SimEnvironment* env() { return env_; }
  void set_match_threshold(double t) { match_threshold_ = t; }

  // Guardrail: when recent prefetch sessions have been unhealthy (faulty,
  // timed out, or mostly wasted), the breaker degrades prefetch-eligible
  // queries to the plain buffer manager and half-open-probes back later.
  CircuitBreaker& breaker() { return breaker_; }
  void set_health_policy(const PrefetchHealthPolicy& p) { health_policy_ = p; }
  void set_breaker_options(const CircuitBreakerOptions& o) {
    breaker_ = CircuitBreaker(o);
  }

  // Per-model drift guardrail: when a model's sliding-window useful-prefetch
  // ratio falls below the configured floor, its queries are degraded to the
  // sequential-readahead baseline and re-probed after a probation period.
  // Setting options resets every model's watchdog to the new policy.
  void set_watchdog_options(const WatchdogOptions& o);
  // Watchdog of the `index`-th registered workload (registration order).
  PredictionWatchdog& watchdog(size_t index) {
    return entries_[index]->watchdog;
  }
  size_t num_workloads() const { return entries_.size(); }

  // Overload protection: creates (or reconfigures) the PrefetchGovernor
  // bound to this system's environment. Every subsequent RunQuery /
  // PlanConcurrentQuery session is governed; the ladder rung it reports
  // folds into each query's effective rung via max().
  PrefetchGovernor& EnableGovernor(const GovernorOptions& options);
  // nullptr until EnableGovernor is called (ungoverned — prior behaviour).
  PrefetchGovernor* governor() { return governor_.get(); }

  // --- Online adaptation (core/adaptation.h) -----------------------------

  // Live model of the `index`-th registered workload.
  WorkloadModel& model(size_t index) { return entries_[index]->model; }
  // Last-known-good snapshot kept by SwapModel for rollback, or nullptr.
  const WorkloadModel* last_known_good(size_t index) const {
    return entries_[index]->last_known_good.get();
  }

  // Atomically installs `candidate` as entry `index`'s live model. The
  // installed model's revision is bumped past the outgoing one, so every
  // memoized plan of the old revision misses from now on (the existing
  // model-revision invalidation mechanism); the outgoing model is kept as
  // the last-known-good snapshot, and the entry's watchdog restarts with a
  // `probation_sessions`-long post-swap probation window. Returns the
  // installed revision.
  uint64_t SwapModel(size_t index, WorkloadModel&& candidate,
                     size_t probation_sessions);

  // Restores the last-known-good snapshot saved by the previous SwapModel
  // (false when there is none). The restored model's revision is bumped
  // past the rejected one — revisions stay strictly monotonic, so no stale
  // memoized plan can ever be served after a rollback either.
  bool RollbackModel(size_t index);

  // Creates (or replaces) the adaptation manager closing the drift loop
  // over this system: sliding trace window -> background incremental
  // retrain -> shadow validation -> hot swap -> post-swap probation with
  // automatic rollback. Observes every RunMode::kPythia RunQuery call.
  AdaptationManager& EnableAdaptation(const AdaptationOptions& options);
  // nullptr until EnableAdaptation is called.
  AdaptationManager* adaptation() { return adaptation_.get(); }

  // Plan-fingerprint memoization of RunMode::kPythia prefetch plans.
  // A repeated (model, revision, plan) triple skips all transformer
  // forwards and reuses the cached sorted page list; set_threshold on a
  // model bumps its revision, which invalidates its cached plans.
  PredictionCache& prediction_cache() { return prediction_cache_; }
  const PredictionCacheStats& prediction_cache_stats() const {
    return prediction_cache_.stats();
  }

 private:
  struct Entry {
    Entry(WorkloadModel&& m, std::unique_ptr<NearestNeighborBaseline> n,
          const WatchdogOptions& w)
        : model(std::move(m)), nn(std::move(n)), watchdog(w) {}
    WorkloadModel model;
    std::unique_ptr<NearestNeighborBaseline> nn;
    PredictionWatchdog watchdog;
    // Outgoing weights of the last SwapModel, kept for RollbackModel.
    std::unique_ptr<WorkloadModel> last_known_good;
  };

  // Index of the entry owning `model`, or -1.
  int64_t EntryIndex(const WorkloadModel* model) const;
  // The ladder rung a query under `mode` should be planned at right now
  // (governor rung + breaker + watchdog folded via max), with the
  // degradation flags recorded into `metrics`.
  DegradationRung PlanRung(const WorkloadQuery& query, RunMode mode,
                           QueryRunMetrics* metrics, int64_t* watchdog_entry);
  // PlanConcurrentQuery, also reporting the entry whose watchdog judged the
  // plan (-1 when no watchdog was consulted).
  ConcurrentQuery PlanQuery(const WorkloadQuery& query, RunMode mode,
                            SimTime arrival_us,
                            const PrefetcherOptions& options,
                            int64_t* watchdog_entry);

  SimEnvironment* env_;
  std::vector<std::unique_ptr<Entry>> entries_;
  double match_threshold_ = 0.9;
  CircuitBreaker breaker_;
  PrefetchHealthPolicy health_policy_;
  WatchdogOptions watchdog_options_;
  PredictionCache prediction_cache_;
  std::unique_ptr<PrefetchGovernor> governor_;
  std::unique_ptr<AdaptationManager> adaptation_;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_SYSTEM_H_
