#include "core/system.h"

#include <algorithm>

#include "core/adaptation.h"
#include "util/trace.h"

namespace pythia {

PythiaSystem::PythiaSystem(SimEnvironment* env) : env_(env) {}

PythiaSystem::~PythiaSystem() = default;

const char* RunModeName(RunMode mode) {
  switch (mode) {
    case RunMode::kDefault: return "DFLT";
    case RunMode::kPythia: return "PYTHIA";
    case RunMode::kOracle: return "ORCL";
    case RunMode::kNearestNeighbor: return "NN";
  }
  return "Unknown";
}

void FillPlanMetrics(const WorkloadModel& model, const WorkloadQuery& query,
                     const std::vector<PageId>& pages,
                     QueryRunMetrics* metrics) {
  if (metrics == nullptr) return;
  const std::unordered_set<PageId> predicted(pages.begin(), pages.end());
  metrics->engaged = true;
  metrics->accuracy =
      ComputeSetMetrics(predicted, model.GroundTruth(query.trace));
  metrics->predicted_pages = pages.size();
}

void PythiaSystem::AddWorkload(const Workload& workload,
                               WorkloadModel&& model) {
  auto nn = std::make_unique<NearestNeighborBaseline>(workload, model);
  entries_.push_back(std::make_unique<Entry>(std::move(model), std::move(nn),
                                             watchdog_options_));
}

void PythiaSystem::set_watchdog_options(const WatchdogOptions& o) {
  watchdog_options_ = o;
  for (auto& entry : entries_) entry->watchdog = PredictionWatchdog(o);
}

PrefetchGovernor& PythiaSystem::EnableGovernor(const GovernorOptions& options) {
  governor_ = std::make_unique<PrefetchGovernor>(
      options, &env_->pool(), &env_->io(), &env_->os_cache());
  return *governor_;
}

uint64_t PythiaSystem::SwapModel(size_t index, WorkloadModel&& candidate,
                                 size_t probation_sessions) {
  Entry& entry = *entries_[index];
  // Revisions stay strictly monotonic per entry: a candidate that started
  // from an older clone must never reuse a revision number the prediction
  // cache has already memoized plans under.
  candidate.BumpRevisionTo(entry.model.revision() + 1);
  auto outgoing = std::make_unique<WorkloadModel>(std::move(entry.model));
  entry.model = std::move(candidate);
  entry.last_known_good = std::move(outgoing);
  entry.watchdog.RestartForNewModel(probation_sessions);
  PYTHIA_TRACE_INSTANT_CTX("adaptation", "model_swap", "entry", index,
                           "revision", entry.model.revision());
  return entry.model.revision();
}

bool PythiaSystem::RollbackModel(size_t index) {
  Entry& entry = *entries_[index];
  if (entry.last_known_good == nullptr) return false;
  // The restored snapshot also gets a fresh revision — going back to old
  // weights must not resurrect plans memoized under the rejected model.
  entry.last_known_good->BumpRevisionTo(entry.model.revision() + 1);
  entry.model = std::move(*entry.last_known_good);
  entry.last_known_good.reset();
  // The watchdog judged the rejected model; restart clean (no probation —
  // the snapshot already earned trust before it was swapped out).
  entry.watchdog.RestartForNewModel(0);
  PYTHIA_TRACE_INSTANT_CTX("adaptation", "model_rollback", "entry", index,
                           "revision", entry.model.revision());
  return true;
}

AdaptationManager& PythiaSystem::EnableAdaptation(
    const AdaptationOptions& options) {
  adaptation_ = std::make_unique<AdaptationManager>(this, options);
  return *adaptation_;
}

int64_t PythiaSystem::EntryIndex(const WorkloadModel* model) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (&entries_[i]->model == model) return static_cast<int64_t>(i);
  }
  return -1;
}

PredictionKey PythiaSystem::PredictionKeyFor(const WorkloadModel& model,
                                             const WorkloadQuery& query) const {
  const int64_t index = EntryIndex(&model);
  return PredictionKey{index >= 0 ? static_cast<uint64_t>(index) : 0,
                       model.revision(),
                       PredictionCache::PlanKey(query.tokens)};
}

WorkloadModel* PythiaSystem::MatchWorkload(const WorkloadQuery& query) {
  WorkloadModel* best = nullptr;
  double best_score = match_threshold_;
  for (const auto& entry : entries_) {
    const double score =
        entry->model.MatchScore(query.tokens, query.structure_key);
    if (score >= best_score) {
      best_score = score;
      best = &entry->model;
    }
  }
  return best;
}

std::vector<PageId> PythiaSystem::PrefetchPlan(const WorkloadQuery& query,
                                               RunMode mode,
                                               QueryRunMetrics* metrics) {
  switch (mode) {
    case RunMode::kDefault:
      return {};
    case RunMode::kOracle: {
      // Perfect prediction by definition.
      std::vector<PageId> pages = OraclePages(query.trace);
      if (metrics != nullptr) {
        metrics->engaged = true;
        metrics->accuracy.precision = 1.0;
        metrics->accuracy.recall = 1.0;
        metrics->accuracy.f1 = 1.0;
        metrics->predicted_pages = pages.size();
      }
      return pages;
    }
    case RunMode::kPythia: {
      WorkloadModel* model = MatchWorkload(query);
      if (model == nullptr) return {};
      const PredictionKey key = PredictionKeyFor(*model, query);
      std::vector<PageId> pages;
      if (!prediction_cache_.Lookup(key, &pages)) {
        // Miss: run the per-unit transformer forwards and memoize the
        // sorted page list. Predict is deterministic, so a later hit is
        // bit-identical to recomputing.
        std::unordered_set<PageId> predicted = model->Predict(query.tokens);
        pages.assign(predicted.begin(), predicted.end());
        std::sort(pages.begin(), pages.end());
        prediction_cache_.Insert(key, pages);
      }
      FillPlanMetrics(*model, query, pages, metrics);
      return pages;
    }
    case RunMode::kNearestNeighbor: {
      // NN is tied to the workload the query belongs to; fall back to the
      // first entry if matching fails (it is an idealized baseline).
      Entry* entry = nullptr;
      WorkloadModel* model = MatchWorkload(query);
      for (const auto& e : entries_) {
        if (&e->model == model) entry = e.get();
      }
      if (entry == nullptr && !entries_.empty()) entry = entries_[0].get();
      if (entry == nullptr) return {};
      const std::unordered_set<PageId>& predicted =
          entry->nn->Predict(entry->model.GroundTruth(query.trace));
      std::vector<PageId> pages(predicted.begin(), predicted.end());
      std::sort(pages.begin(), pages.end());
      FillPlanMetrics(entry->model, query, pages, metrics);
      return pages;
    }
  }
  return {};
}

std::vector<PageId> PythiaSystem::CachedPlanOnly(const WorkloadQuery& query,
                                                 RunMode mode,
                                                 QueryRunMetrics* metrics) {
  if (mode != RunMode::kPythia) return {};
  WorkloadModel* model = MatchWorkload(query);
  if (model == nullptr) return {};
  std::vector<PageId> pages;
  if (!prediction_cache_.Lookup(PredictionKeyFor(*model, query), &pages)) {
    return {};
  }
  FillPlanMetrics(*model, query, pages, metrics);
  return pages;
}

DegradationRung PythiaSystem::PlanRung(const WorkloadQuery& query,
                                       RunMode mode, QueryRunMetrics* metrics,
                                       int64_t* watchdog_entry) {
  if (watchdog_entry != nullptr) *watchdog_entry = -1;
  // One ladder, several sensors: the governor's load rung, the circuit
  // breaker (prefetch-health) and the watchdog (model-quality) fold
  // together via max(), so whichever guardrail demands the most degraded
  // service wins.
  DegradationRung rung = DegradationRung::kFullNeural;
  if (governor_ != nullptr) {
    rung = governor_->rung();
    if (rung != DegradationRung::kFullNeural) {
      metrics->degraded_by_governor = true;
      PYTHIA_TRACE_INSTANT("system", "degraded.governor", 0, "rung",
                           static_cast<uint64_t>(static_cast<int>(rung)));
    }
  }
  if (mode != RunMode::kDefault && !breaker_.AllowPrefetch()) {
    rung = MaxRung(rung, kBreakerDegradedRung);
    metrics->degraded_by_breaker = true;
    PYTHIA_TRACE_INSTANT("system", "degraded.breaker", 0);
  }
  // The watchdog guards model quality, so it only gates the learned mode —
  // and only while learned predictions could still be used (below
  // kReadahead); AllowPrediction has probation side effects, so it must not
  // run for queries that cannot engage anyway.
  if (mode == RunMode::kPythia &&
      static_cast<int>(rung) < static_cast<int>(DegradationRung::kReadahead)) {
    const int64_t idx = EntryIndex(MatchWorkload(query));
    if (watchdog_entry != nullptr) *watchdog_entry = idx;
    if (idx >= 0 && !entries_[idx]->watchdog.AllowPrediction()) {
      rung = MaxRung(rung, kWatchdogDegradedRung);
      metrics->degraded_by_watchdog = true;
      PYTHIA_TRACE_INSTANT("system", "degraded.watchdog", 0);
    }
  }
  metrics->rung = rung;
  return rung;
}

ConcurrentQuery PythiaSystem::PlanConcurrentQuery(
    const WorkloadQuery& query, RunMode mode, SimTime arrival_us,
    const PrefetcherOptions& options) {
  return PlanQuery(query, mode, arrival_us, options,
                   /*watchdog_entry=*/nullptr);
}

ConcurrentQuery PythiaSystem::PlanQuery(const WorkloadQuery& query,
                                        RunMode mode, SimTime arrival_us,
                                        const PrefetcherOptions& options,
                                        int64_t* watchdog_entry) {
  ConcurrentQuery cq;
  cq.trace = &query.trace;
  cq.arrival_us = arrival_us;
  cq.prefetch_options = options;
  if (cq.prefetch_options.governor == nullptr) {
    cq.prefetch_options.governor = governor_.get();
  }
  const DegradationRung rung =
      PlanRung(query, mode, &cq.planned, watchdog_entry);
  if (rung == DegradationRung::kFullNeural) {
    cq.prefetch_pages = PrefetchPlan(query, mode, &cq.planned);
  } else if (rung == DegradationRung::kCachedOnly) {
    cq.prefetch_pages = CachedPlanOnly(query, mode, &cq.planned);
  }
  // kReadahead and below: no learned prefetch — the query runs on the
  // plain buffer manager (OS readahead still serves scans; at kNoPrefetch
  // the governor suppresses even that).
  if (mode == RunMode::kOracle) {
    // The oracle knows the exact access sequence; issue in that order.
    cq.prefetch_options.order = PrefetchOrder::kAccessOrder;
  }
  return cq;
}

QueryRunMetrics PythiaSystem::RunQuery(
    const WorkloadQuery& query, RunMode mode,
    const PrefetcherOptions& prefetch_options, bool cold) {
  // Each query gets its own trace track; its virtual clock starts at 0.
  {
    Tracer& tracer = Tracer::Global();
    if (tracer.enabled()) {
      tracer.StartQueryTrack();
      tracer.SetTime(0);
    }
  }

  int64_t watchdog_entry = -1;
  std::vector<ConcurrentQuery> solo;
  solo.push_back(PlanQuery(query, mode, /*arrival_us=*/0, prefetch_options,
                           &watchdog_entry));
  const std::vector<PageId>& pages = solo[0].prefetch_pages;
  if (solo[0].planned.engaged) {
    PYTHIA_TRACE_INSTANT("system", "predict", 0, "pages", pages.size());
  }

  if (cold) {
    env_->ColdRestart();
    // Virtual clocks restart at 0 with the environment; async completions
    // recorded against the previous run's timeline would otherwise never
    // prune and read as phantom AIO pressure forever.
    if (governor_ != nullptr) governor_->OnEnvironmentRestart();
  }
  // The governor walks its ladder at every access, so a query planned on a
  // degraded rung lets the ladder recover for the next one; the rung that
  // served the query is the worst the ladder reached while it ran.
  ConcurrentOptions replay_options;
  replay_options.governor = governor_.get();
  QueryRunMetrics metrics =
      std::move(ReplayConcurrent(solo, replay_options, env_).queries[0]);
  const PrefetchSessionStats& session = metrics.prefetch_stats;

  // Feed the breaker the health verdict of the session that actually ran.
  if (mode != RunMode::kDefault && !pages.empty()) {
    breaker_.Record(IsHealthyPrefetch(session, health_policy_));
  }
  // Feed the matched model's watchdog the useful-prefetch ratio of its own
  // session (consumed / attempted); tiny sessions are skipped inside.
  if (watchdog_entry >= 0 && !metrics.degraded_by_watchdog &&
      metrics.engaged) {
    entries_[watchdog_entry]->watchdog.Record(session.attempted(),
                                              session.consumed);
  }
  // Feed the adaptation manager every learned-mode query that matched a
  // model (including watchdog-degraded ones — their traces are exactly what
  // the candidate needs to retrain on). Runs after the watchdog judged the
  // session, so post-swap probation/rollback decisions see this query.
  if (adaptation_ != nullptr && mode == RunMode::kPythia &&
      watchdog_entry >= 0) {
    adaptation_->ObserveQuery(static_cast<size_t>(watchdog_entry), query,
                              metrics);
  }
  return metrics;
}

}  // namespace pythia
