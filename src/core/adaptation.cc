#include "core/adaptation.h"

#include <algorithm>
#include <utility>

#include "core/replay.h"
#include "core/system.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pythia {

const char* AdaptationEventName(AdaptationEvent::Kind kind) {
  switch (kind) {
    case AdaptationEvent::Kind::kRetrainStart: return "retrain_start";
    case AdaptationEvent::Kind::kSwap: return "swap";
    case AdaptationEvent::Kind::kReject: return "reject";
    case AdaptationEvent::Kind::kCommit: return "commit";
    case AdaptationEvent::Kind::kRollback: return "rollback";
  }
  return "unknown";
}

AdaptationManager::AdaptationManager(PythiaSystem* system,
                                     const AdaptationOptions& options)
    : system_(system), options_(options) {}

AdaptationManager::~AdaptationManager() {
  // A background training task captures pointers into EntryState; it must
  // finish before that state is torn down.
  for (auto& st : entries_) {
    if (st != nullptr) st->task.Join();
  }
}

AdaptationManager::EntryState& AdaptationManager::State(size_t entry) {
  while (entries_.size() <= entry) {
    entries_.push_back(std::make_unique<EntryState>());
  }
  return *entries_[entry];
}

AdaptationPhase AdaptationManager::phase(size_t entry) const {
  if (entry >= entries_.size()) return AdaptationPhase::kIdle;
  return entries_[entry]->phase;
}

AdaptationCheckpointSummary AdaptationManager::CheckpointSummary(
    size_t entry) {
  EntryState& st = State(entry);
  AdaptationCheckpointSummary summary;
  // A checkpoint can land while a candidate trains in the background; the
  // candidate cannot survive a crash, so the durable phase is kIdle.
  summary.phase = static_cast<uint32_t>(st.phase == AdaptationPhase::kTraining
                                            ? AdaptationPhase::kIdle
                                            : st.phase);
  summary.cooldown_remaining = st.cooldown_remaining;
  summary.rounds = st.rounds;
  return summary;
}

void AdaptationManager::RestoreCheckpointSummary(
    size_t entry, const AdaptationCheckpointSummary& summary) {
  EntryState& st = State(entry);
  AdaptationPhase phase = static_cast<AdaptationPhase>(summary.phase);
  if (phase == AdaptationPhase::kTraining) phase = AdaptationPhase::kIdle;
  st.phase = phase;
  st.cooldown_remaining = summary.cooldown_remaining;
  st.rounds = summary.rounds;
  // Traces were not persisted: the window restarts empty and fresh counts
  // from zero, so the next retrain triggers only on genuinely new captures.
  st.window.clear();
  st.fresh = 0;
  st.candidate.reset();
  st.train_set.clear();
  st.holdout.clear();
}

void AdaptationManager::PushEvent(AdaptationEvent::Kind kind, size_t entry,
                                  uint64_t revision) {
  AdaptationEvent ev;
  ev.kind = kind;
  ev.entry = entry;
  ev.lane_us = lane_now_;
  ev.revision = revision;
  events_.push_back(ev);
  PYTHIA_TRACE_INSTANT_CTX("adaptation", AdaptationEventName(kind), "lane_us",
                           lane_now_, "revision", revision);
}

void AdaptationManager::EnterCooldown(EntryState* st) {
  st->phase = options_.cooldown_captures > 0 ? AdaptationPhase::kCooldown
                                             : AdaptationPhase::kIdle;
  st->cooldown_remaining = options_.cooldown_captures;
  st->fresh = 0;
}

void AdaptationManager::ObserveQuery(size_t entry, const WorkloadQuery& query,
                                     const QueryRunMetrics& metrics) {
  // The lane clock advances with the live query stream: "training takes a
  // while" is expressed in the same virtual time the queries run in.
  lane_now_ += metrics.elapsed_us;

  EntryState& st = State(entry);
  Capture capture;
  capture.tokens = query.tokens;
  capture.trace = query.trace;
  capture.structure_key = query.structure_key;
  capture.useful_ratio = metrics.prefetch_stats.useful_ratio();
  st.window.push_back(std::move(capture));
  while (st.window.size() > options_.window_capacity) st.window.pop_front();
  ++st.fresh;
  ++stats_.captured;

  switch (st.phase) {
    case AdaptationPhase::kIdle:
      MaybeTrigger(entry, &st);
      break;
    case AdaptationPhase::kTraining:
      if (lane_now_ >= st.ready_at) FinishTraining(entry, &st);
      break;
    case AdaptationPhase::kProbation: {
      PredictionWatchdog& wd = system_->watchdog(entry);
      if (wd.post_swap_demoted()) {
        // The watchdog re-demoted the freshly-swapped model inside its
        // probation window: the candidate made things worse live even
        // though it passed shadow validation. Restore the snapshot.
        const bool rolled = system_->RollbackModel(entry);
        if (rolled) {
          ++stats_.rollbacks;
          PushEvent(AdaptationEvent::Kind::kRollback, entry,
                    system_->model(entry).revision());
        }
        EnterCooldown(&st);
      } else if (!wd.post_swap_probation_active()) {
        ++stats_.commits;
        PushEvent(AdaptationEvent::Kind::kCommit, entry,
                  system_->model(entry).revision());
        st.phase = AdaptationPhase::kIdle;
        st.fresh = 0;
      }
      break;
    }
    case AdaptationPhase::kCooldown:
      if (st.cooldown_remaining > 0) --st.cooldown_remaining;
      if (st.cooldown_remaining == 0) st.phase = AdaptationPhase::kIdle;
      break;
  }
}

void AdaptationManager::MaybeTrigger(size_t entry, EntryState* st) {
  if (st->fresh < options_.retrain_after) return;
  if (st->window.size() < options_.retrain_after) return;

  // Only retrain when the recent stream looks unhealthy (the live model's
  // prefetches stopped being useful). A ratio gate >= 1.0 disables the
  // check (volume-only trigger).
  if (options_.trigger_useful_ratio < 1.0) {
    const size_t n = std::min(options_.trigger_window, st->window.size());
    double total = 0.0;
    for (size_t i = st->window.size() - n; i < st->window.size(); ++i) {
      total += st->window[i].useful_ratio;
    }
    if (n == 0 ||
        total / static_cast<double>(n) >= options_.trigger_useful_ratio) {
      return;
    }
  }

  // Split the window: newest slice held out for shadow validation, the
  // rest is the training set.
  size_t holdout = static_cast<size_t>(
      static_cast<double>(st->window.size()) * options_.holdout_fraction);
  holdout = std::max(holdout, options_.min_holdout);
  holdout = std::min(holdout, st->window.size() - 1);
  if (holdout == 0 || st->window.size() - holdout == 0) return;

  st->train_set.assign(st->window.begin(),
                       st->window.end() - static_cast<ptrdiff_t>(holdout));
  st->holdout.assign(st->window.end() - static_cast<ptrdiff_t>(holdout),
                     st->window.end());

  // Clone the incumbent on this thread (deterministic snapshot point), then
  // hand the clone to the background lane for retraining.
  st->candidate =
      std::make_unique<WorkloadModel>(system_->model(entry).Clone());

  IncrementalTrainOptions topts = options_.train;
  topts.seed = options_.train.seed + 7919 * st->rounds;
  ++st->rounds;

  // Deterministic virtual readiness: the swap can only happen once the lane
  // clock has paid for the training work, regardless of how fast the
  // background thread actually finishes.
  const SimTime cost = options_.train_cost_per_sample_us *
                       static_cast<SimTime>(st->train_set.size()) *
                       static_cast<SimTime>(std::max(1, topts.epochs));
  st->ready_at = lane_now_ + cost;

  ++stats_.retrains_started;
  PushEvent(AdaptationEvent::Kind::kRetrainStart, entry, 0);
  st->fresh = 0;
  st->phase = AdaptationPhase::kTraining;

  WorkloadModel* candidate = st->candidate.get();
  EntryState* state = st;  // heap-stable; untouched until the task joins
  st->task = ThreadPool::Global().SubmitBackground([candidate, state, topts] {
    std::vector<IncrementalSample> samples;
    samples.reserve(state->train_set.size());
    for (const Capture& c : state->train_set) {
      IncrementalSample s;
      s.tokens = &c.tokens;
      s.trace = &c.trace;
      s.structure_key = &c.structure_key;
      samples.push_back(s);
    }
    candidate->IncrementalTrain(samples, topts);
  });
}

void AdaptationManager::FinishTraining(size_t entry, EntryState* st) {
  st->task.Join();
  ++stats_.retrains_completed;

  const bool passed = ShadowValidate(entry, st);
  if (passed) {
    ++stats_.validations_passed;
    const uint64_t revision = system_->SwapModel(
        entry, std::move(*st->candidate), options_.probation_sessions);
    ++stats_.swaps;
    PushEvent(AdaptationEvent::Kind::kSwap, entry, revision);
    st->phase = AdaptationPhase::kProbation;
  } else {
    ++stats_.validations_failed;
    PushEvent(AdaptationEvent::Kind::kReject, entry,
              system_->model(entry).revision());
    EnterCooldown(st);
  }
  st->candidate.reset();
  st->train_set.clear();
  st->holdout.clear();
}

bool AdaptationManager::ShadowValidate(size_t entry, EntryState* st) {
  // Private environment built from the live one's options: identical
  // latency model and cache geometry, but its own buffer pool/OS cache/IO
  // channels — live sessions never notice the validation replays. They run
  // default PrefetcherOptions: no governor, since nothing else shares the
  // shadow stack.
  SimEnvironment shadow(system_->env()->options());
  WorkloadModel& incumbent = system_->model(entry);

  double default_us = 0.0, candidate_us = 0.0, incumbent_us = 0.0;
  PrefetchSessionStats candidate_prefetch;  // summed over the holdout
  for (const Capture& c : st->holdout) {
    // No-prefetch baseline (the paper's DFLT), cold.
    shadow.ColdRestart();
    const QueryRunMetrics base =
        ReplayQuery(c.trace, {}, PrefetcherOptions{}, &shadow);
    default_us += static_cast<double>(base.elapsed_us);

    auto replay_with = [&](WorkloadModel* model) {
      std::unordered_set<PageId> predicted = model->Predict(c.tokens);
      std::vector<PageId> pages(predicted.begin(), predicted.end());
      std::sort(pages.begin(), pages.end());
      shadow.ColdRestart();
      return ReplayQuery(c.trace, pages, PrefetcherOptions{}, &shadow);
    };
    const QueryRunMetrics cand = replay_with(st->candidate.get());
    candidate_us += static_cast<double>(cand.elapsed_us);
    candidate_prefetch.issued += cand.prefetch_stats.issued;
    candidate_prefetch.already_buffered += cand.prefetch_stats.already_buffered;
    candidate_prefetch.consumed += cand.prefetch_stats.consumed;

    const QueryRunMetrics inc = replay_with(&incumbent);
    incumbent_us += static_cast<double>(inc.elapsed_us);
  }

  const double candidate_speedup = SafeDiv(default_us, candidate_us);
  const double incumbent_speedup = SafeDiv(default_us, incumbent_us);
  const double useful = candidate_prefetch.useful_ratio();
  const bool passed =
      candidate_speedup >= options_.min_speedup_vs_default &&
      candidate_speedup >=
          incumbent_speedup * options_.min_speedup_vs_incumbent &&
      useful >= options_.min_useful_ratio;

  PYTHIA_TRACE_INSTANT_CTX(
      "adaptation", passed ? "shadow_pass" : "shadow_fail", "speedup_x100",
      static_cast<uint64_t>(candidate_speedup * 100.0), "useful_x100",
      static_cast<uint64_t>(useful * 100.0));
  return passed;
}

}  // namespace pythia
