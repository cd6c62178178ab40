#include "core/batch_predictor.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace pythia {

BatchPredictor::BatchPredictor(PythiaSystem* system,
                               const BatchPredictorOptions& options)
    : system_(system), options_(options) {}

BatchPredictor::~BatchPredictor() {
  if (pending_.empty()) return;
  PredictionCache& cache = system_->prediction_cache();
  for (const Pending& p : pending_) {
    if (p.leader) cache.AbortInflight(p.key);
  }
  pending_.clear();
  leaders_ = 0;
}

void BatchPredictor::Submit(uint64_t ticket, const WorkloadQuery& query,
                            SimTime now, std::vector<BatchPrediction>* done) {
  ++stats_.submitted;
  BatchPrediction out;
  out.ticket = ticket;
  out.ready_us = now;
  const DegradationRung rung =
      system_->PlanningRung(query, RunMode::kPythia, &out.planned);
  if (static_cast<int>(rung) >=
      static_cast<int>(DegradationRung::kReadahead)) {
    ++stats_.degraded;
    done->push_back(std::move(out));
    return;
  }
  WorkloadModel* model = system_->MatchWorkload(query);
  if (model == nullptr) {
    ++stats_.unmatched;
    done->push_back(std::move(out));
    return;
  }
  PredictionKey key = system_->PredictionKeyFor(*model, query);
  PredictionCache& cache = system_->prediction_cache();
  std::vector<PageId> pages;
  if (cache.Lookup(key, &pages)) {
    // Hit: settle immediately at any rung, filling metrics exactly as the
    // sequential PrefetchPlan hit path does.
    ++stats_.served_from_cache;
    out.from_cache = true;
    out.pages = std::move(pages);
    FillPlanMetrics(*model, query, out.pages, &out.planned);
    done->push_back(std::move(out));
    return;
  }
  if (rung == DegradationRung::kCachedOnly) {
    // The rung sheds inference: a miss settles empty, like CachedPlanOnly.
    ++stats_.cached_only_misses;
    done->push_back(std::move(out));
    return;
  }
  Pending p;
  p.ticket = ticket;
  p.query = &query;
  p.model = model;
  p.key = std::move(key);
  p.enqueue_us = now;
  p.leader = cache.BeginInflight(p.key);
  p.planned = out.planned;
  if (p.leader) {
    ++leaders_;
  } else {
    ++stats_.deduped;
  }
  pending_.push_back(std::move(p));
  if (leaders_ >= options_.max_batch_rows) {
    ++stats_.size_flushes;
    Flush(now, done);
  }
}

void BatchPredictor::PumpTo(SimTime now, std::vector<BatchPrediction>* done) {
  if (pending_.empty()) return;
  const SimTime due = pending_.front().enqueue_us + options_.flush_deadline_us;
  if (now < due) return;
  ++stats_.deadline_flushes;
  // The flush logically happened when the deadline expired, not when the
  // driver next pumped — results are stamped with the due time so batch
  // wait charged to sessions never depends on the driver's pump cadence.
  Flush(due, done);
}

void BatchPredictor::FlushAll(SimTime now,
                              std::vector<BatchPrediction>* done) {
  if (pending_.empty()) return;
  ++stats_.final_flushes;
  Flush(now, done);
}

SimTime BatchPredictor::NextDeadline() const {
  if (pending_.empty()) return 0;
  return pending_.front().enqueue_us + options_.flush_deadline_us;
}

double BatchPredictor::MeanRowsPerForward() const {
  if (stats_.model_batches == 0) return 0.0;
  return static_cast<double>(stats_.forward_rows) /
         static_cast<double>(stats_.model_batches);
}

void BatchPredictor::Flush(SimTime ready_us,
                           std::vector<BatchPrediction>* done) {
  if (pending_.empty()) return;
  ++stats_.flushes;
  PredictionCache& cache = system_->prediction_cache();

  // Re-read the ladder: a window that queued under full-neural may flush
  // under overload. When the governor has degraded to kCachedOnly or below,
  // running the forward pass now would be exactly the work the ladder is
  // trying to shed — drop the whole window instead.
  if (system_->governor() != nullptr) {
    const DegradationRung rung = system_->governor()->rung();
    if (static_cast<int>(rung) >=
        static_cast<int>(DegradationRung::kCachedOnly)) {
      ++stats_.shed_windows;
      for (Pending& p : pending_) {
        if (p.leader) cache.AbortInflight(p.key);
        BatchPrediction out;
        out.ticket = p.ticket;
        out.ready_us = ready_us;
        out.planned = p.planned;
        out.planned.degraded_by_governor = true;
        out.planned.rung = MaxRung(out.planned.rung, rung);
        out.deduped = !p.leader;
        done->push_back(std::move(out));
      }
      pending_.clear();
      leaders_ = 0;
      return;
    }
  }

  // Group leader rows by model, preserving first-seen order, so each model
  // runs exactly one multi-row pass per window.
  std::vector<WorkloadModel*> models;
  std::vector<std::vector<size_t>> rows;  // indices into pending_
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!pending_[i].leader) continue;
    size_t m = 0;
    while (m < models.size() && models[m] != pending_[i].model) ++m;
    if (m == models.size()) {
      models.push_back(pending_[i].model);
      rows.emplace_back();
    }
    rows[m].push_back(i);
  }

  std::unordered_map<PredictionKey, std::vector<PageId>, PredictionKeyHash>
      results;
  for (size_t m = 0; m < models.size(); ++m) {
    std::vector<const std::vector<std::string>*> token_seqs;
    token_seqs.reserve(rows[m].size());
    for (size_t i : rows[m]) token_seqs.push_back(&pending_[i].query->tokens);
    std::vector<std::unordered_set<PageId>> predicted =
        models[m]->PredictBatch(token_seqs);
    ++stats_.model_batches;
    stats_.forward_rows += token_seqs.size();
    for (size_t r = 0; r < rows[m].size(); ++r) {
      const Pending& p = pending_[rows[m][r]];
      std::vector<PageId> pages(predicted[r].begin(), predicted[r].end());
      std::sort(pages.begin(), pages.end());
      stats_.fanned_out += cache.PublishInflight(p.key, pages);
      results.emplace(p.key, std::move(pages));
    }
  }

  // Deliver in submission order; metrics are filled exactly as the
  // sequential PrefetchPlan fills them, so downstream session accounting
  // cannot tell the paths apart.
  for (Pending& p : pending_) {
    BatchPrediction out;
    out.ticket = p.ticket;
    out.ready_us = ready_us;
    out.planned = p.planned;
    out.deduped = !p.leader;
    out.pages = results.at(p.key);  // followers copy the leader's list
    FillPlanMetrics(*p.model, *p.query, out.pages, &out.planned);
    done->push_back(std::move(out));
  }
  pending_.clear();
  leaders_ = 0;
}

}  // namespace pythia
