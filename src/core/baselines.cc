#include "core/baselines.h"

#include "util/metrics.h"

namespace pythia {

std::vector<PageId> OraclePages(const QueryTrace& trace) {
  return trace.NonSequentialPages();
}

NearestNeighborBaseline::NearestNeighborBaseline(const Workload& workload,
                                                 const WorkloadModel& model) {
  train_sets_.reserve(workload.train_indices.size());
  for (size_t qi : workload.train_indices) {
    train_sets_.push_back(model.GroundTruth(workload.queries[qi].trace));
  }
}

const std::unordered_set<PageId>& NearestNeighborBaseline::Predict(
    const std::unordered_set<PageId>& test_pages) const {
  if (train_sets_.empty()) return empty_;
  size_t best = 0;
  double best_score = -1.0;
  for (size_t i = 0; i < train_sets_.size(); ++i) {
    const double score = JaccardSimilarity(test_pages, train_sets_[i]);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return train_sets_[best];
}

}  // namespace pythia
