// Idealized baselines from Section 5.2.
//
//  - ORCL: an oracle that knows the exact sequence of block accesses; it
//    prefetches them (in access order) through Pythia's prefetcher. By
//    construction its prediction F1 is 1.
//  - NN: for a test query, retrieve the most similar training query by
//    Jaccard similarity *between their actual block-access sets* (idealized:
//    it peeks at the test query's output) and prefetch that neighbor's
//    pages.
//  - DFLT is simply replay without a prefetch session.
//
// Both read the one label rule: the oracle prefetches the trace's
// NonSequentialPages (exec/trace.h), and NN's neighbor sets are
// WorkloadModel::GroundTruth, the same sets its plan is scored against.
#ifndef PYTHIA_CORE_BASELINES_H_
#define PYTHIA_CORE_BASELINES_H_

#include <unordered_set>
#include <vector>

#include "core/predictor.h"
#include "exec/trace.h"

namespace pythia {

// Distinct non-sequential pages of `trace` in first-access order — what the
// oracle prefetches.
std::vector<PageId> OraclePages(const QueryTrace& trace);

class NearestNeighborBaseline {
 public:
  // Builds the neighbor store from the workload's training queries: each
  // query's ground truth under `model`, so neighbors cover only the objects
  // the model covers (IMDB experiments model only cast_info).
  NearestNeighborBaseline(const Workload& workload,
                          const WorkloadModel& model);

  // Returns the stored page set of the training query most similar to
  // `test_pages` (idealized: the caller passes the test query's own ground
  // truth).
  const std::unordered_set<PageId>& Predict(
      const std::unordered_set<PageId>& test_pages) const;

 private:
  std::vector<std::unordered_set<PageId>> train_sets_;
  std::unordered_set<PageId> empty_;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_BASELINES_H_
