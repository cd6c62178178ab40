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
#ifndef PYTHIA_CORE_BASELINES_H_
#define PYTHIA_CORE_BASELINES_H_

#include <unordered_set>
#include <vector>

#include "core/trace_processor.h"
#include "exec/trace.h"
#include "workload/generator.h"

namespace pythia {

// Distinct non-sequential pages of `trace` in first-access order — what the
// oracle prefetches.
std::vector<PageId> OraclePages(const QueryTrace& trace,
                                SequentialRemoval removal =
                                    SequentialRemoval::kByOrigin);

class NearestNeighborBaseline {
 public:
  // Builds the neighbor store from the workload's training queries. If
  // `restrict_objects` is non-empty, page sets are restricted to those
  // objects (IMDB experiments only consider cast_info).
  NearestNeighborBaseline(const Workload& workload,
                          const std::vector<ObjectId>& restrict_objects,
                          SequentialRemoval removal =
                              SequentialRemoval::kByOrigin);

  // Returns the stored page set of the training query most similar to
  // `test_pages` (idealized: the caller passes the test query's actual
  // non-sequential page set).
  const std::unordered_set<PageId>& Predict(
      const std::unordered_set<PageId>& test_pages) const;

  // The test query's own (restricted) ground-truth set — convenience used
  // both as the NN probe and as the F1 reference.
  std::unordered_set<PageId> GroundTruth(const QueryTrace& trace) const;

 private:
  std::vector<std::unordered_set<PageId>> train_sets_;
  std::unordered_set<PageId> empty_;
  std::vector<ObjectId> restrict_objects_;
  SequentialRemoval removal_;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_BASELINES_H_
