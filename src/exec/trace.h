// Query trace instrumentation.
//
// "We implement a lightweight instrumentation module that intercepts and
// logs the page requests from the buffer manager" (Section 3.3). Here the
// executor records every page request it would send to the buffer manager,
// tagged with whether it came from a sequential scan, plus the CPU work
// (tuples visited) since the previous request. The same trace is used both
// as Pythia training data (after Algorithm 1 post-processing) and as the
// deterministic replay schedule for timing simulation.
//
// NonSequentialPages is the one label rule: every quantity the paper learns
// or scores — the training labels (core/trace_processor.h), the oracle's
// plan (core/baselines.h), the F1 ground truth (WorkloadModel::GroundTruth)
// and the Table 1 footprint — is derived from its list.
#ifndef PYTHIA_EXEC_TRACE_H_
#define PYTHIA_EXEC_TRACE_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "storage/page_id.h"

namespace pythia {

struct PageAccess {
  PageId page;
  // True when the access was issued by a sequential (heap) scan; index
  // probes and index-driven heap fetches are non-sequential.
  bool sequential = false;
  // Tuples the executor processed since the previous page request; replay
  // charges this as CPU time before the I/O.
  uint32_t cpu_tuples_before = 0;
};

struct QueryTrace {
  std::vector<PageAccess> accesses;
  uint64_t tuples_processed = 0;
  uint64_t rows_returned = 0;

  // Algorithm 1, lines 8-12: the distinct pages the executor requested
  // non-sequentially (by its origin tag, not by page position), in
  // first-access order.
  std::vector<PageId> NonSequentialPages() const {
    std::vector<PageId> out;
    std::unordered_set<PageId> seen;
    for (const PageAccess& a : accesses) {
      if (!a.sequential && seen.insert(a.page).second) out.push_back(a.page);
    }
    return out;
  }

  // NonSequentialPages as a set — the quantity Table 1 and Figures 10/11
  // bucketize on.
  std::unordered_set<PageId> DistinctNonSequential() const {
    const std::vector<PageId> pages = NonSequentialPages();
    return {pages.begin(), pages.end()};
  }

  uint64_t SequentialCount() const {
    uint64_t n = 0;
    for (const PageAccess& a : accesses) n += a.sequential ? 1 : 0;
    return n;
  }
};

class TraceRecorder {
 public:
  void Record(PageId page, bool sequential) {
    trace_.accesses.push_back(
        PageAccess{page, sequential, pending_cpu_});
    pending_cpu_ = 0;
  }

  void AddCpuWork(uint32_t tuples) {
    pending_cpu_ += tuples;
    trace_.tuples_processed += tuples;
  }

  void SetRowsReturned(uint64_t rows) { trace_.rows_returned = rows; }

  const QueryTrace& trace() const { return trace_; }
  QueryTrace Take() {
    QueryTrace out = std::move(trace_);
    trace_ = QueryTrace();
    pending_cpu_ = 0;
    return out;
  }

 private:
  QueryTrace trace_;
  uint32_t pending_cpu_ = 0;
};

}  // namespace pythia

#endif  // PYTHIA_EXEC_TRACE_H_
