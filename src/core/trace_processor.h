// Trace post-processing — Algorithm 1, lines 8-12.
//
// Raw traces are an assorted mix of sequential fact-scan reads, repeated
// index-path reads and heap fetches. Training data keeps only the trace's
// distinct non-sequential accesses (QueryTrace::NonSequentialPages, the one
// label rule), segregated per database object and sorted by offset (the
// order the prefetcher consumes them in).
#ifndef PYTHIA_CORE_TRACE_PROCESSOR_H_
#define PYTHIA_CORE_TRACE_PROCESSOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "exec/trace.h"

namespace pythia {

// Per-object sorted distinct page lists. std::map keeps object order stable
// for deterministic iteration.
using ObjectPageSets = std::map<ObjectId, std::vector<uint32_t>>;

// Produces the per-object training label sets from a raw trace: its
// NonSequentialPages grouped by object, each group sorted by offset.
ObjectPageSets ProcessTrace(const QueryTrace& trace);

}  // namespace pythia

#endif  // PYTHIA_CORE_TRACE_PROCESSOR_H_
