// Virtual-time cost model for the storage hierarchy.
//
// The ratios are calibrated to the cold-cache spinning-disk economics the
// paper's evaluation depends on (Postgres restarted and OS caches dropped
// between runs): a random disk read is ~10x a sequential one, which is ~7x
// an OS-cache-to-buffer memory copy, which is ~10x a buffer-pool hit.
// Absolute values are microseconds of virtual time; only the ratios matter
// for the reported speedup shapes.
#ifndef PYTHIA_STORAGE_LATENCY_MODEL_H_
#define PYTHIA_STORAGE_LATENCY_MODEL_H_

#include "storage/sim_clock.h"

namespace pythia {

struct LatencyModel {
  SimTime buffer_hit_us = 1;        // page already in the buffer pool
  SimTime os_cache_copy_us = 12;    // miss in buffer, hit in OS page cache
  SimTime disk_seq_read_us = 80;    // disk read that continues a run
  SimTime disk_random_read_us = 900;  // cold random disk read (seek + read)
  SimTime cpu_per_tuple_us = 2;     // executor CPU work per tuple visited
};

// Where a page read was ultimately served from.
enum class AccessSource {
  kBufferHit,
  kOsCache,
  kDiskSequential,
  kDiskRandom,
};

}  // namespace pythia

#endif  // PYTHIA_STORAGE_LATENCY_MODEL_H_
