// Plan-fingerprint prediction memoization (PR: fast inference path).
//
// PythiaSystem sees the same serialized plans over and over: benchmark
// sweeps replay identical queries under several modes, and real workloads
// repeat plan templates. A full WorkloadModel::Predict runs one transformer
// forward per model unit, so memoizing the final page list by plan is a
// large win whenever a plan repeats.
//
// Keys are exact, not hashed-only: the key stores the model identity, the
// model's revision counter (bumped on any behaviour-changing mutation such
// as set_threshold), and the plan's token sequence joined with an
// unambiguous separator. The FNV hash (util/hash.h) only buckets; equality
// compares the full key, so hash collisions can never serve a wrong
// prediction. Eviction is LRU with hit/miss/eviction counters surfaced
// through util/metrics.h's PredictionCacheStats.
#ifndef PYTHIA_CORE_PREDICTION_CACHE_H_
#define PYTHIA_CORE_PREDICTION_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/page_id.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace pythia {

struct PredictionKey {
  uint64_t model_id = 0;   // which registered workload model
  uint64_t revision = 0;   // WorkloadModel::revision() at insert time
  std::string plan;        // PredictionCache::PlanKey(tokens)

  friend bool operator==(const PredictionKey& a, const PredictionKey& b) {
    return a.model_id == b.model_id && a.revision == b.revision &&
           a.plan == b.plan;
  }
};

struct PredictionKeyHash {
  size_t operator()(const PredictionKey& k) const {
    uint64_t h = kFnvOffsetBasis;
    h = FnvPod(h, k.model_id);
    h = FnvPod(h, k.revision);
    h = FnvString(h, k.plan);
    return static_cast<size_t>(h);
  }
};

class PredictionCache {
 public:
  explicit PredictionCache(size_t capacity = 1024) : capacity_(capacity) {}

  // Joins tokens with a separator that cannot occur inside a token (0x1f,
  // ASCII unit separator), so distinct token sequences never collide.
  static std::string PlanKey(const std::vector<std::string>& tokens);

  // On hit, copies the cached page list into *pages and refreshes the
  // entry's LRU position. Counts a hit or a miss either way.
  bool Lookup(const PredictionKey& key, std::vector<PageId>* pages);

  // Inserts (or overwrites) the entry, evicting the least recently used
  // entry if the cache is full. A capacity of 0 disables the cache.
  void Insert(const PredictionKey& key, std::vector<PageId> pages);

  // --- Single-flight dedupe (batch windows) ------------------------------
  // The batched prediction engine (core/batch_predictor.h) coalesces plan
  // requests into flush windows. When several requests in one window carry
  // the same fingerprint, exactly one — the leader — may run a forward
  // pass; the rest join the leader's in-flight registration and are fanned
  // the published result. Dedupe joins and fanouts are counted in stats().

  // Registers interest in `key` for the current window. True: the caller is
  // the leader and must eventually Publish or Abort the key. False: an
  // identical fingerprint is already in flight (counted as a dedupe join).
  bool BeginInflight(const PredictionKey& key);

  // Completes `key`'s window: inserts the leader's result into the cache,
  // counts one fanout per joined follower, clears the registration and
  // returns the follower count. No-op (returns 0) for an unregistered key.
  size_t PublishInflight(const PredictionKey& key, std::vector<PageId> pages);

  // Drops `key`'s registration without publishing — the window was shed
  // (e.g. the ladder degraded below full-neural before the flush ran).
  void AbortInflight(const PredictionKey& key);

  // In-flight fingerprints registered but not yet published/aborted.
  size_t inflight() const { return inflight_.size(); }

  // Cached entries in LRU -> MRU order, so re-inserting them in order
  // reproduces the recency order exactly. Checkpointing serializes this
  // into the manifest for warm restarts (core/checkpoint.h).
  std::vector<std::pair<PredictionKey, std::vector<PageId>>> SnapshotEntries()
      const;

  void Clear();

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  const PredictionCacheStats& stats() const { return stats_; }

 private:
  using EntryList = std::list<std::pair<PredictionKey, std::vector<PageId>>>;

  size_t capacity_;
  EntryList entries_;  // front = most recently used
  std::unordered_map<PredictionKey, EntryList::iterator, PredictionKeyHash>
      index_;
  // key -> follower count (requests that joined after the leader).
  std::unordered_map<PredictionKey, size_t, PredictionKeyHash> inflight_;
  PredictionCacheStats stats_;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_PREDICTION_CACHE_H_
