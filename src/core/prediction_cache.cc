#include "core/prediction_cache.h"

namespace pythia {

std::string PredictionCache::PlanKey(
    const std::vector<std::string>& tokens) {
  size_t total = tokens.size();  // separators (one per token, incl. trailing)
  for (const std::string& t : tokens) total += t.size();
  std::string key;
  key.reserve(total);
  for (const std::string& t : tokens) {
    key += t;
    key += '\x1f';
  }
  return key;
}

bool PredictionCache::Lookup(const PredictionKey& key,
                             std::vector<PageId>* pages) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  entries_.splice(entries_.begin(), entries_, it->second);
  *pages = entries_.front().second;
  return true;
}

void PredictionCache::Insert(const PredictionKey& key,
                             std::vector<PageId> pages) {
  if (capacity_ == 0) return;
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(pages);
    entries_.splice(entries_.begin(), entries_, it->second);
    return;
  }
  if (entries_.size() >= capacity_) {
    index_.erase(entries_.back().first);
    entries_.pop_back();
    ++stats_.evictions;
  }
  entries_.emplace_front(key, std::move(pages));
  index_[key] = entries_.begin();
}

bool PredictionCache::BeginInflight(const PredictionKey& key) {
  auto [it, inserted] = inflight_.try_emplace(key, 0);
  if (inserted) return true;  // leader
  ++it->second;
  ++stats_.dedup_joins;
  return false;
}

size_t PredictionCache::PublishInflight(const PredictionKey& key,
                                        std::vector<PageId> pages) {
  auto it = inflight_.find(key);
  if (it == inflight_.end()) return 0;
  const size_t followers = it->second;
  inflight_.erase(it);
  Insert(key, std::move(pages));
  stats_.fanouts += followers;
  return followers;
}

void PredictionCache::AbortInflight(const PredictionKey& key) {
  if (inflight_.erase(key) > 0) ++stats_.inflight_aborts;
}

std::vector<std::pair<PredictionKey, std::vector<PageId>>>
PredictionCache::SnapshotEntries() const {
  std::vector<std::pair<PredictionKey, std::vector<PageId>>> out;
  out.reserve(entries_.size());
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    out.push_back(*it);
  }
  return out;
}

void PredictionCache::Clear() {
  entries_.clear();
  index_.clear();
  inflight_.clear();
}

}  // namespace pythia
