#include "core/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "core/system.h"
#include "util/bytes.h"
#include "util/metrics_registry.h"
#include "util/trace.h"

namespace pythia {

namespace {

constexpr uint32_t kManifestMagic = 0x5059434b;  // "PYCK"
// Bumped whenever the payload layout changes: a manifest of another version
// fails with FailedPrecondition, and recovery skips it intact.
constexpr uint32_t kManifestVersion = 2;

// Prediction-cache entries captured into a manifest (the most recently used
// win).
constexpr size_t kMaxCacheEntries = 256;

// --- Payload serialization ------------------------------------------------
// The byte codec (util/bytes.h) shared with the model payload in
// core/predictor.cc: fixed host-order PODs, u64-length-prefixed strings,
// every read bounds-checked and every count checked against the bytes that
// remain, so a truncated or lying buffer parses to an error, never past-end
// and never into a huge allocation.

void AppendIdentity(ByteWriter* out, const FileIdentity& id) {
  out->Pod(static_cast<uint8_t>(id.present ? 1 : 0));
  out->Pod(id.size);
  out->Pod(id.crc);
}

bool ParseIdentity(ByteReader* p, FileIdentity* id) {
  uint8_t present = 0;
  if (!p->Pod(&present)) return false;
  id->present = present != 0;
  return p->Pod(&id->size) && p->Pod(&id->crc);
}

void AppendWatchdog(ByteWriter* out, const WatchdogCheckpointState& w) {
  out->Pod(w.health);
  out->Pod(static_cast<uint64_t>(w.window.size()));
  for (double r : w.window) out->Pod(r);
  out->Pod(w.probation_remaining);
  out->Pod(w.probe_successes);
  out->Pod(w.post_swap_remaining);
  out->Pod(static_cast<uint8_t>(w.post_swap_demoted ? 1 : 0));
  out->Pod(w.stats.demotions);
  out->Pod(w.stats.probes);
  out->Pod(w.stats.reinstatements);
  out->Pod(w.stats.degraded_queries);
  out->Pod(w.stats.sessions_judged);
}

bool ParseWatchdog(ByteReader* p, WatchdogCheckpointState* w) {
  uint64_t n = 0;
  if (!p->Pod(&w->health) || !p->Count(&n, sizeof(double))) return false;
  w->window.resize(n);
  for (double& r : w->window) {
    if (!p->Pod(&r)) return false;
  }
  uint8_t demoted = 0;
  if (!p->Pod(&w->probation_remaining) || !p->Pod(&w->probe_successes) ||
      !p->Pod(&w->post_swap_remaining) || !p->Pod(&demoted)) {
    return false;
  }
  w->post_swap_demoted = demoted != 0;
  return p->Pod(&w->stats.demotions) && p->Pod(&w->stats.probes) &&
         p->Pod(&w->stats.reinstatements) &&
         p->Pod(&w->stats.degraded_queries) &&
         p->Pod(&w->stats.sessions_judged);
}

std::string SerializeManifest(const CheckpointManifest& m) {
  ByteWriter out;
  out.Pod(m.generation);
  out.Pod(static_cast<uint8_t>(m.has_governor ? 1 : 0));
  out.Pod(m.governor_rung);
  out.Pod(static_cast<uint64_t>(m.workloads.size()));
  for (const CheckpointWorkloadState& w : m.workloads) {
    out.Pod(w.revision);
    out.Pod(w.fingerprint);
    out.String<uint64_t>(w.model_path);
    AppendIdentity(&out, w.primary);
    AppendWatchdog(&out, w.watchdog);
    out.Pod(static_cast<uint8_t>(w.has_adaptation ? 1 : 0));
    out.Pod(w.adaptation.phase);
    out.Pod(w.adaptation.cooldown_remaining);
    out.Pod(w.adaptation.rounds);
  }
  out.Pod(static_cast<uint64_t>(m.cache.size()));
  for (const CheckpointCacheEntry& e : m.cache) {
    out.Pod(e.model_id);
    out.Pod(e.revision);
    out.String<uint64_t>(e.plan);
    out.Pod(static_cast<uint64_t>(e.pages.size()));
    for (const PageId& page : e.pages) out.Pod(page.Pack());
  }
  return out.bytes();
}

bool ParseManifestPayload(const std::string& payload, CheckpointManifest* m) {
  ByteReader p(payload);
  uint8_t flag = 0;
  uint64_t workloads = 0;
  // Every workload record starts with its u64 revision, every cache entry
  // with its u64 model id.
  if (!p.Pod(&m->generation) || !p.Pod(&flag) || !p.Pod(&m->governor_rung) ||
      !p.Count(&workloads, sizeof(uint64_t))) {
    return false;
  }
  m->has_governor = flag != 0;
  m->workloads.resize(workloads);
  for (CheckpointWorkloadState& w : m->workloads) {
    if (!p.Pod(&w.revision) || !p.Pod(&w.fingerprint) ||
        !p.String<uint64_t>(&w.model_path) || !ParseIdentity(&p, &w.primary) ||
        !ParseWatchdog(&p, &w.watchdog) || !p.Pod(&flag)) {
      return false;
    }
    w.has_adaptation = flag != 0;
    if (!p.Pod(&w.adaptation.phase) ||
        !p.Pod(&w.adaptation.cooldown_remaining) ||
        !p.Pod(&w.adaptation.rounds)) {
      return false;
    }
  }
  uint64_t entries = 0;
  if (!p.Count(&entries, sizeof(uint64_t))) return false;
  m->cache.resize(entries);
  for (CheckpointCacheEntry& e : m->cache) {
    uint64_t pages = 0;
    if (!p.Pod(&e.model_id) || !p.Pod(&e.revision) ||
        !p.String<uint64_t>(&e.plan) || !p.Count(&pages, sizeof(uint64_t))) {
      return false;
    }
    e.pages.resize(pages);
    for (PageId& page : e.pages) {
      uint64_t packed = 0;
      if (!p.Pod(&packed)) return false;
      page = PageId::Unpack(packed);
    }
  }
  // Trailing garbage means the file is not what SaveManifest wrote.
  return p.done();
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir,
                                     const CheckpointOptions& options)
    : dir_(std::move(dir)), options_(options) {
  for (uint64_t gen : ScanGenerations(dir_)) {
    if (gen > latest_generation_) latest_generation_ = gen;
  }
}

std::string CheckpointManager::ManifestPath(const std::string& dir,
                                            uint64_t generation) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "manifest-%llu.pyck",
                static_cast<unsigned long long>(generation));
  return dir + "/" + buf;
}

bool CheckpointManager::ParseManifestName(const std::string& name,
                                          uint64_t* generation) {
  constexpr const char* kPrefix = "manifest-";
  constexpr const char* kSuffix = ".pyck";
  if (name.size() <= std::strlen(kPrefix) + std::strlen(kSuffix)) return false;
  if (name.rfind(kPrefix, 0) != 0) return false;
  const size_t digits_end = name.size() - std::strlen(kSuffix);
  if (name.compare(digits_end, std::string::npos, kSuffix) != 0) return false;
  uint64_t gen = 0;
  for (size_t i = std::strlen(kPrefix); i < digits_end; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    gen = gen * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *generation = gen;
  return true;
}

std::vector<uint64_t> CheckpointManager::ScanGenerations(
    const std::string& dir) {
  std::vector<uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t gen = 0;
    if (ParseManifestName(entry.path().filename().string(), &gen)) {
      gens.push_back(gen);
    }
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

Status CheckpointManager::SaveManifest(const CheckpointManifest& manifest,
                                       const std::string& path) {
  AtomicWriteSites sites;
  sites.mid_payload = kCrashMidManifest;
  return WriteFramedFile(path, kManifestMagic, kManifestVersion,
                         SerializeManifest(manifest), sites)
      .status();
}

Result<CheckpointManifest> CheckpointManager::LoadManifest(
    const std::string& path) {
  Result<std::string> payload =
      ReadFramedFile(path, kManifestMagic, kManifestVersion);
  if (!payload.ok()) return payload.status();
  CheckpointManifest manifest;
  if (!ParseManifestPayload(payload.value(), &manifest)) {
    return Status::DataCorruption("unparseable manifest payload: " + path);
  }
  return manifest;
}

Status CheckpointManager::Checkpoint(
    PythiaSystem& system, const std::vector<std::string>& model_paths) {
  if (model_paths.size() != system.num_workloads()) {
    return Status::InvalidArgument("model_paths count != registered workloads");
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  CheckpointManifest manifest;
  manifest.generation = latest_generation_ + 1;
  if (system.governor() != nullptr) {
    manifest.has_governor = true;
    manifest.governor_rung = static_cast<uint32_t>(system.governor()->rung());
  }

  for (size_t i = 0; i < system.num_workloads(); ++i) {
    CheckpointWorkloadState w;
    w.revision = system.model(i).revision();
    w.fingerprint = system.model(i).fingerprint();
    w.model_path = model_paths[i];
    Result<FileIdentity> primary = PublishModel(system.model(i), w.model_path);
    if (!primary.ok()) {
      reg.counter("recovery.checkpoint_failures").Increment();
      return primary.status();
    }
    w.primary = primary.value();
    w.watchdog = system.watchdog(i).CheckpointState();
    if (system.adaptation() != nullptr) {
      w.has_adaptation = true;
      w.adaptation = system.adaptation()->CheckpointSummary(i);
    }
    manifest.workloads.push_back(std::move(w));
  }

  auto entries = system.prediction_cache().SnapshotEntries();  // LRU -> MRU
  const size_t keep = std::min(entries.size(), kMaxCacheEntries);
  for (size_t i = entries.size() - keep; i < entries.size(); ++i) {
    CheckpointCacheEntry e;
    e.model_id = entries[i].first.model_id;
    e.revision = entries[i].first.revision;
    e.plan = std::move(entries[i].first.plan);
    e.pages = std::move(entries[i].second);
    manifest.cache.push_back(std::move(e));
  }

  const Status written =
      SaveManifest(manifest, ManifestPath(dir_, manifest.generation));
  if (!written.ok()) {
    reg.counter("recovery.checkpoint_failures").Increment();
    return written;
  }
  latest_generation_ = manifest.generation;
  reg.counter("recovery.checkpoints_written").Increment();
  PYTHIA_TRACE_INSTANT_CTX("recovery", "checkpoint", "generation",
                           manifest.generation);
  PruneOldGenerations();
  return Status::OK();
}

void CheckpointManager::PruneOldGenerations() {
  std::vector<uint64_t> gens = ScanGenerations(dir_);
  if (gens.size() <= options_.keep_generations) return;
  const size_t drop = gens.size() - options_.keep_generations;
  for (size_t i = 0; i < drop; ++i) {
    RemoveFileIfExists(ManifestPath(dir_, gens[i]));
  }
}

}  // namespace pythia
