#include "core/recovery.h"

#include <chrono>
#include <filesystem>

#include "core/system.h"
#include "util/metrics_registry.h"
#include "util/trace.h"

namespace pythia {

const char* RecoverySourceName(RecoverySource source) {
  switch (source) {
    case RecoverySource::kPrimary: return "primary";
    case RecoverySource::kLkg: return "lkg";
    case RecoverySource::kRetrained: return "retrained";
  }
  return "unknown";
}

uint64_t RecoveryManager::SweepTmpResidue(
    const std::vector<RecoverySpec>& specs) {
  uint64_t removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      if (RemoveFileIfExists(entry.path().string())) ++removed;
    }
  }
  for (const RecoverySpec& spec : specs) {
    if (RemoveFileIfExists(spec.model_path + ".tmp")) ++removed;
    if (RemoveFileIfExists(SidecarPath(spec.model_path) + ".tmp")) ++removed;
  }
  if (removed > 0) {
    MetricsRegistry::Global()
        .counter("recovery.tmp_files_removed")
        .Increment(removed);
  }
  return removed;
}

Result<CheckpointManifest> RecoveryManager::LoadNewestValidManifest(
    RecoveryReport* report) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  std::vector<uint64_t> gens = CheckpointManager::ScanGenerations(dir_);
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    const std::string path = CheckpointManager::ManifestPath(dir_, *it);
    Result<CheckpointManifest> manifest =
        CheckpointManager::LoadManifest(path);
    if (manifest.ok()) return manifest;
    // Torn or bit-rotted: quarantine for postmortems and fall back one
    // generation (the quarantined name no longer parses as a manifest, so
    // later scans skip it). A clean version mismatch, or an unreadable file,
    // is skipped without destroying it.
    if (manifest.status().code() == StatusCode::kDataCorruption &&
        QuarantineFile(path)) {
      reg.counter("recovery.quarantines").Increment();
      if (report != nullptr) ++report->manifests_quarantined;
    }
    reg.counter("recovery.generations_discarded").Increment();
    PYTHIA_TRACE_INSTANT_CTX("recovery", "manifest_discarded", "generation",
                             *it);
  }
  return Status::NotFound("no valid checkpoint manifest in " + dir_);
}

Result<RecoveryReport> RecoveryManager::Recover(
    PythiaSystem* system, const std::vector<RecoverySpec>& specs) {
  const auto start = std::chrono::steady_clock::now();
  MetricsRegistry& reg = MetricsRegistry::Global();
  RecoveryReport report;
  report.tmp_files_removed = SweepTmpResidue(specs);

  CheckpointManifest manifest;
  Result<CheckpointManifest> loaded = LoadNewestValidManifest(&report);
  if (loaded.ok()) {
    manifest = std::move(loaded.value());
    report.manifest_loaded = true;
    report.manifest_generation = manifest.generation;
  }

  for (size_t i = 0; i < specs.size(); ++i) {
    const RecoverySpec& spec = specs[i];
    const uint64_t want = WorkloadModel::Fingerprint(
        spec.options, *spec.workload, spec.db->TotalPages());
    const CheckpointWorkloadState* rec =
        (report.manifest_loaded && i < manifest.workloads.size())
            ? &manifest.workloads[i]
            : nullptr;
    RecoveredWorkload out;
    // No manifest, a newer survivor of a crash mid-publish, or a retrain
    // serves past the manifest revision, so no checkpointed state can be
    // misattributed to it.
    out.revision = rec != nullptr ? rec->revision + 1 : 0;

    Result<StoredModel> stored = LoadStoredModel(spec.model_path, want);
    Result<WorkloadModel> model = stored.status();
    if (stored.ok()) {
      out.source = stored->from_sidecar ? RecoverySource::kLkg
                                        : RecoverySource::kPrimary;
      reg.counter(stored->from_sidecar ? "recovery.models_from_lkg"
                                       : "recovery.models_from_primary")
          .Increment();
      // Adopting the manifest revision (and with it the warm cache and the
      // checkpointed watchdog conclusions) requires the bytes served to be
      // the ones the manifest recorded for the primary.
      if (rec != nullptr && stored->identity == rec->primary) {
        out.manifest_match = true;
        out.revision = rec->revision;
      }
      model = std::move(stored->model);
    } else {
      out.source = RecoverySource::kRetrained;
      reg.counter("recovery.models_retrained").Increment();
      PYTHIA_TRACE_INSTANT_CTX("recovery", "retrain", "workload",
                               static_cast<uint64_t>(i));
      model = WorkloadModel::Train(*spec.db, *spec.workload, spec.options);
      if (!model.ok()) return model.status();
      model->set_fingerprint(want);
      const Status published = PublishModel(*model, spec.model_path).status();
      if (published.code() == StatusCode::kAborted) return published;
    }

    model->BumpRevisionTo(out.revision);
    system->AddWorkload(*spec.workload, std::move(model.value()));
    if (out.manifest_match) {
      system->watchdog(i).RestoreCheckpointState(rec->watchdog);
      out.watchdog_restored = true;
      if (rec->has_adaptation && system->adaptation() != nullptr) {
        system->adaptation()->RestoreCheckpointSummary(i, rec->adaptation);
      }
    }
    PYTHIA_TRACE_INSTANT_CTX("recovery", "workload_recovered", "revision",
                             out.revision);
    report.workloads.push_back(out);
  }

  if (report.manifest_loaded && manifest.has_governor &&
      system->governor() != nullptr) {
    system->governor()->RestoreRung(
        static_cast<DegradationRung>(manifest.governor_rung));
  }

  // Warm prediction cache: only entries whose (model_id, revision) names a
  // workload that recovered at exactly the checkpointed revision. Manifest
  // order is LRU -> MRU, so in-order Insert reproduces recency.
  for (const CheckpointCacheEntry& e : manifest.cache) {
    const bool eligible = e.model_id < report.workloads.size() &&
                          report.workloads[e.model_id].manifest_match &&
                          report.workloads[e.model_id].revision == e.revision;
    if (eligible) {
      system->prediction_cache().Insert(
          PredictionKey{e.model_id, e.revision, e.plan}, e.pages);
      ++report.cache_restored;
    } else {
      ++report.cache_rejected;
    }
  }
  if (report.cache_restored > 0) {
    reg.counter("recovery.warm_cache_restores").Increment(report.cache_restored);
  }
  if (report.cache_rejected > 0) {
    reg.counter("recovery.warm_cache_rejected").Increment(report.cache_rejected);
  }

  report.wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  PYTHIA_TRACE_INSTANT_CTX("recovery", "recovered", "generation",
                           report.manifest_generation, "workloads",
                           static_cast<uint64_t>(report.workloads.size()));
  return report;
}

}  // namespace pythia
