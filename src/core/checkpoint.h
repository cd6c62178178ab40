// Crash-consistent checkpointing of a running PythiaSystem.
//
// The model store (core/predictor.h) keeps each model's files durable; the
// *system* state around them — which revision each workload serves, what
// the watchdog concluded about its health, the governor's degradation rung
// and the memoized plans worth keeping warm — would otherwise die with the
// process, and a restart would come back with healthy-by-default
// watchdogs, a cold plan cache and revisions restarting at zero.
//
// The checkpoint manifest keeps that state. It is one versioned file
// (format version 2) in the CRC frame every model file also uses
// (storage/durable.h: WriteFramedFile publishes it through the one atomic
// gateway — serialize to memory, .tmp, fsync, rename — and ReadFramedFile
// verifies it), with its payload written and parsed by the bounds-checked
// byte codec (util/bytes.h). It holds, per generation:
//
//  - per workload: the served model revision, its training fingerprint, the
//    model cache path and the byte identity (size + CRC) of the primary as
//    the publish wrote it — recovery compares the identity of the bytes it
//    serves against this record to decide whether they are the checkpointed
//    ones or newer survivors of a crash mid-publish. The .lkg sidecar needs
//    no record: it is a byte copy of the primary;
//  - the watchdog state machine per workload (health, ratio window,
//    probation counters) so a demoted model does not come back healthy;
//  - the adaptation state-machine summary per workload (phase, cooldown
//    and round counters — not the raw trace window, which re-accrues);
//  - the governor's degradation rung;
//  - a snapshot of the prediction cache's 256 most recently used entries,
//    revalidated against model revisions at restore time.
//
// Generations are monotonic: manifest-<gen>.pyck, the highest valid
// generation wins, older ones are pruned to `keep_generations`. A crash at
// any point (five named CrashPointRegistry sites cover the whole write
// path) leaves either generation N-1 intact or generation N fully
// committed — never a readable half-manifest, because the CRC frame turns a
// torn manifest into a quarantine at load.
//
// Recovery — the read side — lives in core/recovery.h.
#ifndef PYTHIA_CORE_CHECKPOINT_H_
#define PYTHIA_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/adaptation.h"
#include "core/watchdog.h"
#include "storage/durable.h"
#include "storage/page_id.h"
#include "util/status.h"

namespace pythia {

class PythiaSystem;

struct CheckpointOptions {
  // Valid manifest generations kept on disk after a successful commit; the
  // newest is the recovery primary, older ones are fallbacks for a torn or
  // bit-rotted newest.
  size_t keep_generations = 2;
};

// Per-workload record in the manifest.
struct CheckpointWorkloadState {
  uint64_t revision = 0;     // served revision at checkpoint time
  uint64_t fingerprint = 0;  // WorkloadModel::Fingerprint of the config
  std::string model_path;    // primary .pywm path; .lkg sidecar implied
  FileIdentity primary;      // identity of model_path when manifested
  WatchdogCheckpointState watchdog;
  bool has_adaptation = false;
  AdaptationCheckpointSummary adaptation;
};

// One memoized prediction, keyed exactly like core/prediction_cache.h.
struct CheckpointCacheEntry {
  uint64_t model_id = 0;
  uint64_t revision = 0;
  std::string plan;
  std::vector<PageId> pages;
};

struct CheckpointManifest {
  uint64_t generation = 0;
  bool has_governor = false;
  uint32_t governor_rung = 0;  // DegradationRung
  std::vector<CheckpointWorkloadState> workloads;
  // LRU -> MRU order, so re-inserting in order reproduces recency.
  std::vector<CheckpointCacheEntry> cache;
};

class CheckpointManager {
 public:
  // `dir` must exist. The constructor scans it for existing manifests so
  // generation numbers continue monotonically across process restarts.
  CheckpointManager(std::string dir, const CheckpointOptions& options);

  // Captures `system` into generation latest_generation()+1. model_paths[i]
  // is workload i's primary cache path; the live model is published there
  // with its .lkg sidecar first (PublishModel, core/predictor.h: crash sites
  // pre_tmp_write / mid_payload / pre_rename fire inside the save,
  // post_rename_pre_sidecar between the publish and the sidecar write), and
  // the primary identity the publish returns goes into the manifest
  // (mid_manifest fires inside its write). Any Aborted status propagates
  // untouched — the simulated process is dead and must not "recover" in
  // the same call.
  Status Checkpoint(PythiaSystem& system,
                    const std::vector<std::string>& model_paths);

  // Highest generation committed (by this manager or found on disk at
  // construction); 0 when none.
  uint64_t latest_generation() const { return latest_generation_; }

  // --- Manifest file format (shared with core/recovery.h) ----------------

  static std::string ManifestPath(const std::string& dir, uint64_t generation);
  // Parses "manifest-<gen>.pyck"; false when `name` is not a manifest name.
  static bool ParseManifestName(const std::string& name, uint64_t* generation);
  // Serializes + durably publishes `manifest` at `path`. The manifest's own
  // atomic write exposes kCrashMidManifest as its mid-payload site.
  static Status SaveManifest(const CheckpointManifest& manifest,
                             const std::string& path);
  // Loads and verifies. DataCorruption on a torn/bit-flipped/unparseable
  // file (caller decides whether to quarantine), FailedPrecondition on a
  // clean format-version mismatch (a version-1 manifest, for one).
  static Result<CheckpointManifest> LoadManifest(const std::string& path);

  // Generations present in `dir`, ascending. Non-manifest files ignored.
  static std::vector<uint64_t> ScanGenerations(const std::string& dir);

 private:
  // Removes committed generations older than the newest keep_generations.
  void PruneOldGenerations();

  std::string dir_;
  CheckpointOptions options_;
  uint64_t latest_generation_ = 0;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_CHECKPOINT_H_
