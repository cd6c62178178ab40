// Warm-restart recovery: the read side of core/checkpoint.h.
//
// A restarting process must decide, per workload, which model weights to
// serve and at which revision — without ever serving a torn artifact and
// without ever letting a stale memoized prediction leak across the restart.
// RecoveryManager encodes that as a fixed decision tree, walked per
// workload against the newest valid manifest. Which file serves is the
// model store's walk (LoadStoredModel, core/predictor.h); Recover adds the
// revision and the restored state:
//
//   1. the store serves the primary .pywm (clean, fingerprint-matching) or,
//      failing that, the .lkg sidecar. The identity (size + CRC) of the
//      bytes served is compared with the manifest's *primary* record — a
//      sidecar is a byte copy of the primary it mirrored:
//        a. equal -> exactly the checkpointed model: adopt the manifest
//           revision, restore the watchdog state machine, warm-cache
//           eligible;
//        b. different (a newer primary was published after the manifest
//           committed — the post_rename_pre_sidecar crash window) -> serve
//           the valid, newer weights at manifest revision + 1 with no warm
//           cache and a fresh watchdog: checkpointed conclusions describe
//           a different model.
//   2. neither serves -> transparent retrain from the workload spec, served
//      at manifest revision + 1 (never a revision the cache has memoized
//      plans under), published with a fresh sidecar by PublishModel.
//
// Manifests themselves recover the same way the model cache does: the
// newest generation that passes its CRC frame wins; a torn one is
// quarantined to .corrupt and the scan falls back one generation. Stray
// .tmp residue from a mid-write kill is swept (and counted) first.
//
// The prediction cache restores only entries whose (model_id, revision)
// matches a workload that recovered warm-cache-eligible at that exact
// revision — the "never mix revisions" rule the live cache enforces,
// applied across the restart boundary. Governor rung and adaptation
// summaries restore when those subsystems are enabled on the rebuilt
// system (enable them before calling Recover).
//
// Everything is counted under "recovery.*" (util/metrics_registry.h) and
// traced under the "recovery" category, so a bench sweep can prove which
// branch each crash site forced.
#ifndef PYTHIA_CORE_RECOVERY_H_
#define PYTHIA_CORE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/predictor.h"
#include "util/status.h"
#include "workload/generator.h"

namespace pythia {

class PythiaSystem;

// Everything needed to rebuild one workload's model from nothing: the
// retrain fallback (branch 2) is a full WorkloadModel::Train against this
// spec. Pointers are not owned and must outlive the Recover call.
struct RecoverySpec {
  const Workload* workload = nullptr;
  const Database* db = nullptr;
  PredictorOptions options;
  std::string model_path;  // primary .pywm path; .lkg sidecar implied
};

enum class RecoverySource {
  kPrimary,    // served from the primary .pywm
  kLkg,        // primary dead, healed from the .lkg sidecar
  kRetrained,  // both dead, transparently retrained
};

const char* RecoverySourceName(RecoverySource source);

// Per-workload outcome of the decision tree.
struct RecoveredWorkload {
  RecoverySource source = RecoverySource::kRetrained;
  uint64_t revision = 0;       // revision the model now serves at
  bool manifest_match = false; // identity matched the manifest record (1a)
  bool watchdog_restored = false;
};

struct RecoveryReport {
  bool manifest_loaded = false;
  uint64_t manifest_generation = 0;  // 0 when no valid manifest survived
  uint64_t manifests_quarantined = 0;
  uint64_t tmp_files_removed = 0;
  std::vector<RecoveredWorkload> workloads;
  uint64_t cache_restored = 0;
  uint64_t cache_rejected = 0;
  uint64_t wall_us = 0;  // host wall clock, reporting only (nondeterministic)
};

class RecoveryManager {
 public:
  // `dir` is the checkpoint directory CheckpointManager writes manifests to.
  explicit RecoveryManager(std::string dir) : dir_(std::move(dir)) {}

  // Rebuilds `system` (freshly constructed, no workloads registered yet)
  // from the on-disk state: sweeps .tmp residue, loads the newest valid
  // manifest (quarantining torn ones), walks the decision tree per spec,
  // registers each recovered model via AddWorkload, then restores watchdog
  // state, governor rung, adaptation summaries and the revision-filtered
  // warm prediction cache. Enable the governor/adaptation on `system`
  // before calling if their checkpointed state should be adopted.
  Result<RecoveryReport> Recover(PythiaSystem* system,
                                 const std::vector<RecoverySpec>& specs);

  // Newest manifest that passes validation, quarantining (renaming to
  // .corrupt) every newer generation that does not. Exposed for tests;
  // counts into *report when given.
  Result<CheckpointManifest> LoadNewestValidManifest(RecoveryReport* report);

 private:
  // Removes "*.tmp" residue in dir_ and next to each spec's model path.
  uint64_t SweepTmpResidue(const std::vector<RecoverySpec>& specs);

  std::string dir_;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_RECOVERY_H_
