// Durable-write gateway: one code path for every host-filesystem artifact
// the system publishes (model .pywm files, .lkg sidecars, checkpoint
// manifests) — the atomic publish, the CRC frame those files share and the
// quarantine of a file that fails verification — with deterministic
// crash-point injection and seeded torn-write/rename fault modeling.
//
// These files live on the *host* filesystem, not the simulated device
// (sim_disk.h). WriteFileAtomic is their one publish discipline, and it
// reports the identity of what reached disk so no writer reads a file back:
//
//   serialize -> write <path>.tmp -> fflush+fsync -> rename(tmp, path)
//
// Two chaos hooks are threaded through it:
//
//  - CrashPointRegistry: a seeded, named-site kill switch modeled on the
//    FaultInjector. Arming a site makes the Nth arrival at that site return
//    "the process died here": the write unwinds immediately, leaving the
//    disk exactly as a SIGKILL would (nothing, a torn .tmp, or a complete
//    but unpublished .tmp — never a half-written published file). The
//    canonical sites below cover every window of the checkpoint path, so a
//    sweep can provably exercise each one. A triggered crash propagates as
//    Status::Aborted; the harness treats that as process death, discards
//    the in-memory system and runs recovery against the residue.
//  - FaultInjector::OnDurableWrite (when an injector is registered): the
//    device lies — the payload is silently truncated mid-write but the
//    publish completes, or the rename itself fails. Drawn from a dedicated
//    seeded stream so enabling durable faults never perturbs the
//    page-read fault sequences.
//
// Thread-safety: model saves run from ThreadPool lanes (adaptation trains
// in the background), so the registry is mutex-guarded throughout.
#ifndef PYTHIA_STORAGE_DURABLE_H_
#define PYTHIA_STORAGE_DURABLE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "storage/fault_injector.h"
#include "util/rng.h"
#include "util/status.h"

namespace pythia {

// Canonical crash sites on the checkpoint durable-write path, in the order
// a CheckpointManager::Checkpoint visits them. Each names one distinct
// window a real kill could land in:
//   pre_tmp_write             before the model .tmp is opened (no residue)
//   mid_payload               half the model .tmp written (torn .tmp)
//   pre_rename                model .tmp complete but not published
//   post_rename_pre_sidecar   primary published, .lkg sidecar not yet written
//   mid_manifest              manifest .tmp torn mid-payload
inline constexpr const char* kCrashPreTmpWrite = "pre_tmp_write";
inline constexpr const char* kCrashMidPayload = "mid_payload";
inline constexpr const char* kCrashPreRename = "pre_rename";
inline constexpr const char* kCrashPostRenamePreSidecar =
    "post_rename_pre_sidecar";
inline constexpr const char* kCrashMidManifest = "mid_manifest";

// All five, for sweeps that must visit every window.
std::vector<const char*> AllCrashSites();

// Seeded, named-site crash injection for the durable-write path. Default
// state is fully inert: Check() is consulted inline by WriteFileAtomic and
// the checkpoint path, and returns false until a test or bench arms a site.
// Once a site fires the registry latches `crashed` — the logical process is
// dead, and every later Check also reports a crash so no further durable
// work can slip out after the kill point. Reset() revives it.
class CrashPointRegistry {
 public:
  // Deterministic arm: the `at_hit`-th consult of `site` (1-based) crashes.
  void Arm(const std::string& site, uint64_t at_hit = 1);
  // Probabilistic arm: every consult of every site draws from a Pcg32
  // seeded here (dedicated stream; call-order consumed, so same seed and
  // same consult sequence crash at the identical site).
  void ArmRandom(uint64_t seed, double crash_prob);
  void Disarm();
  // Disarm + clear hit counters + clear the crashed latch.
  void Reset();

  // Consult from a durable-write window. Counts the hit; true means the
  // simulated process dies at this instruction.
  bool Check(const std::string& site);

  bool crashed() const;
  // Site that fired, empty when none has.
  std::string crash_site() const;
  // Times `site` has been consulted since the last Reset (armed or not) —
  // the sweep's proof that a window was actually exercised.
  uint64_t hits(const std::string& site) const;

  // Optional durable-fault injector consulted by WriteFileAtomic (torn
  // payloads, rename failures). Not owned; nullptr detaches.
  void set_fault_injector(FaultInjector* injector);
  FaultInjector* fault_injector() const;

  // Process-wide instance. WorkloadModel::Save and the checkpoint path have
  // no injection parameter — like the tracer, chaos tooling attaches here.
  static CrashPointRegistry& Global();

 private:
  mutable std::mutex mu_;
  bool armed_ = false;
  std::string armed_site_;
  uint64_t arm_at_hit_ = 1;
  bool random_mode_ = false;
  double crash_prob_ = 0.0;
  Pcg32 rng_{0, 0};
  bool crashed_ = false;
  std::string crash_site_;
  std::map<std::string, uint64_t> hits_;
  FaultInjector* injector_ = nullptr;
};

// Size + CRC-32 identity of a file's bytes; `present == false` (zeroed size
// and crc) for a missing file. Checkpoint manifests record it, and recovery
// compares it to tell the checkpointed model from a valid newer one.
struct FileIdentity {
  bool present = false;
  uint64_t size = 0;
  uint32_t crc = 0;

  // The identity `bytes` have once they sit on disk.
  static FileIdentity Of(std::string_view bytes);

  friend bool operator==(const FileIdentity& a, const FileIdentity& b) {
    return a.present == b.present && a.size == b.size && a.crc == b.crc;
  }
};

// Names for the three crash windows inside one WriteFileAtomic call.
// Leaving a field nullptr skips that consult (e.g. .lkg sidecar writes are
// not separately named windows — the post_rename_pre_sidecar site already
// brackets them).
struct AtomicWriteSites {
  const char* pre_tmp = nullptr;
  const char* mid_payload = nullptr;
  const char* pre_rename = nullptr;
};

// Atomically publishes `len` bytes at `path` via <path>.tmp + rename,
// consulting the global CrashPointRegistry at each named window and the
// registered FaultInjector for silent torn writes / rename failures.
// Returns the identity of what reached disk: all `len` bytes, or under an
// injected torn write the prefix the device kept. Aborted when a crash site
// fired (disk left as the kill would leave it), IoError on real or injected
// write/rename failure.
Result<FileIdentity> WriteFileAtomic(
    const std::string& path, const void* data, size_t len,
    const AtomicWriteSites& sites = AtomicWriteSites());

// The frame every durable file shares (.pywm model files and their .lkg
// copies, .pyck checkpoint manifests), in host byte order:
//
//   [magic u32][version u32][payload size u64][payload CRC-32 u32][payload]
//
// WriteFramedFile stamps the header and publishes through WriteFileAtomic,
// returning its identity; `file`, when given, receives the bytes that
// reached disk.
Result<FileIdentity> WriteFramedFile(
    const std::string& path, uint32_t magic, uint32_t version,
    const std::string& payload,
    const AtomicWriteSites& sites = AtomicWriteSites(),
    std::string* file = nullptr);

// Reads and verifies a frame, returning its payload; `file`, when given,
// receives the whole verified file. NotFound when the file is missing
// (IoError when it cannot be read); FailedPrecondition when the magic
// matches and the version field reads but names another version (a stale
// file, not a damaged one); DataCorruption for every other defect: bad
// magic, a header cut short, a size field the file does not back
// (truncation or trailing bytes) or a CRC mismatch. Whether to quarantine
// is the caller's decision.
Result<std::string> ReadFramedFile(const std::string& path, uint32_t magic,
                                   uint32_t version,
                                   std::string* file = nullptr);

// Moves a file that failed verification to <path>.corrupt (replacing an
// older quarantined copy) so no later scan or cache lookup trips on it
// again, and keeps it for postmortems. Warns on stderr; true when renamed.
bool QuarantineFile(const std::string& path);

// Whole-file read; NotFound when missing.
Result<std::string> ReadFileBytes(const std::string& path);

// Identity of the file at `path` as it sits on disk (read back in full).
FileIdentity FileIdentityOf(const std::string& path);

// Removes `path` if it exists; true when a file was actually removed.
// Recovery sweeps stray .tmp residue with this (counting what it removed).
bool RemoveFileIfExists(const std::string& path);

}  // namespace pythia

#endif  // PYTHIA_STORAGE_DURABLE_H_
