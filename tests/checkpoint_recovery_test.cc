// Crash-consistent checkpointing and warm-restart recovery tests:
// CrashPointRegistry semantics (deterministic arming, the dead-process
// latch), the residue each crash window leaves behind a WriteFileAtomic,
// torn-durable-write injection, manifest framing/round-trip/quarantine,
// generation monotonicity + pruning, and the full recovery decision tree
// (primary / lkg / retrain) including revision-filtered warm-cache restore,
// and a seeded mutation fuzz of the .pywm and .pyck parsers.
//
// Training is the expensive part, so one model is trained per suite, its
// fingerprint stamped, and cloned into fresh systems per test.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.h"
#include "core/recovery.h"
#include "core/system.h"
#include "storage/durable.h"
#include "storage/fault_injector.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/metrics_registry.h"
#include "util/rng.h"

namespace pythia {
namespace {

class CheckpointRecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = BuildDsbDatabase(DsbConfig{5, 42}).release();
    WorkloadOptions wopts;
    wopts.num_queries = 30;
    wopts.test_fraction = 0.2;
    Result<Workload> wl = GenerateWorkload(*db_, TemplateId::kDsb91, wopts);
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    wl_ = new Workload(std::move(*wl));
    Result<WorkloadModel> model = WorkloadModel::Train(*db_, *wl_, FastOptions());
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model.value().set_fingerprint(WorkloadModel::Fingerprint(
        FastOptions(), *wl_, db_->TotalPages()));
    model_ = new WorkloadModel(std::move(*model));
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete wl_;
    wl_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  void SetUp() override {
    CrashPointRegistry::Global().Reset();
    CrashPointRegistry::Global().set_fault_injector(nullptr);
  }
  void TearDown() override {
    CrashPointRegistry::Global().Reset();
    CrashPointRegistry::Global().set_fault_injector(nullptr);
  }

  static PredictorOptions FastOptions() {
    PredictorOptions options;
    options.epochs = 2;
    options.num_threads = 1;
    return options;
  }

  // Fresh per-test scratch directory (checkpoint manifests + model files).
  std::string NewDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/ckpt_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }

  static std::unique_ptr<PythiaSystem> MakeSystem() {
    auto system = std::make_unique<PythiaSystem>(nullptr);
    system->AddWorkload(*wl_, model_->Clone());
    return system;
  }

  static RecoverySpec SpecFor(const std::string& model_path) {
    RecoverySpec spec;
    spec.workload = wl_;
    spec.db = db_;
    spec.options = FastOptions();
    spec.model_path = model_path;
    return spec;
  }

  // Flips one payload byte in place — CRC framing must catch it on load.
  static void CorruptFile(const std::string& path, size_t offset) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
  }

  static std::vector<PageId> PredictAll(WorkloadModel& model) {
    std::vector<PageId> out;
    for (size_t ti : wl_->test_indices) {
      for (const PageId& p : model.Predict(wl_->queries[ti].tokens)) {
        out.push_back(p);
      }
      out.push_back(PageId{0xffffffff, 0xffffffff});  // query separator
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  static Database* db_;
  static Workload* wl_;
  static WorkloadModel* model_;
};

Database* CheckpointRecoveryTest::db_ = nullptr;
Workload* CheckpointRecoveryTest::wl_ = nullptr;
WorkloadModel* CheckpointRecoveryTest::model_ = nullptr;

// --- CrashPointRegistry ---------------------------------------------------

TEST_F(CheckpointRecoveryTest, RegistryArmsDeterministically) {
  CrashPointRegistry& reg = CrashPointRegistry::Global();
  reg.Arm(kCrashMidPayload, /*at_hit=*/2);
  EXPECT_FALSE(reg.Check(kCrashMidPayload));  // hit 1
  EXPECT_FALSE(reg.Check(kCrashPreRename));   // other sites never fire
  EXPECT_TRUE(reg.Check(kCrashMidPayload));   // hit 2: dies here
  EXPECT_TRUE(reg.crashed());
  EXPECT_EQ(reg.crash_site(), kCrashMidPayload);
  // Dead process stays dead: every later consult also reports the crash.
  EXPECT_TRUE(reg.Check(kCrashPreTmpWrite));
  EXPECT_EQ(reg.hits(kCrashMidPayload), 2u);
  reg.Reset();
  EXPECT_FALSE(reg.crashed());
  EXPECT_EQ(reg.hits(kCrashMidPayload), 0u);
  EXPECT_FALSE(reg.Check(kCrashMidPayload));
}

TEST_F(CheckpointRecoveryTest, RegistryRandomModeIsSeedDeterministic) {
  auto run = [](uint64_t seed) {
    CrashPointRegistry& reg = CrashPointRegistry::Global();
    reg.Reset();
    reg.ArmRandom(seed, 0.3);
    std::string site;
    for (int i = 0; i < 64 && site.empty(); ++i) {
      for (const char* s : AllCrashSites()) {
        if (reg.Check(s)) {
          site = reg.crash_site();
          break;
        }
      }
    }
    reg.Reset();
    return site;
  };
  const std::string a = run(7);
  const std::string b = run(7);
  const std::string c = run(8);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // A different seed is allowed to pick the same site but not required to;
  // what matters is same-seed equality above. Still, exercise the draw.
  (void)c;
}

TEST_F(CheckpointRecoveryTest, AtomicWriteResiduePerCrashSite) {
  const std::string dir = NewDir("residue");
  const std::string path = dir + "/artifact.bin";
  const std::string payload(4096, 'x');
  AtomicWriteSites sites;
  sites.pre_tmp = kCrashPreTmpWrite;
  sites.mid_payload = kCrashMidPayload;
  sites.pre_rename = kCrashPreRename;
  CrashPointRegistry& reg = CrashPointRegistry::Global();

  // pre_tmp_write: nothing on disk at all.
  reg.Reset();
  reg.Arm(kCrashPreTmpWrite);
  Status s =
      WriteFileAtomic(path, payload.data(), payload.size(), sites).status();
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // mid_payload: a torn .tmp, never the published path.
  reg.Reset();
  reg.Arm(kCrashMidPayload);
  s = WriteFileAtomic(path, payload.data(), payload.size(), sites).status();
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_FALSE(std::filesystem::exists(path));
  ASSERT_TRUE(std::filesystem::exists(path + ".tmp"));
  EXPECT_LT(std::filesystem::file_size(path + ".tmp"), payload.size());
  std::filesystem::remove(path + ".tmp");

  // pre_rename: a complete .tmp, still unpublished.
  reg.Reset();
  reg.Arm(kCrashPreRename);
  s = WriteFileAtomic(path, payload.data(), payload.size(), sites).status();
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_FALSE(std::filesystem::exists(path));
  ASSERT_TRUE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(std::filesystem::file_size(path + ".tmp"), payload.size());
  std::filesystem::remove(path + ".tmp");

  // Disarmed: published atomically, no residue.
  reg.Reset();
  ASSERT_TRUE(
      WriteFileAtomic(path, payload.data(), payload.size(), sites).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(std::filesystem::file_size(path), payload.size());
}

TEST_F(CheckpointRecoveryTest, InjectedTornDurableWriteTruncatesSilently) {
  const std::string dir = NewDir("torn");
  const std::string path = dir + "/artifact.bin";
  FaultConfig config;
  config.seed = 11;
  config.durable_torn_write_prob = 1.0;
  FaultInjector injector(config);
  CrashPointRegistry::Global().set_fault_injector(&injector);
  const std::string payload(4096, 'y');
  // The publish *succeeds* — the device lied. Only the byte count betrays it.
  ASSERT_TRUE(WriteFileAtomic(path, payload.data(), payload.size()).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_LT(std::filesystem::file_size(path), payload.size());
  EXPECT_GT(injector.stats().injected_durable_torn_writes, 0u);
}

TEST_F(CheckpointRecoveryTest, InjectedRenameFailureLeavesNoResidue) {
  const std::string dir = NewDir("renamefail");
  const std::string path = dir + "/artifact.bin";
  FaultConfig config;
  config.seed = 11;
  config.durable_rename_fail_prob = 1.0;
  FaultInjector injector(config);
  CrashPointRegistry::Global().set_fault_injector(&injector);
  const std::string payload(512, 'z');
  Status s = WriteFileAtomic(path, payload.data(), payload.size()).status();
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_GT(injector.stats().injected_rename_failures, 0u);
}

TEST_F(CheckpointRecoveryTest, TornModelSaveIsCaughtByCrcOnNextLoad) {
  const std::string dir = NewDir("torn_model");
  const std::string path = dir + "/wm.pywm";
  FaultConfig config;
  config.seed = 3;
  config.durable_torn_write_prob = 1.0;
  FaultInjector injector(config);
  CrashPointRegistry::Global().set_fault_injector(&injector);
  WorkloadModel model = model_->Clone();
  ASSERT_TRUE(model.Save(path).ok());  // publish "succeeded"
  CrashPointRegistry::Global().set_fault_injector(nullptr);
  Result<WorkloadModel> loaded = WorkloadModel::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataCorruption);
  // Load quarantined the torn file for postmortems.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
}

// --- Manifest format ------------------------------------------------------

CheckpointManifest SampleManifest() {
  CheckpointManifest m;
  m.generation = 7;
  m.has_governor = true;
  m.governor_rung = 2;
  CheckpointWorkloadState w;
  w.revision = 3;
  w.fingerprint = 0xabcdef;
  w.model_path = "/tmp/x.pywm";
  w.primary = {true, 1234, 0xdeadbeef};
  w.watchdog.health = 1;
  w.watchdog.window = {0.1, 0.9, 0.5};
  w.watchdog.probation_remaining = 4;
  w.watchdog.stats.demotions = 2;
  w.watchdog.stats.sessions_judged = 40;
  w.has_adaptation = true;
  w.adaptation.phase = 3;
  w.adaptation.cooldown_remaining = 9;
  w.adaptation.rounds = 2;
  m.workloads.push_back(w);
  CheckpointCacheEntry e;
  e.model_id = 0;
  e.revision = 3;
  e.plan = "plan\x1ftokens";
  e.pages = {PageId{1, 2}, PageId{3, 4}};
  m.cache.push_back(e);
  return m;
}

TEST_F(CheckpointRecoveryTest, ManifestRoundTrips) {
  const std::string dir = NewDir("manifest_rt");
  const std::string path = CheckpointManager::ManifestPath(dir, 7);
  const CheckpointManifest m = SampleManifest();
  ASSERT_TRUE(CheckpointManager::SaveManifest(m, path).ok());
  Result<CheckpointManifest> r = CheckpointManager::LoadManifest(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const CheckpointManifest& got = r.value();
  EXPECT_EQ(got.generation, 7u);
  EXPECT_TRUE(got.has_governor);
  EXPECT_EQ(got.governor_rung, 2u);
  ASSERT_EQ(got.workloads.size(), 1u);
  EXPECT_EQ(got.workloads[0].revision, 3u);
  EXPECT_EQ(got.workloads[0].fingerprint, 0xabcdefu);
  EXPECT_EQ(got.workloads[0].model_path, "/tmp/x.pywm");
  EXPECT_TRUE(got.workloads[0].primary == m.workloads[0].primary);
  EXPECT_EQ(got.workloads[0].watchdog.health, 1u);
  EXPECT_EQ(got.workloads[0].watchdog.window, m.workloads[0].watchdog.window);
  EXPECT_EQ(got.workloads[0].watchdog.stats.sessions_judged, 40u);
  ASSERT_TRUE(got.workloads[0].has_adaptation);
  EXPECT_EQ(got.workloads[0].adaptation.phase, 3u);
  EXPECT_EQ(got.workloads[0].adaptation.cooldown_remaining, 9u);
  EXPECT_EQ(got.workloads[0].adaptation.rounds, 2u);
  ASSERT_EQ(got.cache.size(), 1u);
  EXPECT_EQ(got.cache[0].plan, "plan\x1ftokens");
  EXPECT_EQ(got.cache[0].pages, m.cache[0].pages);
}

TEST_F(CheckpointRecoveryTest, ManifestNameParsing) {
  uint64_t gen = 0;
  EXPECT_TRUE(CheckpointManager::ParseManifestName("manifest-12.pyck", &gen));
  EXPECT_EQ(gen, 12u);
  EXPECT_FALSE(CheckpointManager::ParseManifestName("manifest-.pyck", &gen));
  EXPECT_FALSE(CheckpointManager::ParseManifestName("manifest-1.pyck.corrupt",
                                                    &gen));
  EXPECT_FALSE(CheckpointManager::ParseManifestName("manifest-1x.pyck", &gen));
  EXPECT_FALSE(CheckpointManager::ParseManifestName("wm.pywm", &gen));
}

TEST_F(CheckpointRecoveryTest, TruncatedManifestNeverLoads) {
  const std::string dir = NewDir("manifest_trunc");
  const std::string path = CheckpointManager::ManifestPath(dir, 1);
  ASSERT_TRUE(CheckpointManager::SaveManifest(SampleManifest(), path).ok());
  Result<std::string> bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  // Every truncation point across the header and into the payload must be
  // rejected — a manifest is valid in full or not at all.
  for (size_t keep = 0; keep < std::min<size_t>(bytes.value().size(), 64);
       ++keep) {
    const std::string p = dir + "/trunc.pyck";
    ASSERT_TRUE(
        WriteFileAtomic(p, bytes.value().data(), keep).ok());
    Result<CheckpointManifest> r = CheckpointManager::LoadManifest(p);
    EXPECT_FALSE(r.ok()) << "truncation at byte " << keep << " loaded";
  }
}

TEST_F(CheckpointRecoveryTest, BitFlippedManifestIsDataCorruption) {
  const std::string dir = NewDir("manifest_flip");
  const std::string path = CheckpointManager::ManifestPath(dir, 1);
  ASSERT_TRUE(CheckpointManager::SaveManifest(SampleManifest(), path).ok());
  CorruptFile(path, std::filesystem::file_size(path) / 2);
  Result<CheckpointManifest> r = CheckpointManager::LoadManifest(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataCorruption);
}

// --- Checkpoint generations ----------------------------------------------

TEST_F(CheckpointRecoveryTest, GenerationsAreMonotonicAndPruned) {
  const std::string dir = NewDir("generations");
  const std::string model_path = dir + "/wm.pywm";
  auto system = MakeSystem();
  CheckpointOptions copts;
  copts.keep_generations = 2;
  CheckpointManager mgr(dir, copts);
  EXPECT_EQ(mgr.latest_generation(), 0u);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(mgr.Checkpoint(*system, {model_path}).ok());
    EXPECT_EQ(mgr.latest_generation(), static_cast<uint64_t>(i));
  }
  const std::vector<uint64_t> gens = CheckpointManager::ScanGenerations(dir);
  EXPECT_EQ(gens, (std::vector<uint64_t>{2, 3}));
  // A new manager over the same directory resumes the numbering — a restart
  // can never reuse (and thus silently overwrite) a committed generation.
  CheckpointManager resumed(dir, copts);
  EXPECT_EQ(resumed.latest_generation(), 3u);
  ASSERT_TRUE(resumed.Checkpoint(*system, {model_path}).ok());
  EXPECT_EQ(resumed.latest_generation(), 4u);
}

// A durable-fault config whose first write (a checkpoint's primary) is torn
// and whose next two (the sidecar and the manifest) are not.
FaultConfig TornPrimaryOnly() {
  FaultConfig config;
  config.durable_torn_write_prob = 0.5;
  for (config.seed = 0;; ++config.seed) {
    FaultInjector probe(config);
    if (probe.OnDurableWrite().torn_write &&
        !probe.OnDurableWrite().torn_write &&
        !probe.OnDurableWrite().torn_write) {
      return config;
    }
  }
}

TEST_F(CheckpointRecoveryTest, ManifestRecordsTheIdentitiesOnDisk) {
  // The manifest records what each publish reported reaching disk, so it
  // agrees with the files as they sit there, a torn primary included.
  uint64_t whole_size = 0;
  for (const bool torn : {false, true}) {
    const std::string dir = NewDir(torn ? "identity_torn" : "identity");
    const std::string model_path = dir + "/wm.pywm";
    FaultInjector injector(TornPrimaryOnly());
    if (torn) CrashPointRegistry::Global().set_fault_injector(&injector);
    auto system = MakeSystem();
    CheckpointManager mgr(dir, CheckpointOptions());
    ASSERT_TRUE(mgr.Checkpoint(*system, {model_path}).ok());
    CrashPointRegistry::Global().set_fault_injector(nullptr);

    const std::string manifest_path = CheckpointManager::ManifestPath(dir, 1);
    Result<CheckpointManifest> manifest =
        CheckpointManager::LoadManifest(manifest_path);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    const CheckpointWorkloadState& w = manifest->workloads[0];
    EXPECT_TRUE(w.primary == FileIdentityOf(model_path)) << torn;
    // The sidecar is a byte copy of the primary as it reached disk.
    EXPECT_TRUE(FileIdentityOf(model_path + ".lkg") == w.primary) << torn;
    if (torn) {
      EXPECT_EQ(injector.stats().injected_durable_torn_writes, 1u);
      EXPECT_LT(w.primary.size, whole_size);
    } else {
      whole_size = w.primary.size;
    }
  }
}

// --- Recovery decision tree ----------------------------------------------

TEST_F(CheckpointRecoveryTest, RecoversFromPrimaryWithWarmCache) {
  const std::string dir = NewDir("rec_primary");
  const std::string model_path = dir + "/wm.pywm";
  auto system = MakeSystem();
  // Seed some memoized plans and an exercised watchdog, then checkpoint.
  system->prediction_cache().Insert(PredictionKey{0, 0, "planA"},
                                    {PageId{1, 1}});
  system->prediction_cache().Insert(PredictionKey{0, 0, "planB"},
                                    {PageId{1, 2}, PageId{1, 3}});
  for (int i = 0; i < 4; ++i) system->watchdog(0).Record(10, 0);  // demote
  ASSERT_EQ(system->watchdog(0).health(), ModelHealth::kDegraded);
  const std::vector<PageId> before = PredictAll(system->model(0));
  CheckpointManager mgr(dir, CheckpointOptions());
  ASSERT_TRUE(mgr.Checkpoint(*system, {model_path}).ok());
  system.reset();  // the "crash"

  PythiaSystem restarted(nullptr);
  RecoveryManager rm(dir);
  Result<RecoveryReport> report =
      rm.Recover(&restarted, {SpecFor(model_path)});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->manifest_loaded);
  EXPECT_EQ(report->manifest_generation, 1u);
  ASSERT_EQ(report->workloads.size(), 1u);
  EXPECT_EQ(report->workloads[0].source, RecoverySource::kPrimary);
  EXPECT_TRUE(report->workloads[0].manifest_match);
  EXPECT_EQ(report->workloads[0].revision, 0u);
  EXPECT_TRUE(report->workloads[0].watchdog_restored);
  EXPECT_EQ(report->cache_restored, 2u);
  EXPECT_EQ(report->cache_rejected, 0u);
  // The demoted model must come back demoted, not amnesiac-healthy.
  EXPECT_EQ(restarted.watchdog(0).health(), ModelHealth::kDegraded);
  // Warm cache actually serves.
  std::vector<PageId> got;
  EXPECT_TRUE(restarted.prediction_cache().Lookup(
      PredictionKey{0, 0, "planA"}, &got));
  EXPECT_EQ(got, (std::vector<PageId>{PageId{1, 1}}));
  // Byte-identical predictions at the same revision.
  EXPECT_EQ(PredictAll(restarted.model(0)), before);
  EXPECT_EQ(restarted.model(0).revision(), 0u);
}

TEST_F(CheckpointRecoveryTest, HealsFromLkgWhenPrimaryCorrupt) {
  const std::string dir = NewDir("rec_lkg");
  const std::string model_path = dir + "/wm.pywm";
  auto system = MakeSystem();
  const std::vector<PageId> before = PredictAll(system->model(0));
  CheckpointManager mgr(dir, CheckpointOptions());
  ASSERT_TRUE(mgr.Checkpoint(*system, {model_path}).ok());
  system.reset();
  CorruptFile(model_path, std::filesystem::file_size(model_path) / 2);

  PythiaSystem restarted(nullptr);
  RecoveryManager rm(dir);
  Result<RecoveryReport> report =
      rm.Recover(&restarted, {SpecFor(model_path)});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->workloads.size(), 1u);
  EXPECT_EQ(report->workloads[0].source, RecoverySource::kLkg);
  // The sidecar is a byte copy of the manifested primary, so the recovered
  // model is *the* checkpointed model: full warm restore.
  EXPECT_TRUE(report->workloads[0].manifest_match);
  EXPECT_EQ(PredictAll(restarted.model(0)), before);
  // The corrupt primary was quarantined and the sidecar re-published.
  EXPECT_TRUE(std::filesystem::exists(model_path + ".corrupt"));
  EXPECT_TRUE(std::filesystem::exists(model_path));
  Result<WorkloadModel> republished = WorkloadModel::Load(model_path);
  EXPECT_TRUE(republished.ok());
}

TEST_F(CheckpointRecoveryTest, RetrainsWhenPrimaryAndLkgBothDead) {
  const std::string dir = NewDir("rec_retrain");
  const std::string model_path = dir + "/wm.pywm";
  auto system = MakeSystem();
  system->prediction_cache().Insert(PredictionKey{0, 0, "planA"},
                                    {PageId{1, 1}});
  CheckpointManager mgr(dir, CheckpointOptions());
  ASSERT_TRUE(mgr.Checkpoint(*system, {model_path}).ok());
  system.reset();
  std::filesystem::remove(model_path);
  std::filesystem::remove(model_path + ".lkg");

  PythiaSystem restarted(nullptr);
  RecoveryManager rm(dir);
  Result<RecoveryReport> report =
      rm.Recover(&restarted, {SpecFor(model_path)});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->workloads.size(), 1u);
  EXPECT_EQ(report->workloads[0].source, RecoverySource::kRetrained);
  EXPECT_FALSE(report->workloads[0].manifest_match);
  // Served past the manifest revision: no stale memoized plan can hit.
  EXPECT_EQ(report->workloads[0].revision, 1u);
  EXPECT_EQ(restarted.model(0).revision(), 1u);
  EXPECT_EQ(report->cache_restored, 0u);
  EXPECT_EQ(report->cache_rejected, 1u);
  EXPECT_EQ(restarted.prediction_cache().size(), 0u);
  // The retrain republished both artifacts for the next restart.
  EXPECT_TRUE(std::filesystem::exists(model_path));
  EXPECT_TRUE(std::filesystem::exists(model_path + ".lkg"));
}

TEST_F(CheckpointRecoveryTest, NewerPrimaryAdoptedColdAtBumpedRevision) {
  const std::string dir = NewDir("rec_newer");
  const std::string model_path = dir + "/wm.pywm";
  auto system = MakeSystem();
  system->prediction_cache().Insert(PredictionKey{0, 0, "planA"},
                                    {PageId{1, 1}});
  for (int i = 0; i < 4; ++i) system->watchdog(0).Record(10, 0);  // demote
  CheckpointManager mgr(dir, CheckpointOptions());
  ASSERT_TRUE(mgr.Checkpoint(*system, {model_path}).ok());
  // Simulate the post_rename_pre_sidecar crash window: a newer primary was
  // published after the manifest committed (threshold change -> different
  // bytes), then the process died before any new manifest.
  system->model(0).set_threshold(0.5f);
  ASSERT_TRUE(system->model(0).Save(model_path).ok());
  system.reset();

  PythiaSystem restarted(nullptr);
  RecoveryManager rm(dir);
  Result<RecoveryReport> report =
      rm.Recover(&restarted, {SpecFor(model_path)});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->workloads.size(), 1u);
  // Valid, newer weights: serve them — but nothing checkpointed may be
  // attributed to them.
  EXPECT_EQ(report->workloads[0].source, RecoverySource::kPrimary);
  EXPECT_FALSE(report->workloads[0].manifest_match);
  EXPECT_EQ(report->workloads[0].revision, 1u);
  EXPECT_FALSE(report->workloads[0].watchdog_restored);
  EXPECT_EQ(restarted.watchdog(0).health(), ModelHealth::kHealthy);
  EXPECT_EQ(report->cache_restored, 0u);
  EXPECT_EQ(report->cache_rejected, 1u);
}

TEST_F(CheckpointRecoveryTest, CorruptNewestManifestFallsBackAGeneration) {
  const std::string dir = NewDir("rec_fallback");
  const std::string model_path = dir + "/wm.pywm";
  auto system = MakeSystem();
  CheckpointManager mgr(dir, CheckpointOptions());
  ASSERT_TRUE(mgr.Checkpoint(*system, {model_path}).ok());
  ASSERT_TRUE(mgr.Checkpoint(*system, {model_path}).ok());
  system.reset();
  const std::string gen2 = CheckpointManager::ManifestPath(dir, 2);
  CorruptFile(gen2, std::filesystem::file_size(gen2) - 3);

  PythiaSystem restarted(nullptr);
  RecoveryManager rm(dir);
  Result<RecoveryReport> report =
      rm.Recover(&restarted, {SpecFor(model_path)});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->manifest_loaded);
  EXPECT_EQ(report->manifest_generation, 1u);
  EXPECT_EQ(report->manifests_quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(gen2));
  EXPECT_TRUE(std::filesystem::exists(gen2 + ".corrupt"));
  // Generation 1 manifested the same model bytes, so the fallback is warm.
  EXPECT_EQ(report->workloads[0].source, RecoverySource::kPrimary);
  EXPECT_TRUE(report->workloads[0].manifest_match);
}

TEST_F(CheckpointRecoveryTest, VersionOneManifestIsSkippedNotQuarantined) {
  // A manifest in the version-1 layout (which still carried the .lkg
  // identity) is a clean version mismatch, not damage: recovery skips it
  // without quarantine and loads the older current-version generation.
  const std::string dir = NewDir("rec_v1");
  const std::string model_path = dir + "/wm.pywm";
  auto system = MakeSystem();
  CheckpointManager mgr(dir, CheckpointOptions());
  ASSERT_TRUE(mgr.Checkpoint(*system, {model_path}).ok());
  system.reset();
  // Generation 2 is generation 1's file with the frame's version field set
  // to 1. The CRC covers only the payload, so the frame stays valid.
  Result<std::string> file =
      ReadFileBytes(CheckpointManager::ManifestPath(dir, 1));
  ASSERT_TRUE(file.ok());
  std::string v1 = file.value();
  const uint32_t version = 1;
  std::memcpy(&v1[4], &version, sizeof(version));
  const std::string gen2 = CheckpointManager::ManifestPath(dir, 2);
  ASSERT_TRUE(WriteFileAtomic(gen2, v1.data(), v1.size()).ok());
  ASSERT_EQ(CheckpointManager::LoadManifest(gen2).status().code(),
            StatusCode::kFailedPrecondition);

  const RecoveryCounters before = RecoveryCountersSnapshot();
  PythiaSystem restarted(nullptr);
  RecoveryManager rm(dir);
  Result<RecoveryReport> report =
      rm.Recover(&restarted, {SpecFor(model_path)});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(RecoveryCountersSnapshot().generations_discarded,
            before.generations_discarded + 1);
  EXPECT_TRUE(report->manifest_loaded);
  EXPECT_EQ(report->manifest_generation, 1u);
  EXPECT_EQ(report->manifests_quarantined, 0u);
  EXPECT_TRUE(std::filesystem::exists(gen2));
  EXPECT_FALSE(std::filesystem::exists(gen2 + ".corrupt"));
  EXPECT_EQ(report->workloads[0].source, RecoverySource::kPrimary);
  EXPECT_TRUE(report->workloads[0].manifest_match);
}

TEST_F(CheckpointRecoveryTest, CrashMidManifestKeepsPriorGeneration) {
  const std::string dir = NewDir("rec_midmanifest");
  const std::string model_path = dir + "/wm.pywm";
  auto system = MakeSystem();
  CheckpointManager mgr(dir, CheckpointOptions());
  ASSERT_TRUE(mgr.Checkpoint(*system, {model_path}).ok());
  CrashPointRegistry::Global().Arm(kCrashMidManifest);
  Status s = mgr.Checkpoint(*system, {model_path});
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_TRUE(CrashPointRegistry::Global().crashed());
  system.reset();
  CrashPointRegistry::Global().Reset();

  PythiaSystem restarted(nullptr);
  RecoveryManager rm(dir);
  Result<RecoveryReport> report =
      rm.Recover(&restarted, {SpecFor(model_path)});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The torn generation-2 .tmp was swept; generation 1 stands.
  EXPECT_EQ(report->manifest_generation, 1u);
  EXPECT_GE(report->tmp_files_removed, 1u);
  EXPECT_EQ(report->workloads[0].source, RecoverySource::kPrimary);
  EXPECT_TRUE(report->workloads[0].manifest_match);
}

TEST_F(CheckpointRecoveryTest, RecoveryWithNoManifestRetrainsAtRevisionZero) {
  const std::string dir = NewDir("rec_cold");
  const std::string model_path = dir + "/wm.pywm";
  PythiaSystem restarted(nullptr);
  RecoveryManager rm(dir);
  Result<RecoveryReport> report =
      rm.Recover(&restarted, {SpecFor(model_path)});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->manifest_loaded);
  EXPECT_EQ(report->workloads[0].source, RecoverySource::kRetrained);
  EXPECT_EQ(report->workloads[0].revision, 0u);
  EXPECT_EQ(restarted.num_workloads(), 1u);
}

TEST_F(CheckpointRecoveryTest, RetrainPublishDiesAtTheSidecarCrashSite) {
  // Recovery's retrain publishes through the same step as a checkpoint, so
  // a kill between the primary's publish and its sidecar lands there too.
  const std::string dir = NewDir("rec_retrain_crash");
  const std::string model_path = dir + "/wm.pywm";
  CrashPointRegistry::Global().Arm(kCrashPostRenamePreSidecar);
  PythiaSystem restarted(nullptr);
  RecoveryManager rm(dir);
  Result<RecoveryReport> report =
      rm.Recover(&restarted, {SpecFor(model_path)});
  EXPECT_EQ(report.status().code(), StatusCode::kAborted);
  EXPECT_TRUE(std::filesystem::exists(model_path));
  EXPECT_FALSE(std::filesystem::exists(model_path + ".lkg"));
  EXPECT_EQ(restarted.num_workloads(), 0u);
}

TEST_F(CheckpointRecoveryTest, RecoveryCountersAdvance) {
  const std::string dir = NewDir("rec_counters");
  const std::string model_path = dir + "/wm.pywm";
  const RecoveryCounters before = RecoveryCountersSnapshot();
  auto system = MakeSystem();
  system->prediction_cache().Insert(PredictionKey{0, 0, "planA"},
                                    {PageId{1, 1}});
  CheckpointManager mgr(dir, CheckpointOptions());
  ASSERT_TRUE(mgr.Checkpoint(*system, {model_path}).ok());
  system.reset();
  PythiaSystem restarted(nullptr);
  RecoveryManager rm(dir);
  ASSERT_TRUE(rm.Recover(&restarted, {SpecFor(model_path)}).ok());
  const RecoveryCounters after = RecoveryCountersSnapshot();
  EXPECT_GT(after.checkpoints_written, before.checkpoints_written);
  EXPECT_GT(after.models_from_primary, before.models_from_primary);
  EXPECT_GT(after.warm_cache_restores, before.warm_cache_restores);
}

// --- Seeded mutation fuzz of the durable parsers ---------------------------
// Truncations, bit flips and splices of a saved .pywm and a checkpoint
// .pyck, each run with the frame's CRC left stale and with it re-stamped so
// the payload parser meets the damage; plus every count field (and the
// first few string lengths) set to all ones behind a valid CRC. Every mutant
// must load or fail cleanly: DataCorruption, or FailedPrecondition only
// when the version field changed. A failing .pywm is quarantined, and
// nothing may abort or allocate what the file does not back. A missing file
// is NotFound.

constexpr size_t kFrameBytes = 20;  // magic, version, payload size, CRC-32

// A field to lie about: `width` bytes at `offset` in the whole file.
struct LieSite {
  size_t offset;
  size_t width;
  std::string field;
};

// Walks a framed payload and records the offsets of its length fields.
class PayloadWalk {
 public:
  explicit PayloadWalk(const std::string& file)
      : file_(file), r_(std::string_view(file).substr(kFrameBytes)) {}

  void Skip(size_t n) {
    sink_.resize(n);
    ASSERT_TRUE(r_.Bytes(sink_.data(), n));
  }
  // Records the length field at the cursor as a lie site and reads it.
  template <typename T>
  T Length(const std::string& field, bool lie = true) {
    if (lie) {
      sites_.push_back({file_.size() - r_.remaining(), sizeof(T), field});
    }
    T n = 0;
    EXPECT_TRUE(r_.Pod(&n));
    return n;
  }
  std::vector<LieSite> Done() {
    EXPECT_TRUE(r_.done()) << "walk disagrees with the writer";
    return sites_;
  }

 private:
  const std::string& file_;
  ByteReader r_;
  std::string sink_;  // destination of skipped bytes
  std::vector<LieSite> sites_;
};

// In the order WorkloadModel::WritePayload writes them.
std::vector<LieSite> ModelLieSites(const std::string& file) {
  PayloadWalk w(file);
  w.Skip(8 + 4);  // fingerprint, template id
  for (const char* dim : {"embed_dim", "num_heads", "ffn_dim", "num_layers",
                          "decoder_hidden"}) {
    w.Length<size_t>(dim);
  }
  // pos_weight, threshold, seed, reserved word; report: train_seconds,
  // num_models, total_parameters, mean_final_loss.
  w.Skip(4 + 4 + 8 + 4 + 8 + 8 + 8 + 8);
  w.Skip(w.Length<uint32_t>("object count") * sizeof(ObjectId));
  for (const std::string set : {"vocabulary", "token profile",
                                "structure profile"}) {
    const uint32_t n = w.Length<uint32_t>(set + " count");
    for (uint32_t i = 0; i < n; ++i) {
      w.Skip(w.Length<uint32_t>(set + " string length", i < 2));
    }
  }
  const uint32_t units = w.Length<uint32_t>("unit count");
  for (uint32_t u = 0; u < units; ++u) {
    w.Skip(w.Length<uint32_t>("unit output count") * sizeof(uint64_t));
    w.Skip(4);  // parameter-block magic
    const uint32_t records = w.Length<uint32_t>("parameter count", u == 0);
    for (uint32_t i = 0; i < records; ++i) {
      w.Skip(w.Length<uint32_t>("parameter name length", u == 0 && i == 0));
      const uint32_t rows = w.Length<uint32_t>("rows", false);
      const uint32_t cols = w.Length<uint32_t>("cols", false);
      w.Skip(size_t{rows} * cols * sizeof(float));
    }
  }
  return w.Done();
}

// In the order SerializeManifest writes them.
std::vector<LieSite> ManifestLieSites(const std::string& file) {
  PayloadWalk w(file);
  w.Skip(8 + 1 + 4);  // generation, has_governor, governor_rung
  const uint64_t workloads = w.Length<uint64_t>("workload count");
  for (uint64_t i = 0; i < workloads; ++i) {
    w.Skip(8 + 8);  // revision, fingerprint
    w.Skip(w.Length<uint64_t>("model path length"));
    w.Skip(1 + 8 + 4);  // primary identity
    w.Skip(4);          // watchdog health
    w.Skip(w.Length<uint64_t>("watchdog window count") * sizeof(double));
    // probation, probe successes, post-swap remaining, demoted flag, five
    // watchdog stats; adaptation flag, phase, cooldown, rounds.
    w.Skip(3 * 8 + 1 + 5 * 8 + 1 + 4 + 2 * 8);
  }
  const uint64_t entries = w.Length<uint64_t>("cache entry count");
  for (uint64_t i = 0; i < entries; ++i) {
    w.Skip(8 + 8);  // model id, revision
    w.Skip(w.Length<uint64_t>("plan length", i < 2));
    w.Skip(w.Length<uint64_t>("page count", i < 2) * sizeof(uint64_t));
  }
  return w.Done();
}

// Points the frame's size and CRC at the (possibly resized) payload, so the
// damage passes the CRC check and reaches the payload parser.
std::string Restamp(std::string file) {
  if (file.size() < kFrameBytes) return file;
  const uint64_t size = file.size() - kFrameBytes;
  const uint32_t crc = Crc32(file.data() + kFrameBytes, size);
  std::memcpy(&file[8], &size, sizeof(size));
  std::memcpy(&file[16], &crc, sizeof(crc));
  return file;
}

struct Mutant {
  std::string bytes;
  std::string what;
};

std::vector<Mutant> Mutate(const std::string& file,
                           const std::vector<LieSite>& lies, uint64_t seed) {
  std::vector<Mutant> out;
  Pcg32 rng(seed, /*stream=*/0xf022);
  for (int i = 0; i < 44; ++i) {
    std::string m = file;
    std::string what;
    switch (i % 3) {
      case 0: {
        m.resize(rng.UniformU32(static_cast<uint32_t>(file.size())));
        what = "truncated to " + std::to_string(m.size());
        break;
      }
      case 1: {
        const uint32_t bit =
            rng.UniformU32(static_cast<uint32_t>(file.size() * 8));
        m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1u << (bit % 8)));
        what = "bit " + std::to_string(bit) + " flipped";
        break;
      }
      default: {
        const uint32_t len = 1 + rng.UniformU32(64);
        const uint32_t span = static_cast<uint32_t>(file.size()) - len;
        const uint32_t from = rng.UniformU32(span), to = rng.UniformU32(span);
        std::memcpy(&m[to], file.data() + from, len);
        what = std::to_string(len) + " bytes spliced from " +
               std::to_string(from) + " to " + std::to_string(to);
        break;
      }
    }
    out.push_back({m, what + ", CRC stale"});
    out.push_back({Restamp(m), what + ", CRC re-stamped"});
  }
  for (const LieSite& lie : lies) {
    std::string m = file;
    std::memset(&m[lie.offset], 0xff, lie.width);
    out.push_back({Restamp(m), lie.field + " set to all ones"});
  }
  return out;
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Load succeeded, or failed as DataCorruption — FailedPrecondition only for a
// changed version field.
void ExpectCleanOutcome(const Status& s, const std::string& original,
                        const Mutant& m) {
  if (s.ok()) return;
  const bool version_changed =
      m.bytes.size() >= 8 && original.compare(4, 4, m.bytes, 4, 4) != 0;
  if (s.code() == StatusCode::kFailedPrecondition) {
    EXPECT_TRUE(version_changed) << m.what << ": " << s.ToString();
  } else {
    EXPECT_EQ(s.code(), StatusCode::kDataCorruption)
        << m.what << ": " << s.ToString();
  }
}

TEST_F(CheckpointRecoveryTest, MutatedModelAndManifestFailCleanly) {
  const std::string dir = NewDir("mutation");
  const std::string model_path = dir + "/wm.pywm";
  auto system = MakeSystem();
  for (size_t ti : wl_->test_indices) {
    const WorkloadQuery& q = wl_->queries[ti];
    system->prediction_cache().Insert(
        system->PredictionKeyFor(system->model(0), q), {PageId{1, 2}});
  }
  for (int i = 0; i < 4; ++i) system->watchdog(0).Record(10, 0);
  CheckpointManager mgr(dir, CheckpointOptions());
  ASSERT_TRUE(mgr.Checkpoint(*system, {model_path}).ok());
  const std::vector<std::string>& probe =
      wl_->queries[wl_->test_indices[0]].tokens;

  Result<std::string> model = ReadFileBytes(model_path);
  ASSERT_TRUE(model.ok());
  const std::vector<LieSite> model_lies = ModelLieSites(model.value());
  ASSERT_FALSE(HasFatalFailure());
  size_t model_loaded = 0;
  const std::vector<Mutant> model_mutants =
      Mutate(model.value(), model_lies, /*seed=*/16);
  for (const Mutant& m : model_mutants) {
    const std::string path = dir + "/mutant.pywm";
    WriteRaw(path, m.bytes);
    Result<WorkloadModel> loaded = WorkloadModel::Load(path);
    ExpectCleanOutcome(loaded.status(), model.value(), m);
    if (loaded.ok()) {
      ++model_loaded;
      loaded->Predict(probe);  // a loaded mutant still serves
    } else if (loaded.status().code() == StatusCode::kDataCorruption) {
      EXPECT_FALSE(std::filesystem::exists(path)) << m.what;
      EXPECT_TRUE(std::filesystem::exists(path + ".corrupt")) << m.what;
    }
  }

  Result<std::string> manifest =
      ReadFileBytes(CheckpointManager::ManifestPath(dir, 1));
  ASSERT_TRUE(manifest.ok());
  const std::vector<LieSite> manifest_lies = ManifestLieSites(manifest.value());
  ASSERT_FALSE(HasFatalFailure());
  const std::vector<Mutant> manifest_mutants =
      Mutate(manifest.value(), manifest_lies, /*seed=*/16);
  for (const Mutant& m : manifest_mutants) {
    const std::string path = CheckpointManager::ManifestPath(dir, 2);
    WriteRaw(path, m.bytes);
    ExpectCleanOutcome(CheckpointManager::LoadManifest(path).status(),
                       manifest.value(), m);
  }

  // A missing file is NotFound, not damage: nothing to quarantine.
  EXPECT_EQ(WorkloadModel::Load(dir + "/missing.pywm").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(std::filesystem::exists(dir + "/missing.pywm.corrupt"));
  EXPECT_EQ(CheckpointManager::LoadManifest(dir + "/missing.pyck")
                .status()
                .code(),
            StatusCode::kNotFound);

  // The walks found the count fields, and the corpus is not all-reject:
  // re-stamped flips inside float weights still load.
  EXPECT_GE(model_lies.size(), 12u);
  EXPECT_GE(manifest_lies.size(), 6u);
  EXPECT_GT(model_loaded, 0u);
  EXPECT_GE(model_mutants.size(), 100u);
  EXPECT_GE(manifest_mutants.size(), 90u);
}

// The template id and the reserved word (always 0) are enum words no count
// check covers: a file that lies there behind a re-stamped CRC fails as
// DataCorruption and is quarantined instead of loading an out-of-range
// TemplateId.
TEST_F(CheckpointRecoveryTest, LyingEnumWordsFailCleanly) {
  const std::string dir = NewDir("enum_words");
  const std::string path = dir + "/wm.pywm";
  WorkloadModel model = model_->Clone();
  ASSERT_TRUE(model.Save(path).ok());
  Result<std::string> file = ReadFileBytes(path);
  ASSERT_TRUE(file.ok());
  // In WritePayload's order: the fingerprint, then the template id; five
  // size_t dims, pos_weight, threshold and seed, then the reserved word.
  constexpr size_t kTemplateIdAt = kFrameBytes + 8;
  constexpr size_t kReservedAt = kTemplateIdAt + 4 + 5 * 8 + 4 + 4 + 8;
  const auto word_at = [&](size_t offset) {
    uint32_t v = 0;
    std::memcpy(&v, file->data() + offset, sizeof(v));
    return v;
  };
  ASSERT_EQ(word_at(kTemplateIdAt), static_cast<uint32_t>(TemplateId::kDsb91));
  ASSERT_EQ(word_at(kReservedAt), 0u);

  const std::string mutant = dir + "/mutant.pywm";
  WriteRaw(mutant, Restamp(file.value()));
  ASSERT_TRUE(WorkloadModel::Load(mutant).ok()) << "re-stamped original";
  const struct {
    size_t offset;
    uint32_t value;
    const char* what;
  } lies[] = {{kTemplateIdAt, 4, "template id 4"},
              {kTemplateIdAt, 0xffffffffu, "template id all ones"},
              {kReservedAt, 1, "reserved word 1"}};
  for (const auto& lie : lies) {
    std::string m = file.value();
    std::memcpy(&m[lie.offset], &lie.value, sizeof(lie.value));
    WriteRaw(mutant, Restamp(m));
    EXPECT_EQ(WorkloadModel::Load(mutant).status().code(),
              StatusCode::kDataCorruption)
        << lie.what;
    EXPECT_FALSE(std::filesystem::exists(mutant)) << lie.what;
    EXPECT_TRUE(std::filesystem::exists(mutant + ".corrupt")) << lie.what;
    std::filesystem::remove(mutant + ".corrupt");
  }
}

}  // namespace
}  // namespace pythia
