// Per-workload Pythia predictor: one multi-label model per database object
// (Algorithm 1), with the paper's structural options:
//  - separate models for base tables and their indexes (default), or one
//    combined model per table+index pair (Figure 12d ablation);
//  - large objects split into fixed-size page partitions, each with its own
//    model (Section 3.3, "we split large tables into several smaller
//    partitions and then train one model for each");
//  - optional top-k mode where each model only predicts the k most
//    frequently accessed pages of its object (Figure 12h ablation).
//
// Training is embarrassingly parallel across model units and runs on the
// shared ThreadPool (util/thread_pool.h), as does per-unit inference in
// Predict. Each unit only ever touches its own state and results merge in
// unit order, so parallel runs are bit-identical to sequential ones.
#ifndef PYTHIA_CORE_PREDICTOR_H_
#define PYTHIA_CORE_PREDICTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/model.h"
#include "core/vocab.h"
#include "exec/trace.h"
#include "storage/durable.h"
#include "util/bytes.h"
#include "util/status.h"
#include "workload/generator.h"

namespace pythia {

struct PredictorOptions {
  // Model architecture (copied into every unit's PythiaModelConfig).
  size_t embed_dim = 32;
  size_t num_heads = 4;
  size_t ffn_dim = 128;
  size_t num_layers = 2;
  size_t decoder_hidden = 128;
  float pos_weight = 4.0f;
  float threshold = 0.45f;

  // Training.
  int epochs = 20;
  size_t batch_size = 8;  // gradient-accumulation minibatch
  float lr = 2e-3f;
  double grad_clip = 5.0;
  double train_fraction = 1.0;  // Figure 12b: subsample the training set
  size_t num_threads = 0;       // 0 = hardware concurrency
  uint64_t seed = 5;

  // Structure.
  size_t max_pages_per_model = 4096;
  bool combined_index_table_model = false;  // Figure 12d
  size_t top_k_pages = 0;                   // Figure 12h; 0 = all pages
  // If non-empty, only these objects get models (e.g., cast_info only for
  // the IMDB experiments, per Section 5.1).
  std::vector<ObjectId> restrict_objects;
};

struct TrainReport {
  double train_seconds = 0.0;
  size_t num_models = 0;
  size_t total_parameters = 0;
  double mean_final_loss = 0.0;
};

// One recent query fed into incremental retraining: the serialized plan,
// the recorded page-access trace (labels are derived from it by
// ProcessTrace, as for Train) and the plan structure key
// (folded into the match profiles so drifted-but-retrained-on plans match
// again). Pointers are not owned and must outlive the IncrementalTrain
// call.
struct IncrementalSample {
  const std::vector<std::string>* tokens = nullptr;
  const QueryTrace* trace = nullptr;
  const std::string* structure_key = nullptr;
};

struct IncrementalTrainOptions {
  int epochs = 6;
  float lr = 1e-3f;
  // Shuffle seed for this round; the caller varies it per round so
  // repeated rounds don't replay the same sample order.
  uint64_t seed = 17;
  // Post-training decision-threshold recalibration. A round that grows the
  // vocabulary tends to over-fire (new pages enter the label space before
  // their scores are well separated), which tanks precision and with it the
  // live useful-prefetch ratio the watchdog judges. When enabled, the round
  // ends by sweeping a fixed threshold grid over its own samples and keeping
  // the threshold with the best F1 among those whose precision clears
  // `calibration_min_precision` (falling back to the most precise grid point
  // when none clears it). Deterministic: fixed grid, first-wins ties.
  bool calibrate_threshold = true;
  float calibration_min_precision = 0.35f;
};

struct IncrementalTrainReport {
  size_t samples = 0;
  size_t new_tokens = 0;      // vocabulary growth this round
  bool grew_vocab = false;
  bool optimizer_reset = false;
  double mean_final_loss = 0.0;
  // Decision threshold in effect after the round (== the pre-round value
  // when calibration is disabled or kept the incumbent threshold).
  float threshold = 0.0f;
};

// A trained workload model. It learns, and is scored on, one label rule
// (QueryTrace::NonSequentialPages): Train and IncrementalTrain fit each
// query's ProcessTrace labels, and GroundTruth — the same pages on the
// modeled objects — is what every F1 compares a prediction against.
class WorkloadModel {
 public:
  // Trains models for `workload` against `db`. The workload's own
  // train_indices are used (scaled by options.train_fraction).
  static Result<WorkloadModel> Train(const Database& db,
                                     const Workload& workload,
                                     const PredictorOptions& options);

  WorkloadModel(WorkloadModel&&) = default;
  WorkloadModel& operator=(WorkloadModel&&) = default;

  // Predicted page set for a serialized plan: a one-row PredictBatch.
  // Unknown tokens map to [UNK].
  std::unordered_set<PageId> Predict(const std::vector<std::string>& tokens);

  // Batched Predict: one result set per token sequence, bit-identical to
  // calling Predict on each sequence in order. Units fan out on the shared
  // pool (ParallelFor, unit-ordered merge); inside each unit the B
  // query representations run through the decoder as one multi-row GEMM
  // pass (PythiaModel::PredictBatchInto), amortizing the per-unit forward
  // cost across the whole batch. Pointers must stay valid for the call.
  std::vector<std::unordered_set<PageId>> PredictBatch(
      const std::vector<const std::vector<std::string>*>& token_seqs);

  // The F1 reference for `trace`: its non-sequential pages
  // (QueryTrace::NonSequentialPages) on the objects this model covers — the
  // paper's F1 compares prediction and truth over modeled objects (for IMDB,
  // only cast_info is modeled and measured). Every F1 in the system, the NN
  // baseline's neighbor sets and IncrementalTrain's threshold calibration
  // read this one set.
  std::unordered_set<PageId> GroundTruth(const QueryTrace& trace) const;

  // Workload-membership score in [0, 1]: fraction of the query's tokens
  // seen during training, with a bonus for an exactly-seen plan structure.
  double MatchScore(const std::vector<std::string>& tokens,
                    const std::string& structure_key) const;

  // Serializes the trained model (options, vocabulary, workload profiles
  // and all unit weights) to `path`. The file embeds a fingerprint of the
  // training configuration so stale caches are detected on load, and is
  // published with WriteFramedFile (storage/durable.h): the shared
  // magic/version/size/CRC-32 frame, written atomically (temp file +
  // rename), so a crashed or torn write can never leave a half-written
  // model where a loader will find it. Returns the identity of the file as
  // it reached disk; `image`, when given, receives those bytes.
  Result<FileIdentity> Save(const std::string& path,
                            std::string* image = nullptr);
  // Loads and verifies a saved model: ReadFramedFile, then a parse through
  // the bounds-checked ByteReader (util/bytes.h), so a length or count the
  // file does not back fails the parse instead of sizing a container. A
  // file that fails verification (truncated, bit-flipped, unparseable) is
  // quarantined with QuarantineFile — renamed to <path>.corrupt — and
  // DataCorruption returned, so the caller falls back to retraining instead
  // of aborting; a clean version mismatch returns FailedPrecondition
  // without quarantining. Counters for both paths live under "model.*" in
  // MetricsRegistry (util/metrics_registry.h). `image`, when given,
  // receives the bytes of a file that loads.
  static Result<WorkloadModel> Load(const std::string& path,
                                    std::string* image = nullptr);

  // Fingerprint of (options, workload shape, db size) used to validate
  // cached models.
  static uint64_t Fingerprint(const PredictorOptions& options,
                              const Workload& workload, uint64_t db_pages);

  uint64_t fingerprint() const { return fingerprint_; }
  void set_fingerprint(uint64_t f) { fingerprint_ = f; }
  // Prediction threshold may be adjusted after training (threshold sweeps
  // reuse one trained model). A change bumps the revision so memoized
  // predictions for the old threshold are never served
  // (core/prediction_cache.h); re-setting the same threshold keeps it, so
  // a model loaded from the cache has the revision it was trained with.
  void set_threshold(float t) {
    if (t == options_.threshold) return;
    options_.threshold = t;
    ++revision_;
  }

  // Monotonic counter identifying the model's current predictive behaviour;
  // any mutation that can change Predict's output must bump it.
  uint64_t revision() const { return revision_; }

  // Ensures revision() >= r. Used by the hot-swap path so an installed
  // candidate (or a rolled-back snapshot) can never reuse a revision number
  // the prediction cache has already memoized plans under.
  void BumpRevisionTo(uint64_t r) {
    if (r > revision_) revision_ = r;
  }

  // Deep copy (weights, vocabulary, profiles, revision). Independent of the
  // original: the adaptation lane trains the clone while the original keeps
  // serving live queries.
  WorkloadModel Clone();

  // One round of online retraining on recent replay traces: extends the
  // vocabulary (and each unit's embedding) with unseen tokens, folds the
  // samples' tokens/structures into the match profiles, then reuses the
  // per-unit TrainStep machinery for `options.epochs` passes over the
  // samples. Each unit's Adam optimizer persists across rounds inside the
  // model (smoother updates on a stationary stream); a round that grows the
  // vocabulary resets its moments, because the embedding parameter changed
  // shape and the old moments no longer correspond. Bumps revision().
  // Deterministic: parallel unit training is bit-identical to sequential,
  // and sample order depends only on options.seed.
  IncrementalTrainReport IncrementalTrain(
      const std::vector<IncrementalSample>& samples,
      const IncrementalTrainOptions& options);

  TemplateId template_id() const { return template_id_; }
  const TrainReport& report() const { return report_; }
  const std::vector<ObjectId>& modeled_objects() const {
    return modeled_objects_;
  }
  const PredictorOptions& options() const { return options_; }

 private:
  struct Unit {
    std::unique_ptr<PythiaModel> model;
    std::vector<PageId> output_pages;  // output index -> page
    // Per-unit prediction buffer reused across calls, one index list per
    // batch row (written only by the ParallelFor lane owning this unit,
    // merged in unit order).
    std::vector<std::vector<uint32_t>> batch_scratch;
    // Optimizer kept across incremental-training rounds (lazily created on
    // the first round; never serialized — a loaded model starts fresh).
    std::unique_ptr<nn::Adam> incremental_opt;
  };

  WorkloadModel() = default;

  // Unit `unit`'s model shape: the shared architecture options, the
  // current vocabulary and its own output count and seed.
  PythiaModelConfig UnitConfig(size_t num_outputs, size_t unit) const;

  // The payload inside the durable frame (storage/durable.h) Save writes
  // and Load verifies.
  void WritePayload(ByteWriter* w);
  static Result<WorkloadModel> ParsePayload(ByteReader* r);

  TemplateId template_id_ = TemplateId::kDsb18;
  PredictorOptions options_;
  Vocab vocab_;
  std::vector<Unit> units_;
  std::vector<ObjectId> modeled_objects_;
  std::unordered_set<std::string> token_profile_;
  std::unordered_set<std::string> structure_profile_;
  TrainReport report_;
  uint64_t fingerprint_ = 0;
  uint64_t revision_ = 0;
};

// The model store: a workload's model lives in a primary file and a .lkg
// sidecar, the last known good copy of the primary's bytes. These two steps
// are the only code that writes the pair or chooses between its files.

// Save at `path`, then the post_rename_pre_sidecar crash site (Aborted when
// it fires), then the sidecar written from the bytes the primary published,
// a torn prefix included. Returns the identity of the primary as it reached
// disk; the sidecar holds the same bytes.
Result<FileIdentity> PublishModel(WorkloadModel& model,
                                  const std::string& path);

// A served model, whether the sidecar served it, and the identity of the
// bytes it was parsed from (a sidecar's bytes are its primary's).
struct StoredModel {
  WorkloadModel model;
  bool from_sidecar = false;
  FileIdentity identity;
};

// Serves the primary at `path` when it loads with `fingerprint`, rewriting a
// sidecar that differs from it; else the sidecar, republished as the primary
// by a raw write of its bytes (not a Save). When neither serves: the
// primary's load failure (DataCorruption once quarantined), or
// FailedPrecondition for another configuration's model.
Result<StoredModel> LoadStoredModel(const std::string& path,
                                    uint64_t fingerprint);

std::string SidecarPath(const std::string& path);

// The stored model (LoadStoredModel) at the requested threshold when one
// matches the configuration; otherwise trains from scratch and publishes it
// (PublishModel). All randomness is seeded, so a cached model is
// bit-identical to a fresh one — the cache only saves CPU time across
// benchmark binaries.
Result<WorkloadModel> GetOrTrainWorkloadModel(const std::string& cache_path,
                                              const Database& db,
                                              const Workload& workload,
                                              const PredictorOptions& options);

}  // namespace pythia

#endif  // PYTHIA_CORE_PREDICTOR_H_
