#include "core/predictor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <numeric>

#include "core/trace_processor.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "storage/durable.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/metrics_registry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace pythia {

namespace {

// Maps an index object back to its base table's object id, or the object
// itself if it is a base table. Used to group table+index into one combined
// model for the Figure 12d ablation.
ObjectId BaseObjectOf(const Database& db, ObjectId object) {
  for (const auto& index : db.indexes.all()) {
    if (index->object_id() == object) {
      const Relation* rel = db.catalog.GetRelation(index->relation_name());
      return rel->object_id();
    }
  }
  return object;
}

// Per-sample positive output indices for a unit whose output index i
// predicts page outputs[i].
std::vector<std::vector<uint32_t>> Positives(
    const std::vector<PageId>& outputs,
    const std::vector<ObjectPageSets>& labels) {
  std::unordered_map<PageId, uint32_t> to_output;
  to_output.reserve(outputs.size());
  for (uint32_t i = 0; i < outputs.size(); ++i) {
    to_output[outputs[i]] = i;
  }
  std::vector<std::vector<uint32_t>> positives(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    for (const auto& [object, pages] : labels[i]) {
      for (uint32_t p : pages) {
        auto it = to_output.find(PageId{object, p});
        if (it != to_output.end()) positives[i].push_back(it->second);
      }
    }
  }
  return positives;
}

// `epochs` shuffled passes over the samples, stepping the optimizer once per
// `batch_size`-sample minibatch (and once more for a short tail). Returns
// the last epoch's mean loss.
double TrainEpochs(PythiaModel* model, nn::Adam* optimizer, Pcg32* rng,
                   const std::vector<std::vector<int32_t>>& encoded,
                   const std::vector<std::vector<uint32_t>>& positives,
                   int epochs, size_t batch_size, double grad_clip) {
  std::vector<size_t> order(encoded.size());
  std::iota(order.begin(), order.end(), 0u);
  const size_t batch = std::max<size_t>(1, batch_size);
  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng->Shuffle(&order);
    double epoch_loss = 0.0;
    size_t in_batch = 0;
    const auto step = [&] {
      optimizer->ScaleGrads(1.0f / in_batch);
      optimizer->ClipGradNorm(grad_clip);
      optimizer->Step();
      in_batch = 0;
    };
    for (size_t i : order) {
      epoch_loss += model->TrainStep(encoded[i], positives[i]);
      if (++in_batch == batch) step();
    }
    if (in_batch > 0) step();
    last_epoch_loss = epoch_loss / order.size();
  }
  return last_epoch_loss;
}

// Registry-backed integrity counters: model files are saved/loaded from
// wherever a bench or test pleases — including ThreadPool lanes — so these
// must be atomic, not plain fields (the old GlobalModelIntegrity() struct
// raced under TSan).
Counter& IntegrityCounter(const char* name) {
  return MetricsRegistry::Global().counter(name);
}

}  // namespace

Result<WorkloadModel> WorkloadModel::Train(const Database& db,
                                           const Workload& workload,
                                           const PredictorOptions& options) {
  const auto start_time = std::chrono::steady_clock::now();
  WorkloadModel wm;
  wm.template_id_ = workload.template_id;
  wm.options_ = options;

  // Training subset (Figure 12b scales this down).
  std::vector<size_t> train = workload.train_indices;
  if (options.train_fraction < 1.0) {
    Pcg32 rng(options.seed, /*stream=*/0xf12b);
    rng.Shuffle(&train);
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(train.size() * options.train_fraction));
    train.resize(keep);
  }
  if (train.empty()) {
    return Status::InvalidArgument("workload has no training queries");
  }

  // Build the vocabulary and workload profile from training queries only.
  for (size_t qi : train) {
    const WorkloadQuery& q = workload.queries[qi];
    wm.vocab_.Add(q.tokens);
    for (const std::string& t : q.tokens) wm.token_profile_.insert(t);
    wm.structure_profile_.insert(q.structure_key);
  }

  // Label sets per training query.
  std::vector<ObjectPageSets> labels(train.size());
  std::map<ObjectId, std::map<uint32_t, uint32_t>> page_freq;
  for (size_t i = 0; i < train.size(); ++i) {
    labels[i] = ProcessTrace(workload.queries[train[i]].trace);
    for (const auto& [object, pages] : labels[i]) {
      for (uint32_t p : pages) ++page_freq[object][p];
    }
  }

  // Objects to model: everything accessed non-sequentially during training,
  // optionally restricted.
  std::vector<ObjectId> objects;
  for (const auto& [object, freq] : page_freq) {
    if (!options.restrict_objects.empty() &&
        std::find(options.restrict_objects.begin(),
                  options.restrict_objects.end(),
                  object) == options.restrict_objects.end()) {
      continue;
    }
    objects.push_back(object);
  }
  if (objects.empty()) {
    return Status::FailedPrecondition(
        "no non-sequentially accessed objects to model");
  }
  wm.modeled_objects_ = objects;

  // Build model units: output index -> PageId maps.
  std::vector<std::vector<PageId>> unit_outputs;
  if (options.top_k_pages > 0) {
    // One unit per object over its k most frequent pages.
    for (ObjectId object : objects) {
      std::vector<std::pair<uint32_t, uint32_t>> freq(
          page_freq[object].begin(), page_freq[object].end());
      std::sort(freq.begin(), freq.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;
      });
      if (freq.size() > options.top_k_pages) {
        freq.resize(options.top_k_pages);
      }
      std::vector<PageId> outputs;
      for (const auto& [page, count] : freq) {
        outputs.push_back(PageId{object, page});
      }
      std::sort(outputs.begin(), outputs.end());
      unit_outputs.push_back(std::move(outputs));
    }
  } else if (options.combined_index_table_model) {
    // Group objects by base table; one unit per group.
    std::map<ObjectId, std::vector<ObjectId>> groups;
    for (ObjectId object : objects) {
      groups[BaseObjectOf(db, object)].push_back(object);
    }
    for (const auto& [base, members] : groups) {
      std::vector<PageId> outputs;
      for (ObjectId object : members) {
        const uint32_t pages = db.catalog.ObjectPages(object);
        for (uint32_t p = 0; p < pages; ++p) {
          outputs.push_back(PageId{object, p});
        }
      }
      unit_outputs.push_back(std::move(outputs));
    }
  } else {
    // Default: one unit per object, split into partitions of at most
    // max_pages_per_model pages.
    for (ObjectId object : objects) {
      const uint32_t pages = db.catalog.ObjectPages(object);
      for (uint32_t lo = 0; lo < pages; lo += options.max_pages_per_model) {
        const uint32_t hi = std::min<uint32_t>(
            pages, lo + static_cast<uint32_t>(options.max_pages_per_model));
        std::vector<PageId> outputs;
        outputs.reserve(hi - lo);
        for (uint32_t p = lo; p < hi; ++p) {
          outputs.push_back(PageId{object, p});
        }
        unit_outputs.push_back(std::move(outputs));
      }
      if (pages == 0) {
        return Status::Internal("object with zero pages in catalog");
      }
    }
  }

  // Encode training inputs once.
  std::vector<std::vector<int32_t>> encoded(train.size());
  for (size_t i = 0; i < train.size(); ++i) {
    encoded[i] = wm.vocab_.Encode(workload.queries[train[i]].tokens);
  }

  // Train units in parallel on the shared pool. Each invocation touches
  // only unit u's state, so the schedule cannot affect the result.
  wm.units_.resize(unit_outputs.size());
  std::vector<double> final_losses(unit_outputs.size(), 0.0);
  auto train_unit = [&](size_t u) {
    Unit& unit = wm.units_[u];
    unit.output_pages = unit_outputs[u];
    unit.model = std::make_unique<PythiaModel>(
        wm.UnitConfig(unit.output_pages.size(), u));
    nn::Adam::Options adam;
    adam.lr = options.lr;
    nn::Adam optimizer(unit.model->Params(), adam);
    Pcg32 rng(options.seed + 1000 + u, /*stream=*/0x7a1);
    final_losses[u] = TrainEpochs(
        unit.model.get(), &optimizer, &rng, encoded,
        Positives(unit.output_pages, labels), options.epochs,
        options.batch_size, options.grad_clip);
  };
  ThreadPool::Global().ParallelFor(0, unit_outputs.size(), train_unit,
                                   options.num_threads);

  // Report.
  wm.report_.num_models = wm.units_.size();
  for (Unit& unit : wm.units_) {
    wm.report_.total_parameters += unit.model->NumParameters();
  }
  wm.report_.mean_final_loss =
      std::accumulate(final_losses.begin(), final_losses.end(), 0.0) /
      final_losses.size();
  wm.report_.train_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return wm;
}

WorkloadModel WorkloadModel::Clone() {
  WorkloadModel copy;
  copy.template_id_ = template_id_;
  copy.options_ = options_;
  copy.vocab_ = vocab_;
  copy.modeled_objects_ = modeled_objects_;
  copy.token_profile_ = token_profile_;
  copy.structure_profile_ = structure_profile_;
  copy.report_ = report_;
  copy.fingerprint_ = fingerprint_;
  copy.revision_ = revision_;
  copy.units_.resize(units_.size());
  for (size_t u = 0; u < units_.size(); ++u) {
    copy.units_[u].model = units_[u].model->Clone();
    copy.units_[u].output_pages = units_[u].output_pages;
    // incremental_opt is deliberately not cloned: it holds pointers into
    // the *original* model's parameters. The clone lazily builds its own on
    // its first incremental round.
  }
  return copy;
}

PythiaModelConfig WorkloadModel::UnitConfig(size_t num_outputs,
                                            size_t unit) const {
  PythiaModelConfig config;
  config.vocab_size = vocab_.size();
  config.num_outputs = num_outputs;
  config.embed_dim = options_.embed_dim;
  config.num_heads = options_.num_heads;
  config.ffn_dim = options_.ffn_dim;
  config.num_layers = options_.num_layers;
  config.decoder_hidden = options_.decoder_hidden;
  config.pos_weight = options_.pos_weight;
  config.seed = options_.seed + 31 * unit;
  return config;
}

IncrementalTrainReport WorkloadModel::IncrementalTrain(
    const std::vector<IncrementalSample>& samples,
    const IncrementalTrainOptions& options) {
  IncrementalTrainReport report;
  report.samples = samples.size();
  report.threshold = options_.threshold;
  if (samples.empty() || units_.empty()) {
    ++revision_;
    return report;
  }

  // Extend the vocabulary and match profiles with what the recent window
  // actually contains — drifted parameter tokens stop mapping to [UNK], and
  // drifted plan structures start matching the workload again.
  const size_t old_vocab = vocab_.size();
  for (const IncrementalSample& s : samples) {
    vocab_.Add(*s.tokens);
    for (const std::string& t : *s.tokens) token_profile_.insert(t);
    if (s.structure_key != nullptr) {
      structure_profile_.insert(*s.structure_key);
    }
  }
  report.new_tokens = vocab_.size() - old_vocab;
  report.grew_vocab = report.new_tokens > 0;
  report.optimizer_reset = report.grew_vocab;

  // Encode inputs and derive labels once, shared read-only by all units.
  std::vector<std::vector<int32_t>> encoded(samples.size());
  std::vector<ObjectPageSets> labels(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    encoded[i] = vocab_.Encode(*samples[i].tokens);
    labels[i] = ProcessTrace(*samples[i].trace);
  }

  std::vector<double> final_losses(units_.size(), 0.0);
  auto train_unit = [&](size_t u) {
    Unit& unit = units_[u];
    if (report.grew_vocab) unit.model->GrowVocab(vocab_.size());
    if (unit.incremental_opt == nullptr) {
      nn::Adam::Options adam;
      adam.lr = options.lr;
      unit.incremental_opt =
          std::make_unique<nn::Adam>(unit.model->Params(), adam);
    } else {
      unit.incremental_opt->set_lr(options.lr);
      // Vocabulary growth reshaped the embedding parameter, so stale Adam
      // moments no longer line up.
      if (report.optimizer_reset) unit.incremental_opt->ResetState();
    }
    Pcg32 rng(options.seed + 1000 + u, /*stream=*/0x7a2);
    final_losses[u] = TrainEpochs(
        unit.model.get(), unit.incremental_opt.get(), &rng, encoded,
        Positives(unit.output_pages, labels), options.epochs,
        options_.batch_size, options_.grad_clip);
  };
  ThreadPool::Global().ParallelFor(0, units_.size(), train_unit,
                                   options_.num_threads);

  report.mean_final_loss =
      std::accumulate(final_losses.begin(), final_losses.end(), 0.0) /
      final_losses.size();

  if (options.calibrate_threshold) {
    static constexpr float kGrid[] = {0.40f, 0.45f, 0.50f, 0.55f, 0.60f,
                                      0.65f, 0.70f, 0.75f, 0.80f};
    std::vector<std::unordered_set<PageId>> truths;
    truths.reserve(samples.size());
    for (const IncrementalSample& s : samples) {
      truths.push_back(GroundTruth(*s.trace));
    }
    // One logits pass per unit over every sample; each grid point only
    // re-thresholds the stored logits, which is what Predict at that
    // threshold would return.
    std::vector<const std::vector<int32_t>*> batch(samples.size());
    for (size_t i = 0; i < samples.size(); ++i) batch[i] = &encoded[i];
    std::vector<nn::Matrix> logits(units_.size());
    ThreadPool::Global().ParallelFor(
        0, units_.size(),
        [&](size_t u) { logits[u] = units_[u].model->LogitsBatch(batch); },
        options_.num_threads);
    float best_threshold = options_.threshold;
    double best_f1 = -1.0;
    double best_precision = -1.0;
    bool best_meets_floor = false;
    std::vector<uint32_t> picked;
    for (const float t : kGrid) {
      double f1 = 0.0;
      double precision = 0.0;
      for (size_t i = 0; i < samples.size(); ++i) {
        std::unordered_set<PageId> predicted;
        for (size_t u = 0; u < units_.size(); ++u) {
          units_[u].model->ThresholdLogits(logits[u].row(i), t, &picked);
          for (uint32_t idx : picked) {
            predicted.insert(units_[u].output_pages[idx]);
          }
        }
        const PrecisionRecall m = ComputeSetMetrics(predicted, truths[i]);
        f1 += m.f1;
        precision += m.precision;
      }
      f1 /= static_cast<double>(samples.size());
      precision /= static_cast<double>(samples.size());
      const bool meets = precision >= options.calibration_min_precision;
      const bool better = meets ? (!best_meets_floor || f1 > best_f1)
                                : (!best_meets_floor && precision > best_precision);
      if (better) {
        best_threshold = t;
        best_f1 = f1;
        best_precision = precision;
        best_meets_floor = meets;
      }
    }
    options_.threshold = best_threshold;
  }
  report.threshold = options_.threshold;

  // The model's predictive behaviour (weights, vocabulary, threshold
  // semantics) changed: memoized plans for the old revision must never be
  // served again.
  ++revision_;
  return report;
}

std::unordered_set<PageId> WorkloadModel::Predict(
    const std::vector<std::string>& tokens) {
  return std::move(PredictBatch({&tokens})[0]);
}

std::vector<std::unordered_set<PageId>> WorkloadModel::PredictBatch(
    const std::vector<const std::vector<std::string>*>& token_seqs) {
  std::vector<std::unordered_set<PageId>> out(token_seqs.size());
  if (token_seqs.empty()) return out;
  std::vector<std::vector<int32_t>> encoded(token_seqs.size());
  std::vector<const std::vector<int32_t>*> batch(token_seqs.size());
  for (size_t i = 0; i < token_seqs.size(); ++i) {
    encoded[i] = vocab_.Encode(*token_seqs[i]);
    batch[i] = &encoded[i];
  }
  // Per-unit inference fans out on the shared pool; each lane writes only
  // its unit's batch_scratch, and the merge walks units in order per query,
  // so every result set is identical to a sequential loop.
  ThreadPool::Global().ParallelFor(
      0, units_.size(),
      [&](size_t u) {
        units_[u].model->PredictBatchInto(batch, options_.threshold,
                                          &units_[u].batch_scratch);
      },
      options_.num_threads);
  for (size_t q = 0; q < token_seqs.size(); ++q) {
    for (Unit& unit : units_) {
      for (uint32_t idx : unit.batch_scratch[q]) {
        out[q].insert(unit.output_pages[idx]);
      }
    }
  }
  return out;
}

std::unordered_set<PageId> WorkloadModel::GroundTruth(
    const QueryTrace& trace) const {
  std::unordered_set<PageId> out;
  for (const PageId& page : trace.NonSequentialPages()) {
    if (std::find(modeled_objects_.begin(), modeled_objects_.end(),
                  page.object_id) != modeled_objects_.end()) {
      out.insert(page);
    }
  }
  return out;
}

double WorkloadModel::MatchScore(const std::vector<std::string>& tokens,
                                 const std::string& structure_key) const {
  if (structure_profile_.count(structure_key) > 0) return 1.0;
  if (tokens.empty()) return 0.0;
  size_t covered = 0;
  for (const std::string& t : tokens) covered += token_profile_.count(t);
  return static_cast<double>(covered) / tokens.size();
}


// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

namespace {

constexpr uint32_t kModelMagic = 0x5059574d;  // "PYWM"
// Version 2: GEMM kernels were rewritten (blocked/FMA); numerics differ
// slightly from version-1 checkpoints, so old caches must retrain.
// Version 3: integrity framing — the file is the durable frame
// (storage/durable.h: magic, version, payload size, payload CRC-32), written
// atomically (temp file + rename). A load that fails CRC or parse
// verification quarantines the file to <path>.corrupt and the caller
// retrains.
constexpr uint32_t kModelVersion = 3;

// The word where a sequential-removal policy id used to be stored. Every
// saved model held 0 there, so Save writes 0 and Fingerprint hashes the same
// four zero bytes: model files and cached-model fingerprints are unchanged.
// A file with any other value there is damaged.
constexpr uint32_t kReservedWord = 0;

}  // namespace

uint64_t WorkloadModel::Fingerprint(const PredictorOptions& options,
                                    const Workload& workload,
                                    uint64_t db_pages) {
  uint64_t h = kFnvOffsetBasis;
  h = FnvPod(h, kModelVersion);
  h = FnvPod(h, options.embed_dim);
  h = FnvPod(h, options.num_heads);
  h = FnvPod(h, options.ffn_dim);
  h = FnvPod(h, options.num_layers);
  h = FnvPod(h, options.decoder_hidden);
  h = FnvPod(h, options.pos_weight);
  h = FnvPod(h, options.threshold);
  h = FnvPod(h, options.epochs);
  h = FnvPod(h, options.batch_size);
  h = FnvPod(h, options.lr);
  h = FnvPod(h, options.grad_clip);
  h = FnvPod(h, options.train_fraction);
  h = FnvPod(h, options.seed);
  h = FnvPod(h, kReservedWord);
  h = FnvPod(h, options.max_pages_per_model);
  h = FnvPod(h, options.combined_index_table_model);
  h = FnvPod(h, options.top_k_pages);
  for (ObjectId o : options.restrict_objects) h = FnvPod(h, o);
  h = FnvPod(h, workload.template_id);
  h = FnvPod(h, workload.queries.size());
  h = FnvPod(h, workload.train_indices.size());
  h = FnvPod(h, db_pages);
  return h;
}

void WorkloadModel::WritePayload(ByteWriter* w) {
  w->Pod(fingerprint_);
  w->Pod(static_cast<uint32_t>(template_id_));
  // Architecture/config needed to rebuild units.
  w->Pod(options_.embed_dim);
  w->Pod(options_.num_heads);
  w->Pod(options_.ffn_dim);
  w->Pod(options_.num_layers);
  w->Pod(options_.decoder_hidden);
  w->Pod(options_.pos_weight);
  w->Pod(options_.threshold);
  w->Pod(options_.seed);
  w->Pod(kReservedWord);
  // Report.
  w->Pod(report_.train_seconds);
  w->Pod(static_cast<uint64_t>(report_.num_models));
  w->Pod(static_cast<uint64_t>(report_.total_parameters));
  w->Pod(report_.mean_final_loss);

  // Modeled objects.
  w->Pod(static_cast<uint32_t>(modeled_objects_.size()));
  for (ObjectId o : modeled_objects_) w->Pod(o);

  // Vocabulary in id order.
  w->Pod(static_cast<uint32_t>(vocab_.size()));
  for (size_t i = 0; i < vocab_.size(); ++i) {
    w->String<uint32_t>(vocab_.Token(static_cast<int32_t>(i)));
  }

  // Profiles, each in sorted order: a set's iteration order follows its
  // insertion history, and a loaded model must save to the same bytes.
  for (const auto* set : {&token_profile_, &structure_profile_}) {
    std::vector<const std::string*> sorted;
    sorted.reserve(set->size());
    for (const std::string& s : *set) sorted.push_back(&s);
    std::sort(sorted.begin(), sorted.end(),
              [](const std::string* a, const std::string* b) {
                return *a < *b;
              });
    w->Pod(static_cast<uint32_t>(sorted.size()));
    for (const std::string* s : sorted) w->String<uint32_t>(*s);
  }

  // Units.
  w->Pod(static_cast<uint32_t>(units_.size()));
  for (Unit& unit : units_) {
    w->Pod(static_cast<uint32_t>(unit.output_pages.size()));
    for (const PageId& p : unit.output_pages) w->Pod(p.Pack());
    nn::WriteParams(w, unit.model->Params());
  }
}

Result<FileIdentity> WorkloadModel::Save(const std::string& path,
                                        std::string* image) {
  ByteWriter payload;
  WritePayload(&payload);
  AtomicWriteSites sites;
  sites.pre_tmp = kCrashPreTmpWrite;
  sites.mid_payload = kCrashMidPayload;
  sites.pre_rename = kCrashPreRename;
  Result<FileIdentity> written = WriteFramedFile(
      path, kModelMagic, kModelVersion, payload.bytes(), sites, image);
  IntegrityCounter(written.ok() ? "model.atomic_saves" : "model.failed_saves")
      .Increment();
  return written;
}

Result<WorkloadModel> WorkloadModel::Load(const std::string& path,
                                          std::string* image) {
  Result<std::string> payload =
      ReadFramedFile(path, kModelMagic, kModelVersion, image);
  Status status = payload.status();
  if (payload.ok()) {
    ByteReader reader(payload.value());
    Result<WorkloadModel> wm = ParsePayload(&reader);
    if (wm.ok()) {
      IntegrityCounter("model.loads_ok").Increment();
      return wm;
    }
    status = Status::DataCorruption("model payload unparseable: " + path +
                                    ": " + wm.status().message());
  }
  if (status.code() == StatusCode::kNotFound) return status;
  if (status.code() == StatusCode::kFailedPrecondition) {
    IntegrityCounter("model.version_mismatches").Increment();
    return status;
  }
  IntegrityCounter("model.corrupt_files").Increment();
  if (QuarantineFile(path)) {
    IntegrityCounter("model.quarantined").Increment();
    PYTHIA_TRACE_INSTANT_CTX("model", "quarantine");
  }
  return Status::DataCorruption(status.message());
}

Result<WorkloadModel> WorkloadModel::ParsePayload(ByteReader* r) {
  const Status corrupt = Status::DataCorruption("truncated or lying field");
  WorkloadModel wm;
  uint32_t template_id = 0, reserved = 0;
  uint64_t num_models = 0, total_params = 0;
  r->Pod(&wm.fingerprint_);
  r->Pod(&template_id);
  r->Pod(&wm.options_.embed_dim);
  r->Pod(&wm.options_.num_heads);
  r->Pod(&wm.options_.ffn_dim);
  r->Pod(&wm.options_.num_layers);
  r->Pod(&wm.options_.decoder_hidden);
  r->Pod(&wm.options_.pos_weight);
  r->Pod(&wm.options_.threshold);
  r->Pod(&wm.options_.seed);
  r->Pod(&reserved);
  r->Pod(&wm.report_.train_seconds);
  r->Pod(&num_models);
  r->Pod(&total_params);
  r->Pod(&wm.report_.mean_final_loss);
  if (template_id > static_cast<uint32_t>(kLastTemplateId) ||
      reserved != kReservedWord) {
    return corrupt;
  }
  wm.template_id_ = static_cast<TemplateId>(template_id);
  wm.report_.num_models = num_models;
  wm.report_.total_parameters = total_params;

  uint32_t count = 0;
  if (!r->Count(&count, sizeof(ObjectId))) return corrupt;
  wm.modeled_objects_.resize(count);
  for (ObjectId& o : wm.modeled_objects_) r->Pod(&o);

  // Every string starts with its u32 length.
  if (!r->Count(&count, sizeof(uint32_t))) return corrupt;
  std::vector<std::string> tokens(count);
  for (std::string& t : tokens) r->String<uint32_t>(&t);
  wm.vocab_.Add(tokens);  // [UNK] is id 0 in both
  if (r->failed() || wm.vocab_.size() != count) {
    return Status::DataCorruption("vocabulary reconstruction mismatch");
  }

  for (auto* set : {&wm.token_profile_, &wm.structure_profile_}) {
    if (!r->Count(&count, sizeof(uint32_t))) return corrupt;
    for (uint32_t i = 0; i < count; ++i) {
      std::string s;
      if (!r->String<uint32_t>(&s)) return corrupt;
      set->insert(std::move(s));
    }
  }

  // Every unit starts with its u32 output count.
  if (!r->Count(&count, sizeof(uint32_t))) return corrupt;
  wm.units_.resize(count);
  for (size_t u = 0; u < wm.units_.size(); ++u) {
    Unit& unit = wm.units_[u];
    uint32_t num_outputs = 0;
    if (!r->Count(&num_outputs, sizeof(uint64_t))) return corrupt;
    unit.output_pages.resize(num_outputs);
    for (PageId& p : unit.output_pages) {
      uint64_t packed = 0;
      r->Pod(&packed);
      p = PageId::Unpack(packed);
    }
    const PythiaModelConfig config = wm.UnitConfig(num_outputs, u);
    // Attention splits embed_dim into num_heads heads of at least one
    // column, and the parameter block that follows stores every weight this
    // config implies: a shape outside those bounds is a lying architecture
    // field, not a model to allocate.
    if (r->failed() || config.num_heads == 0 ||
        config.num_heads > config.embed_dim ||
        MinWeightFloats(config) * sizeof(float) >
            static_cast<double>(r->remaining())) {
      return corrupt;
    }
    unit.model = std::make_unique<PythiaModel>(config);
    Status s = nn::ReadParams(r, unit.model->Params());
    if (!s.ok()) return s;
  }
  if (!r->done()) return Status::DataCorruption("trailing payload bytes");
  return wm;
}

std::string SidecarPath(const std::string& path) { return path + ".lkg"; }

Result<FileIdentity> PublishModel(WorkloadModel& model,
                                  const std::string& path) {
  std::string image;
  Result<FileIdentity> primary = model.Save(path, &image);
  if (!primary.ok()) return primary.status();
  // The window a kill would land in between the primary's rename and the
  // sidecar write: the sidecar (and any manifest) still describes an older
  // primary than the one on disk.
  if (CrashPointRegistry::Global().Check(kCrashPostRenamePreSidecar)) {
    return Status::Aborted(
        "simulated crash between model publish and lkg sidecar: " + path);
  }
  Result<FileIdentity> sidecar =
      WriteFileAtomic(SidecarPath(path), image.data(), image.size());
  if (!sidecar.ok()) return sidecar.status();
  IntegrityCounter("model.lkg_snapshots").Increment();
  return primary;
}

Result<StoredModel> LoadStoredModel(const std::string& path,
                                    uint64_t fingerprint) {
  const std::string sidecar = SidecarPath(path);
  std::string image;
  Result<WorkloadModel> primary = WorkloadModel::Load(path, &image);
  if (primary.ok() && primary->fingerprint() == fingerprint) {
    // A healthy primary is the freshest possible snapshot: make the sidecar
    // its copy again if a crash left it stale, or damage or cleanup lost it.
    Result<std::string> copy = ReadFileBytes(sidecar);
    if ((!copy.ok() || copy.value() != image) &&
        WriteFileAtomic(sidecar, image.data(), image.size()).ok()) {
      IntegrityCounter("model.lkg_snapshots").Increment();
    }
    return StoredModel{std::move(primary.value()), false,
                       FileIdentity::Of(image)};
  }
  // The primary is missing, corrupt (Load quarantined it) or another
  // configuration's model: the validated snapshot is cheaper than a retrain
  // and holds weights the system already trusted.
  Result<WorkloadModel> restored = WorkloadModel::Load(sidecar, &image);
  if (restored.ok() && restored->fingerprint() == fingerprint) {
    IntegrityCounter("model.lkg_restores").Increment();
    PYTHIA_TRACE_INSTANT_CTX("model", "lkg_restore");
    // Re-publish the snapshot's bytes as the primary so the next start
    // loads it directly instead of restoring again.
    WriteFileAtomic(path, image.data(), image.size());
    return StoredModel{std::move(restored.value()), true,
                       FileIdentity::Of(image)};
  }
  if (!primary.ok()) return primary.status();
  return Status::FailedPrecondition("stored model has another fingerprint: " +
                                    path);
}

Result<WorkloadModel> GetOrTrainWorkloadModel(const std::string& cache_path,
                                              const Database& db,
                                              const Workload& workload,
                                              const PredictorOptions& options) {
  const uint64_t want =
      WorkloadModel::Fingerprint(options, workload, db.TotalPages());
  Result<StoredModel> stored = LoadStoredModel(cache_path, want);
  if (stored.ok()) {
    // Threshold may be swept without retraining: adopt the requested one.
    stored->model.set_threshold(options.threshold);
    return std::move(stored->model);
  }
  if (stored.status().code() == StatusCode::kDataCorruption) {
    // No snapshot validates either — self-heal by retraining from scratch.
    IntegrityCounter("model.retrains_after_corruption").Increment();
    PYTHIA_TRACE_INSTANT_CTX("model", "retrain_after_corruption");
  }
  Result<WorkloadModel> fresh = WorkloadModel::Train(db, workload, options);
  if (!fresh.ok()) return fresh;
  fresh->set_fingerprint(want);
  const Status published = PublishModel(*fresh, cache_path).status();
  if (published.code() == StatusCode::kAborted) {
    // A crash site fired inside the publish: the simulated process is dead,
    // so the freshly trained weights must not escape into memory either.
    return published;
  }
  if (!published.ok()) {
    std::fprintf(stderr, "warning: could not cache model to %s: %s\n",
                 cache_path.c_str(), published.ToString().c_str());
  }
  return fresh;
}

}  // namespace pythia
