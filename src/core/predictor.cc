#include "core/predictor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>

#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "storage/durable.h"
#include "util/crc32.h"
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
    labels[i] = ProcessTrace(workload.queries[train[i]].trace,
                             options.removal);
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
    const std::vector<PageId>& outputs = unit_outputs[u];

    // Per-query positive output indices for this unit.
    std::unordered_map<PageId, uint32_t> to_output;
    to_output.reserve(outputs.size());
    for (uint32_t i = 0; i < outputs.size(); ++i) {
      to_output[outputs[i]] = i;
    }
    std::vector<std::vector<uint32_t>> positives(train.size());
    for (size_t i = 0; i < train.size(); ++i) {
      for (const auto& [object, pages] : labels[i]) {
        for (uint32_t p : pages) {
          auto it = to_output.find(PageId{object, p});
          if (it != to_output.end()) positives[i].push_back(it->second);
        }
      }
    }

    PythiaModelConfig config;
    config.vocab_size = wm.vocab_.size();
    config.num_outputs = outputs.size();
    config.embed_dim = options.embed_dim;
    config.num_heads = options.num_heads;
    config.ffn_dim = options.ffn_dim;
    config.num_layers = options.num_layers;
    config.decoder_hidden = options.decoder_hidden;
    config.pos_weight = options.pos_weight;
    config.seed = options.seed + 31 * u;

    Unit& unit = wm.units_[u];
    unit.model = std::make_unique<PythiaModel>(config);
    unit.output_pages = outputs;

    nn::Adam::Options adam;
    adam.lr = options.lr;
    nn::Adam optimizer(unit.model->Params(), adam);

    Pcg32 rng(options.seed + 1000 + u, /*stream=*/0x7a1);
    std::vector<size_t> order(train.size());
    std::iota(order.begin(), order.end(), 0u);
    const size_t batch = std::max<size_t>(1, options.batch_size);
    double last_epoch_loss = 0.0;
    for (int epoch = 0; epoch < options.epochs; ++epoch) {
      rng.Shuffle(&order);
      double epoch_loss = 0.0;
      size_t in_batch = 0;
      for (size_t i : order) {
        epoch_loss += unit.model->TrainStep(encoded[i], positives[i]);
        if (++in_batch == batch) {
          optimizer.ScaleGrads(1.0f / in_batch);
          optimizer.ClipGradNorm(options.grad_clip);
          optimizer.Step();
          in_batch = 0;
        }
      }
      if (in_batch > 0) {
        optimizer.ScaleGrads(1.0f / in_batch);
        optimizer.ClipGradNorm(options.grad_clip);
        optimizer.Step();
      }
      last_epoch_loss = epoch_loss / order.size();
    }
    final_losses[u] = last_epoch_loss;
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
  report.optimizer_reset = options.reset_optimizer_state || report.grew_vocab;

  // Encode inputs and derive labels once, shared read-only by all units.
  std::vector<std::vector<int32_t>> encoded(samples.size());
  std::vector<ObjectPageSets> labels(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    encoded[i] = vocab_.Encode(*samples[i].tokens);
    labels[i] = ProcessTrace(*samples[i].trace, options_.removal);
  }

  std::vector<double> final_losses(units_.size(), 0.0);
  auto train_unit = [&](size_t u) {
    Unit& unit = units_[u];
    if (report.grew_vocab) unit.model->GrowVocab(vocab_.size());

    std::unordered_map<PageId, uint32_t> to_output;
    to_output.reserve(unit.output_pages.size());
    for (uint32_t i = 0; i < unit.output_pages.size(); ++i) {
      to_output[unit.output_pages[i]] = i;
    }
    std::vector<std::vector<uint32_t>> positives(samples.size());
    for (size_t i = 0; i < samples.size(); ++i) {
      for (const auto& [object, pages] : labels[i]) {
        for (uint32_t p : pages) {
          auto it = to_output.find(PageId{object, p});
          if (it != to_output.end()) positives[i].push_back(it->second);
        }
      }
    }

    if (unit.incremental_opt == nullptr) {
      nn::Adam::Options adam;
      adam.lr = options.lr;
      unit.incremental_opt =
          std::make_unique<nn::Adam>(unit.model->Params(), adam);
    } else {
      unit.incremental_opt->set_lr(options.lr);
      // Vocabulary growth reshaped the embedding parameter, so stale Adam
      // moments no longer line up — a reset is mandatory then, optional
      // (policy) otherwise.
      if (report.optimizer_reset) unit.incremental_opt->ResetState();
    }
    nn::Adam& optimizer = *unit.incremental_opt;

    Pcg32 rng(options.seed + 1000 + u, /*stream=*/0x7a2);
    std::vector<size_t> order(samples.size());
    std::iota(order.begin(), order.end(), 0u);
    const size_t batch = std::max<size_t>(1, options_.batch_size);
    double last_epoch_loss = 0.0;
    for (int epoch = 0; epoch < options.epochs; ++epoch) {
      rng.Shuffle(&order);
      double epoch_loss = 0.0;
      size_t in_batch = 0;
      for (size_t i : order) {
        epoch_loss += unit.model->TrainStep(encoded[i], positives[i]);
        if (++in_batch == batch) {
          optimizer.ScaleGrads(1.0f / in_batch);
          optimizer.ClipGradNorm(options_.grad_clip);
          optimizer.Step();
          in_batch = 0;
        }
      }
      if (in_batch > 0) {
        optimizer.ScaleGrads(1.0f / in_batch);
        optimizer.ClipGradNorm(options_.grad_clip);
        optimizer.Step();
      }
      last_epoch_loss = epoch_loss / order.size();
    }
    final_losses[u] = last_epoch_loss;
  };
  ThreadPool::Global().ParallelFor(0, units_.size(), train_unit,
                                   options_.num_threads);

  report.mean_final_loss =
      std::accumulate(final_losses.begin(), final_losses.end(), 0.0) /
      final_losses.size();

  if (options.calibrate_threshold) {
    static constexpr float kGrid[] = {0.40f, 0.45f, 0.50f, 0.55f, 0.60f,
                                      0.65f, 0.70f, 0.75f, 0.80f};
    const float original = options_.threshold;
    float best_threshold = original;
    double best_f1 = -1.0;
    double best_precision = -1.0;
    bool best_meets_floor = false;
    for (const float t : kGrid) {
      options_.threshold = t;
      double f1 = 0.0;
      double precision = 0.0;
      for (size_t i = 0; i < samples.size(); ++i) {
        const PrecisionRecall m = ComputeSetMetrics(
            Predict(*samples[i].tokens), RestrictToModeled(labels[i]));
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
    report.threshold_changed = best_threshold != original;
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

std::unordered_set<PageId> WorkloadModel::RestrictToModeled(
    const ObjectPageSets& sets) const {
  std::unordered_set<PageId> out;
  for (const auto& [object, pages] : sets) {
    if (std::find(modeled_objects_.begin(), modeled_objects_.end(), object) ==
        modeled_objects_.end()) {
      continue;
    }
    for (uint32_t p : pages) out.insert(PageId{object, p});
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
// Version 3: integrity framing — the file is [magic, version, payload size,
// payload CRC-32][payload], written atomically (temp file + rename). A load
// that fails CRC or parse verification quarantines the file to
// <path>.corrupt and the caller retrains.
constexpr uint32_t kModelVersion = 3;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Moves a file that failed integrity verification out of the cache lookup
// path so the next GetOrTrainWorkloadModel retrains instead of tripping on
// it again; the quarantined copy stays on disk for postmortems.
void QuarantineModelFile(const std::string& path) {
  const std::string quarantine = path + ".corrupt";
  std::remove(quarantine.c_str());
  if (std::rename(path.c_str(), quarantine.c_str()) == 0) {
    IntegrityCounter("model.quarantined").Increment();
    PYTHIA_TRACE_INSTANT_CTX("model", "quarantine");
    std::fprintf(stderr, "warning: quarantined corrupt model file %s -> %s\n",
                 path.c_str(), quarantine.c_str());
  }
}

template <typename T>
bool WritePod(std::FILE* f, const T& v) {
  return std::fwrite(&v, sizeof(v), 1, f) == 1;
}

template <typename T>
bool ReadPod(std::FILE* f, T* v) {
  return std::fread(v, sizeof(*v), 1, f) == 1;
}

bool WriteString(std::FILE* f, const std::string& s) {
  const uint32_t len = static_cast<uint32_t>(s.size());
  return WritePod(f, len) && std::fwrite(s.data(), 1, len, f) == len;
}

bool ReadString(std::FILE* f, std::string* s) {
  uint32_t len = 0;
  if (!ReadPod(f, &len)) return false;
  s->resize(len);
  return std::fread(s->data(), 1, len, f) == len;
}

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
  h = FnvPod(h, options.removal);
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

Status WorkloadModel::WritePayload(std::FILE* f) {
  bool ok = WritePod(f, fingerprint_) &&
            WritePod(f, static_cast<uint32_t>(template_id_));
  // Architecture/config needed to rebuild units.
  ok = ok && WritePod(f, options_.embed_dim) &&
       WritePod(f, options_.num_heads) &&
       WritePod(f, options_.ffn_dim) &&
       WritePod(f, options_.num_layers) &&
       WritePod(f, options_.decoder_hidden) &&
       WritePod(f, options_.pos_weight) &&
       WritePod(f, options_.threshold) &&
       WritePod(f, options_.seed) &&
       WritePod(f, static_cast<uint32_t>(options_.removal));
  // Report.
  ok = ok && WritePod(f, report_.train_seconds) &&
       WritePod(f, static_cast<uint64_t>(report_.num_models)) &&
       WritePod(f, static_cast<uint64_t>(report_.total_parameters)) &&
       WritePod(f, report_.mean_final_loss);
  if (!ok) return Status::IoError("payload write failed");

  // Modeled objects.
  if (!WritePod(f, static_cast<uint32_t>(modeled_objects_.size()))) {
    return Status::IoError("payload write failed");
  }
  for (ObjectId o : modeled_objects_) {
    if (!WritePod(f, o)) return Status::IoError("payload write failed");
  }

  // Vocabulary in id order.
  if (!WritePod(f, static_cast<uint32_t>(vocab_.size()))) {
    return Status::IoError("payload write failed");
  }
  for (size_t i = 0; i < vocab_.size(); ++i) {
    if (!WriteString(f, vocab_.Token(static_cast<int32_t>(i)))) {
      return Status::IoError("payload write failed");
    }
  }

  // Profiles.
  auto write_set = [&](const std::unordered_set<std::string>& set) {
    if (!WritePod(f, static_cast<uint32_t>(set.size()))) return false;
    for (const std::string& s : set) {
      if (!WriteString(f, s)) return false;
    }
    return true;
  };
  if (!write_set(token_profile_) || !write_set(structure_profile_)) {
    return Status::IoError("payload write failed");
  }

  // Units.
  if (!WritePod(f, static_cast<uint32_t>(units_.size()))) {
    return Status::IoError("payload write failed");
  }
  for (size_t u = 0; u < units_.size(); ++u) {
    Unit& unit = units_[u];
    if (!WritePod(f, static_cast<uint32_t>(unit.output_pages.size()))) {
      return Status::IoError("payload write failed");
    }
    for (const PageId& p : unit.output_pages) {
      const uint64_t packed = p.Pack();
      if (!WritePod(f, packed)) return Status::IoError("payload write failed");
    }
    Status s = nn::WriteParams(f, unit.model->Params());
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status WorkloadModel::Save(const std::string& path) {
  // Serialize the payload into memory first: the header needs its size and
  // CRC-32, and a memory buffer means the file publishes in one pass.
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  if (mem == nullptr) {
    IntegrityCounter("model.failed_saves").Increment();
    return Status::Internal("open_memstream failed");
  }
  Status payload_status = WritePayload(mem);
  std::fclose(mem);  // flushes buf/len
  std::unique_ptr<char, decltype(&std::free)> owned(buf, &std::free);
  if (!payload_status.ok()) {
    IntegrityCounter("model.failed_saves").Increment();
    return payload_status;
  }

  // Header + payload in one buffer, published through the durable-write
  // gateway (storage/durable.h): tmp write -> fsync -> rename, with the
  // crash-point windows named so a kill sweep can land in each of them. A
  // crash or torn write leaves either the old file or a .tmp that no loader
  // ever opens — never a half-written .pywm.
  std::string file;
  file.reserve(sizeof(uint32_t) * 3 + sizeof(uint64_t) + len);
  auto append_pod = [&file](const auto& v) {
    file.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const uint64_t payload_size = len;
  const uint32_t payload_crc = Crc32(buf, len);
  append_pod(kModelMagic);
  append_pod(kModelVersion);
  append_pod(payload_size);
  append_pod(payload_crc);
  if (len > 0) file.append(buf, len);

  AtomicWriteSites sites;
  sites.pre_tmp = kCrashPreTmpWrite;
  sites.mid_payload = kCrashMidPayload;
  sites.pre_rename = kCrashPreRename;
  Status s = WriteFileAtomic(path, file.data(), file.size(), sites);
  if (!s.ok()) {
    IntegrityCounter("model.failed_saves").Increment();
    return s;
  }
  IntegrityCounter("model.atomic_saves").Increment();
  return Status::OK();
}

Result<WorkloadModel> WorkloadModel::Load(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("no cached model at: " + path);

  uint32_t magic = 0;
  if (!ReadPod(f.get(), &magic) || magic != kModelMagic) {
    f.reset();
    IntegrityCounter("model.corrupt_files").Increment();
    QuarantineModelFile(path);
    return Status::DataCorruption("bad magic in model file: " + path);
  }
  // A file truncated inside the version field is corruption (quarantine),
  // not a stale cache — only a fully readable, different version is treated
  // as a clean mismatch the caller may retrain over without quarantining.
  uint32_t version = 0;
  if (!ReadPod(f.get(), &version)) {
    f.reset();
    IntegrityCounter("model.corrupt_files").Increment();
    QuarantineModelFile(path);
    return Status::DataCorruption("truncated model header: " + path);
  }
  if (version != kModelVersion) {
    IntegrityCounter("model.version_mismatches").Increment();
    return Status::FailedPrecondition("model cache version mismatch: " + path);
  }

  uint64_t payload_size = 0;
  uint32_t payload_crc = 0;
  bool ok = ReadPod(f.get(), &payload_size) && ReadPod(f.get(), &payload_crc);
  // Validate the declared size against the actual file size before
  // allocating: a bit-flipped length field must not drive a huge resize,
  // and truncation or trailing garbage are both corruption.
  if (ok) {
    const long payload_start = std::ftell(f.get());
    ok = payload_start >= 0 && std::fseek(f.get(), 0, SEEK_END) == 0;
    if (ok) {
      const long file_size = std::ftell(f.get());
      ok = file_size >= payload_start &&
           static_cast<uint64_t>(file_size - payload_start) == payload_size &&
           std::fseek(f.get(), payload_start, SEEK_SET) == 0;
    }
  }
  std::string payload;
  if (ok && payload_size > 0) {
    payload.resize(payload_size);
    ok = std::fread(payload.data(), 1, payload.size(), f.get()) ==
         payload.size();
  }
  if (ok) ok = Crc32(payload.data(), payload.size()) == payload_crc;
  f.reset();
  if (!ok) {
    IntegrityCounter("model.corrupt_files").Increment();
    QuarantineModelFile(path);
    return Status::DataCorruption("model file failed CRC verification: " +
                                  path);
  }

  // The buffer is verified; parse it through the same FILE* readers.
  std::FILE* pf = fmemopen(payload.data(), payload.size(), "rb");
  if (pf == nullptr) {
    IntegrityCounter("model.corrupt_files").Increment();
    QuarantineModelFile(path);
    return Status::DataCorruption("empty model payload: " + path);
  }
  Result<WorkloadModel> wm = ParsePayload(pf, path);
  std::fclose(pf);
  if (!wm.ok()) {
    IntegrityCounter("model.corrupt_files").Increment();
    QuarantineModelFile(path);
    return Status::DataCorruption("model payload unparseable: " + path + ": " +
                                  wm.status().message());
  }
  IntegrityCounter("model.loads_ok").Increment();
  return wm;
}

Result<WorkloadModel> WorkloadModel::ParsePayload(std::FILE* f,
                                                  const std::string& path) {
  uint32_t template_id = 0, removal = 0;
  WorkloadModel wm;
  bool ok = ReadPod(f, &wm.fingerprint_) &&
            ReadPod(f, &template_id);
  ok = ok && ReadPod(f, &wm.options_.embed_dim) &&
       ReadPod(f, &wm.options_.num_heads) &&
       ReadPod(f, &wm.options_.ffn_dim) &&
       ReadPod(f, &wm.options_.num_layers) &&
       ReadPod(f, &wm.options_.decoder_hidden) &&
       ReadPod(f, &wm.options_.pos_weight) &&
       ReadPod(f, &wm.options_.threshold) &&
       ReadPod(f, &wm.options_.seed) && ReadPod(f, &removal);
  uint64_t num_models = 0, total_params = 0;
  ok = ok && ReadPod(f, &wm.report_.train_seconds) &&
       ReadPod(f, &num_models) && ReadPod(f, &total_params) &&
       ReadPod(f, &wm.report_.mean_final_loss);
  if (!ok) return Status::IoError("corrupt model file: " + path);
  wm.template_id_ = static_cast<TemplateId>(template_id);
  wm.options_.removal = static_cast<SequentialRemoval>(removal);
  wm.report_.num_models = num_models;
  wm.report_.total_parameters = total_params;

  uint32_t count = 0;
  if (!ReadPod(f, &count)) return Status::IoError("corrupt: " + path);
  for (uint32_t i = 0; i < count; ++i) {
    ObjectId o = 0;
    if (!ReadPod(f, &o)) return Status::IoError("corrupt: " + path);
    wm.modeled_objects_.push_back(o);
  }

  if (!ReadPod(f, &count)) return Status::IoError("corrupt: " + path);
  std::vector<std::string> tokens;
  for (uint32_t i = 0; i < count; ++i) {
    std::string s;
    if (!ReadString(f, &s)) return Status::IoError("corrupt: " + path);
    tokens.push_back(std::move(s));
  }
  wm.vocab_.Add(tokens);  // [UNK] is id 0 in both
  if (wm.vocab_.size() != count) {
    return Status::Internal("vocabulary reconstruction mismatch");
  }

  auto read_set = [&](std::unordered_set<std::string>* set) {
    uint32_t n = 0;
    if (!ReadPod(f, &n)) return false;
    for (uint32_t i = 0; i < n; ++i) {
      std::string s;
      if (!ReadString(f, &s)) return false;
      set->insert(std::move(s));
    }
    return true;
  };
  if (!read_set(&wm.token_profile_) || !read_set(&wm.structure_profile_)) {
    return Status::IoError("corrupt: " + path);
  }

  uint32_t num_units = 0;
  if (!ReadPod(f, &num_units)) return Status::IoError("corrupt");
  wm.units_.resize(num_units);
  for (uint32_t u = 0; u < num_units; ++u) {
    Unit& unit = wm.units_[u];
    uint32_t num_outputs = 0;
    if (!ReadPod(f, &num_outputs)) return Status::IoError("corrupt");
    unit.output_pages.reserve(num_outputs);
    for (uint32_t i = 0; i < num_outputs; ++i) {
      uint64_t packed = 0;
      if (!ReadPod(f, &packed)) return Status::IoError("corrupt");
      unit.output_pages.push_back(PageId::Unpack(packed));
    }
    PythiaModelConfig config;
    config.vocab_size = wm.vocab_.size();
    config.num_outputs = num_outputs;
    config.embed_dim = wm.options_.embed_dim;
    config.num_heads = wm.options_.num_heads;
    config.ffn_dim = wm.options_.ffn_dim;
    config.num_layers = wm.options_.num_layers;
    config.decoder_hidden = wm.options_.decoder_hidden;
    config.pos_weight = wm.options_.pos_weight;
    config.seed = wm.options_.seed + 31 * u;
    unit.model = std::make_unique<PythiaModel>(config);
    Status s = nn::ReadParams(f, unit.model->Params());
    if (!s.ok()) return s;
  }
  return wm;
}

namespace {

// Raw byte copy via the durable-write gateway (same atomic-publish
// discipline as WorkloadModel::Save, without re-serializing — and without
// double-counting model.atomic_saves). Used to maintain the last-known-good
// snapshot next to the primary cache file.
bool CopyModelFile(const std::string& from, const std::string& to) {
  return CopyFileAtomic(from, to).ok();
}

bool FileExists(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  return f != nullptr;
}

}  // namespace

Result<WorkloadModel> GetOrTrainWorkloadModel(const std::string& cache_path,
                                              const Database& db,
                                              const Workload& workload,
                                              const PredictorOptions& options) {
  const uint64_t want =
      WorkloadModel::Fingerprint(options, workload, db.TotalPages());
  const std::string lkg_path = cache_path + ".lkg";
  Result<WorkloadModel> cached = WorkloadModel::Load(cache_path);
  if (cached.ok() && cached->fingerprint() == want) {
    // Threshold may be swept without retraining: adopt the requested one.
    cached->set_threshold(options.threshold);
    // A healthy primary is also the freshest possible snapshot: (re)create
    // the last-known-good copy if a crash or cleanup lost it.
    if (!FileExists(lkg_path) && CopyModelFile(cache_path, lkg_path)) {
      IntegrityCounter("model.lkg_snapshots").Increment();
    }
    return cached;
  }
  // The primary cache is corrupt (Load quarantined it). Before falling all
  // the way back to a from-scratch retrain, try the last-known-good
  // snapshot: restoring a validated snapshot is strictly cheaper and keeps
  // serving the same weights the system already trusted.
  if (!cached.ok() && cached.status().code() == StatusCode::kDataCorruption) {
    Result<WorkloadModel> snapshot = WorkloadModel::Load(lkg_path);
    if (snapshot.ok() && snapshot->fingerprint() == want) {
      IntegrityCounter("model.lkg_restores").Increment();
      PYTHIA_TRACE_INSTANT_CTX("model", "lkg_restore");
      // Re-publish the snapshot as the primary so the next process loads
      // it directly instead of restoring again.
      CopyModelFile(lkg_path, cache_path);
      snapshot->set_threshold(options.threshold);
      return snapshot;
    }
    // No snapshot validates — self-heal by retraining from scratch.
    IntegrityCounter("model.retrains_after_corruption").Increment();
    PYTHIA_TRACE_INSTANT_CTX("model", "retrain_after_corruption");
  }
  Result<WorkloadModel> fresh = WorkloadModel::Train(db, workload, options);
  if (!fresh.ok()) return fresh;
  fresh->set_fingerprint(want);
  Status s = fresh->Save(cache_path);
  if (s.code() == StatusCode::kAborted) {
    // A crash site fired inside the publish: the simulated process is dead,
    // so the freshly trained weights must not escape into memory either.
    return s;
  }
  if (!s.ok()) {
    std::fprintf(stderr, "warning: could not cache model to %s: %s\n",
                 cache_path.c_str(), s.ToString().c_str());
  } else if (CrashPointRegistry::Global().Check(kCrashPostRenamePreSidecar)) {
    // The primary published but the kill landed before the .lkg sidecar
    // copy — the exact window the recovery path must heal on next start.
    return Status::Aborted(
        "simulated crash between model publish and lkg sidecar: " +
        cache_path);
  } else if (CopyModelFile(cache_path, lkg_path)) {
    IntegrityCounter("model.lkg_snapshots").Increment();
  }
  return fresh;
}

}  // namespace pythia
