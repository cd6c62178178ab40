// Pythia's hybrid predictive model (Figure 3 of the paper): a transformer
// encoder produces a query embedding from the serialized plan; a feedforward
// decoder turns that embedding into multi-label page-access logits, trained
// end-to-end with BCE-with-logits.
//
// Paper defaults: 100-dim embeddings, 2 encoder layers with 10 heads,
// decoder hidden size 800. This implementation uses the same architecture
// at a configurable (default smaller) width, sized to the simulated
// database.
#ifndef PYTHIA_CORE_MODEL_H_
#define PYTHIA_CORE_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "util/rng.h"

namespace pythia {

struct PythiaModelConfig {
  size_t vocab_size = 0;     // set from the training vocabulary
  size_t num_outputs = 0;    // pages of the target database object (segment)
  size_t embed_dim = 32;
  size_t num_heads = 4;
  size_t ffn_dim = 128;
  size_t num_layers = 2;
  size_t decoder_hidden = 128;
  float pos_weight = 8.0f;   // BCE positive-class weight (labels are sparse)
  uint64_t seed = 99;
};

// Floats in the weight matrices a model of `config` holds: the embedding
// table, each encoder layer's four attention projections and two FFN
// matrices, and the two decoder matrices. Biases and norms only add to the
// parameter count, so this is a lower bound; a loader checks it against the
// bytes a file backs before it allocates a model. Computed in double, so no
// dimension read from a file can wrap it.
double MinWeightFloats(const PythiaModelConfig& config);

class PythiaModel {
 public:
  explicit PythiaModel(const PythiaModelConfig& config);

  // Forward pass: logits over the output pages, shape (1 x num_outputs).
  nn::Matrix Forward(const std::vector<int32_t>& tokens);

  // One training sample: forward, BCE-with-logits against the positive page
  // indices, backward, gradient accumulation. Returns the loss. The caller
  // owns the optimizer step (so minibatches are possible).
  double TrainStep(const std::vector<int32_t>& tokens,
                   const std::vector<uint32_t>& positive_outputs);

  // Output indices whose sigmoid probability is >= threshold: a one-row
  // PredictBatchInto.
  std::vector<uint32_t> Predict(const std::vector<int32_t>& tokens,
                                float threshold = 0.5f);

  // Batch-dim inference, the one inference path: one index list per
  // request. The encoder stays per-sequence (attention mixes rows within a
  // sequence and lengths differ), but the B query representations are
  // gathered into one (B x embed_dim) scratch matrix and pushed through the
  // decoder as two fused multi-row GEMMs (matmul+bias(+relu) into member
  // scratch) — the amortization the batched prediction engine
  // (core/batch_predictor.h) exists for. Every output row is bit-identical
  // to a one-row call on the same tokens: the GEMM kernels compute each
  // output row with the same k-loop order regardless of the row count
  // (nn/matrix.cc), and the bias/ReLU epilogues and the logit thresholding
  // are row-wise. out is resized to batch.size().
  void PredictBatchInto(const std::vector<const std::vector<int32_t>*>& batch,
                        float threshold,
                        std::vector<std::vector<uint32_t>>* out);

  nn::ParamList Params();
  const PythiaModelConfig& config() const { return config_; }

  // Deep copy: a fresh model with identical config, weights and RNG state.
  // The clone is fully independent — training it never perturbs the
  // original — which is what the online-adaptation path needs to build a
  // candidate model off the live one.
  std::unique_ptr<PythiaModel> Clone();

  // Grows the embedding table for an extended vocabulary (ids
  // [old, new_vocab_size) become valid). Existing weights are untouched, so
  // predictions for already-known tokens are bit-identical until further
  // training. No-op when new_vocab_size <= config().vocab_size.
  void GrowVocab(size_t new_vocab_size);

  // Number of trainable scalars (reported by Table-1-style diagnostics).
  size_t NumParameters();

 private:
  PythiaModelConfig config_;
  Pcg32 rng_;
  nn::Embedding embedding_;
  nn::PositionalEncoding pos_encoding_;
  nn::TransformerEncoder encoder_;
  nn::Linear decoder1_;
  nn::Relu relu_;
  nn::Linear decoder2_;
  size_t last_seq_len_ = 0;

  // PredictBatchInto scratch (query representations, decoder hidden,
  // logits) at (B x ...) shapes — Resize never shrinks capacity, so
  // alternating between batch sizes does not reallocate in steady state.
  nn::Matrix embed_scratch_;
  nn::Matrix repr_scratch_;
  nn::Matrix hidden_scratch_;
  nn::Matrix logits_scratch_;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_MODEL_H_
