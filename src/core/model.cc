#include "core/model.h"

namespace pythia {

double MinWeightFloats(const PythiaModelConfig& config) {
  const double embed = static_cast<double>(config.embed_dim);
  const double hidden = static_cast<double>(config.decoder_hidden);
  return static_cast<double>(config.vocab_size) * embed +
         static_cast<double>(config.num_layers) *
             (4 * embed * embed +
              2 * embed * static_cast<double>(config.ffn_dim)) +
         embed * hidden + hidden * static_cast<double>(config.num_outputs);
}

PythiaModel::PythiaModel(const PythiaModelConfig& config)
    : config_(config),
      rng_(config.seed, /*stream=*/0x9e1),
      embedding_("emb", config.vocab_size, config.embed_dim, &rng_),
      pos_encoding_(config.embed_dim),
      encoder_("enc",
               nn::TransformerConfig{config.embed_dim, config.num_heads,
                                     config.ffn_dim, config.num_layers,
                                     /*causal=*/false},
               &rng_),
      decoder1_("dec1", config.embed_dim, config.decoder_hidden, &rng_),
      decoder2_("dec2", config.decoder_hidden, config.num_outputs, &rng_) {}

nn::Matrix PythiaModel::Forward(const std::vector<int32_t>& tokens) {
  last_seq_len_ = tokens.size();
  nn::Matrix x = pos_encoding_.Forward(embedding_.Forward(tokens));
  nn::Matrix encoded = encoder_.Forward(x);
  // The last token's embedding is the query representation (Section 3.3).
  nn::Matrix query_repr(1, config_.embed_dim);
  const float* last = encoded.row(encoded.rows() - 1);
  for (size_t c = 0; c < config_.embed_dim; ++c) {
    query_repr.at(0, c) = last[c];
  }
  return decoder2_.Forward(relu_.Forward(decoder1_.Forward(query_repr)));
}

double PythiaModel::TrainStep(const std::vector<int32_t>& tokens,
                              const std::vector<uint32_t>& positive_outputs) {
  nn::Matrix logits = Forward(tokens);
  nn::Matrix targets(1, config_.num_outputs);
  for (uint32_t p : positive_outputs) {
    if (p < config_.num_outputs) targets.at(0, p) = 1.0f;
  }
  nn::LossResult loss =
      nn::BceWithLogits(logits, targets, config_.pos_weight);

  // Backward through the decoder.
  nn::Matrix grad_repr =
      decoder1_.Backward(relu_.Backward(decoder2_.Backward(loss.grad)));
  // Scatter the query-representation gradient back to the last token
  // position of the encoder output.
  nn::Matrix grad_encoded(last_seq_len_, config_.embed_dim);
  float* last = grad_encoded.row(last_seq_len_ - 1);
  for (size_t c = 0; c < config_.embed_dim; ++c) {
    last[c] = grad_repr.at(0, c);
  }
  nn::Matrix grad_x = encoder_.Backward(grad_encoded);
  embedding_.Backward(grad_x);  // positional encoding is additive: identity
  return loss.loss;
}

std::vector<uint32_t> PythiaModel::Predict(const std::vector<int32_t>& tokens,
                                           float threshold) {
  std::vector<std::vector<uint32_t>> out;
  PredictBatchInto({&tokens}, threshold, &out);
  return std::move(out[0]);
}

void PythiaModel::PredictBatchInto(
    const std::vector<const std::vector<int32_t>*>& batch, float threshold,
    std::vector<std::vector<uint32_t>>* out) {
  const size_t b = batch.size();
  out->resize(b);
  if (b == 0) return;
  repr_scratch_.Resize(b, config_.embed_dim);
  for (size_t r = 0; r < b; ++r) {
    embedding_.ForwardInto(*batch[r], &embed_scratch_);
    pos_encoding_.AddInPlace(&embed_scratch_);
    nn::Matrix encoded = encoder_.Forward(embed_scratch_);
    const float* last = encoded.row(encoded.rows() - 1);
    float* dst = repr_scratch_.row(r);
    for (size_t c = 0; c < config_.embed_dim; ++c) dst[c] = last[c];
  }
  // The batched decoder: two multi-row GEMMs over all B representations at
  // once instead of B single-row passes. Row r of each product is computed
  // exactly as the 1-row path computes it, so the thresholded index lists
  // below match a per-request Predict bit for bit.
  decoder1_.ApplyRelu(repr_scratch_, &hidden_scratch_);
  decoder2_.Apply(hidden_scratch_, &logits_scratch_);
  // sigmoid(x) >= t  <=>  x >= log(t / (1-t)); avoids per-page exp calls.
  const float logit_threshold = std::log(threshold / (1.0f - threshold));
  for (size_t r = 0; r < b; ++r) {
    std::vector<uint32_t>& row_out = (*out)[r];
    row_out.clear();
    const float* logits = logits_scratch_.row(r);
    for (size_t i = 0; i < config_.num_outputs; ++i) {
      if (logits[i] >= logit_threshold) {
        row_out.push_back(static_cast<uint32_t>(i));
      }
    }
  }
}

std::unique_ptr<PythiaModel> PythiaModel::Clone() {
  auto clone = std::make_unique<PythiaModel>(config_);
  // The constructor re-derives the architecture from the config; overwrite
  // its fresh initialization with this model's trained weights. Params()
  // walks layers in a fixed order, so the lists line up index for index.
  nn::ParamList src = Params();
  nn::ParamList dst = clone->Params();
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i]->value = src[i]->value;
    dst[i]->grad = src[i]->grad;
  }
  // Copy the RNG state too, so a later GrowVocab on the clone draws the
  // same initialization it would have drawn on the original.
  clone->rng_ = rng_;
  return clone;
}

void PythiaModel::GrowVocab(size_t new_vocab_size) {
  if (new_vocab_size <= config_.vocab_size) return;
  embedding_.GrowVocab(new_vocab_size, &rng_);
  config_.vocab_size = new_vocab_size;
}

nn::ParamList PythiaModel::Params() {
  nn::ParamList params;
  nn::AppendParams(&params, embedding_.Params());
  nn::AppendParams(&params, encoder_.Params());
  nn::AppendParams(&params, decoder1_.Params());
  nn::AppendParams(&params, decoder2_.Params());
  return params;
}

size_t PythiaModel::NumParameters() {
  size_t total = 0;
  for (const nn::Param* p : Params()) total += p->value.size();
  return total;
}

}  // namespace pythia
