#include "core/seq_baseline.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace pythia {

std::vector<int32_t> SequenceTransformerBaseline::EncodeTrace(
    const QueryTrace& trace) const {
  std::vector<PageId> pages;
  if (config_.dedup_input) {
    pages = trace.NonSequentialPages();
  } else {
    for (const PageAccess& access : trace.accesses) {
      if (!access.sequential) pages.push_back(access.page);
    }
  }
  if (pages.size() > config_.max_seq_len) pages.resize(config_.max_seq_len);
  std::vector<int32_t> out;
  out.reserve(pages.size());
  for (const PageId& page : pages) {
    auto it = class_of_.find(page);
    out.push_back(it == class_of_.end() ? 0 : it->second);
  }
  return out;
}

SequenceTransformerBaseline::SequenceTransformerBaseline(
    const Workload& workload, const SeqBaselineConfig& config)
    : config_(config) {
  const auto start = std::chrono::steady_clock::now();
  Pcg32 rng(config.seed, /*stream=*/0x5e9);

  // Class vocabulary: every distinct non-sequential page seen in training.
  classes_.push_back(PageId{0xffffffffu, 0xffffffffu});  // class 0 = OOV
  for (size_t qi : workload.train_indices) {
    for (const PageId& page : workload.queries[qi].trace.NonSequentialPages()) {
      if (class_of_.emplace(page, static_cast<int32_t>(classes_.size()))
              .second) {
        classes_.push_back(page);
      }
    }
  }

  embedding_ = std::make_unique<nn::Embedding>("seq.emb", classes_.size(),
                                               config.embed_dim, &rng);
  pos_encoding_ = std::make_unique<nn::PositionalEncoding>(config.embed_dim);
  encoder_ = std::make_unique<nn::TransformerEncoder>(
      "seq.enc",
      nn::TransformerConfig{config.embed_dim, config.num_heads,
                            config.ffn_dim, config.num_layers,
                            /*causal=*/true},
      &rng);
  head_ = std::make_unique<nn::Linear>("seq.head", config.embed_dim,
                                       classes_.size(), &rng);

  nn::ParamList params;
  nn::AppendParams(&params, embedding_->Params());
  nn::AppendParams(&params, encoder_->Params());
  nn::AppendParams(&params, head_->Params());
  nn::Adam::Options adam;
  adam.lr = config.lr;
  nn::Adam optimizer(params, adam);

  // Training sequences (subsampled).
  std::vector<size_t> train = workload.train_indices;
  rng.Shuffle(&train);
  if (train.size() > config.max_train_sequences) {
    train.resize(config.max_train_sequences);
  }

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (size_t qi : train) {
      const std::vector<int32_t> seq =
          EncodeTrace(workload.queries[qi].trace);
      if (seq.size() < 2) continue;
      // Non-overlapping windows; each position predicts its successor. The
      // first window starts at a random offset so the model cannot overfit
      // window-relative positions (at inference the window slides freely).
      const size_t offset =
          rng.UniformU32(static_cast<uint32_t>(config.context_window));
      for (size_t start_pos = offset < seq.size() - 1 ? offset : 0;
           start_pos + 1 < seq.size();
           start_pos += config.context_window) {
        const size_t len = std::min(config.context_window,
                                    seq.size() - 1 - start_pos);
        std::vector<int32_t> input(seq.begin() + start_pos,
                                   seq.begin() + start_pos + len);
        std::vector<int32_t> targets(seq.begin() + start_pos + 1,
                                     seq.begin() + start_pos + 1 + len);
        nn::Matrix encoded = encoder_->Forward(
            pos_encoding_->Forward(embedding_->Forward(input)));
        nn::Matrix logits = head_->Forward(encoded);
        nn::LossResult loss = nn::SoftmaxCrossEntropy(logits, targets);
        embedding_->Backward(
            encoder_->Backward(head_->Backward(loss.grad)));
        optimizer.ClipGradNorm(5.0);
        optimizer.Step();
      }
    }
  }
  train_seconds_ = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
}

SeqEvalResult SequenceTransformerBaseline::Evaluate(const QueryTrace& trace) {
  const auto start = std::chrono::steady_clock::now();
  SeqEvalResult result;
  const std::vector<int32_t> seq = EncodeTrace(trace);

  std::unordered_set<PageId> predicted;
  std::unordered_set<PageId> actual;
  for (int32_t c : seq) {
    if (c != 0) actual.insert(classes_[static_cast<size_t>(c)]);
  }
  // The first block is given (as the paper's predictors condition on the
  // first accesses); every later block is predicted from the true history.
  size_t hits = 0;
  for (size_t pos = 1; pos < seq.size(); ++pos) {
    const size_t ctx_start =
        pos > config_.context_window ? pos - config_.context_window : 0;
    std::vector<int32_t> input(seq.begin() + ctx_start, seq.begin() + pos);
    nn::Matrix encoded = encoder_->Forward(
        pos_encoding_->Forward(embedding_->Forward(input)));
    nn::Matrix logits = head_->Forward(encoded);
    // Prediction is the argmax at the last position.
    const float* row = logits.row(logits.rows() - 1);
    size_t best = 0;
    for (size_t c = 1; c < classes_.size(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    if (best != 0) predicted.insert(classes_[best]);
    if (static_cast<int32_t>(best) == seq[pos]) ++hits;
    ++result.blocks_predicted;
  }

  result.accuracy = ComputeSetMetrics(predicted, actual);
  result.next_block_hit_rate =
      seq.size() > 1 ? static_cast<double>(hits) / (seq.size() - 1) : 0.0;
  result.infer_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return result;
}

}  // namespace pythia
