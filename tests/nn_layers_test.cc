#include <gtest/gtest.h>

#include <cmath>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace pythia::nn {
namespace {

TEST(EmbeddingTest, LooksUpRows) {
  Pcg32 rng(1);
  Embedding emb("e", 5, 3, &rng);
  Matrix out = emb.Forward({2, 2, 4});
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(out.at(0, c), out.at(1, c));  // same token, same row
  }
}

TEST(EmbeddingTest, BackwardAccumulatesPerToken) {
  Pcg32 rng(2);
  Embedding emb("e", 4, 2, &rng);
  emb.Forward({1, 1, 3});
  Matrix grad(3, 2, 1.0f);
  emb.Backward(grad);
  Param* table = emb.Params()[0];
  // Token 1 used twice: gradient 2; token 3 once: gradient 1; others 0.
  EXPECT_EQ(table->grad.at(1, 0), 2.0f);
  EXPECT_EQ(table->grad.at(3, 0), 1.0f);
  EXPECT_EQ(table->grad.at(0, 0), 0.0f);
  EXPECT_EQ(table->grad.at(2, 0), 0.0f);
}

TEST(LinearTest, ForwardIsAffine) {
  Pcg32 rng(3);
  Linear lin("l", 2, 2, &rng);
  ParamList params = lin.Params();
  // Overwrite to known weights: W = [[1,2],[3,4]], b = [10, 20].
  params[0]->value.at(0, 0) = 1;
  params[0]->value.at(0, 1) = 2;
  params[0]->value.at(1, 0) = 3;
  params[0]->value.at(1, 1) = 4;
  params[1]->value.at(0, 0) = 10;
  params[1]->value.at(0, 1) = 20;

  Matrix x(1, 2);
  x.at(0, 0) = 1;
  x.at(0, 1) = 1;
  Matrix y = lin.Forward(x);
  EXPECT_EQ(y.at(0, 0), 1 + 3 + 10);
  EXPECT_EQ(y.at(0, 1), 2 + 4 + 20);
}

TEST(LinearTest, BiasGradIsColumnSum) {
  Pcg32 rng(4);
  Linear lin("l", 3, 2, &rng);
  Matrix x(4, 3, 1.0f);
  lin.Forward(x);
  Matrix grad(4, 2, 1.0f);
  lin.Backward(grad);
  Param* bias = lin.Params()[1];
  EXPECT_EQ(bias->grad.at(0, 0), 4.0f);
  EXPECT_EQ(bias->grad.at(0, 1), 4.0f);
}

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm ln("ln", 4);
  Matrix x(2, 4);
  for (size_t c = 0; c < 4; ++c) {
    x.at(0, c) = static_cast<float>(c) * 10;
    x.at(1, c) = -5.0f;  // constant row
  }
  Matrix y = ln.Forward(x);
  // Row 0: mean 0 variance ~1 after normalization (gamma=1, beta=0).
  float mean = 0, var = 0;
  for (size_t c = 0; c < 4; ++c) mean += y.at(0, c);
  mean /= 4;
  for (size_t c = 0; c < 4; ++c) {
    var += (y.at(0, c) - mean) * (y.at(0, c) - mean);
  }
  var /= 4;
  EXPECT_NEAR(mean, 0.0f, 1e-5f);
  EXPECT_NEAR(var, 1.0f, 1e-3f);
  // Constant row maps to zeros (not NaN).
  for (size_t c = 0; c < 4; ++c) EXPECT_NEAR(y.at(1, c), 0.0f, 1e-3f);
}

TEST(ReluTest, ForwardClampsAndBackwardMasks) {
  Relu relu;
  Matrix x(1, 4);
  x.at(0, 0) = -1;
  x.at(0, 1) = 0;
  x.at(0, 2) = 2;
  x.at(0, 3) = -0.5f;
  Matrix y = relu.Forward(x);
  EXPECT_EQ(y.at(0, 0), 0.0f);
  EXPECT_EQ(y.at(0, 2), 2.0f);
  Matrix g(1, 4, 1.0f);
  Matrix gx = relu.Backward(g);
  EXPECT_EQ(gx.at(0, 0), 0.0f);
  EXPECT_EQ(gx.at(0, 2), 1.0f);
}

TEST(BceLossTest, MatchesClosedForm) {
  Matrix logits(1, 2);
  logits.at(0, 0) = 0.0f;   // p = 0.5
  logits.at(0, 1) = 2.0f;   // p = sigmoid(2)
  Matrix targets(1, 2);
  targets.at(0, 1) = 1.0f;
  LossResult r = BceWithLogits(logits, targets, /*pos_weight=*/1.0f);
  const double expected =
      (-std::log(0.5) - std::log(Sigmoid(2.0f))) / 2.0;
  EXPECT_NEAR(r.loss, expected, 1e-6);
  // Gradient: (p - y)/n.
  EXPECT_NEAR(r.grad.at(0, 0), (0.5 - 0.0) / 2, 1e-6);
  EXPECT_NEAR(r.grad.at(0, 1), (Sigmoid(2.0f) - 1.0) / 2, 1e-6);
}

TEST(BceLossTest, PosWeightScalesPositives) {
  Matrix logits(1, 1);
  Matrix targets(1, 1);
  targets.at(0, 0) = 1.0f;
  LossResult r1 = BceWithLogits(logits, targets, 1.0f);
  LossResult r3 = BceWithLogits(logits, targets, 3.0f);
  EXPECT_NEAR(r3.loss, 3.0 * r1.loss, 1e-6);
  EXPECT_NEAR(r3.grad.at(0, 0), 3.0f * r1.grad.at(0, 0), 1e-6f);
}

TEST(BceLossTest, StableForExtremeLogits) {
  Matrix logits(1, 2);
  logits.at(0, 0) = 100.0f;
  logits.at(0, 1) = -100.0f;
  Matrix targets(1, 2);
  targets.at(0, 0) = 1.0f;
  LossResult r = BceWithLogits(logits, targets);
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_NEAR(r.loss, 0.0, 1e-6);  // both predictions are correct
}

TEST(SoftmaxCrossEntropyTest, UniformLogits) {
  Matrix logits(1, 4);  // all zeros -> uniform
  LossResult r = SoftmaxCrossEntropy(logits, {2});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-5);
  EXPECT_NEAR(r.grad.at(0, 2), 0.25f - 1.0f, 1e-5f);
  EXPECT_NEAR(r.grad.at(0, 0), 0.25f, 1e-5f);
}

TEST(SigmoidTest, SymmetricAndBounded) {
  EXPECT_NEAR(Sigmoid(0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(Sigmoid(3.0f) + Sigmoid(-3.0f), 1.0f, 1e-6f);
  EXPECT_GT(Sigmoid(100.0f), 0.999f);
  EXPECT_LT(Sigmoid(-100.0f), 0.001f);
}

TEST(SgdTest, AppliesGradientDescent) {
  Param p("p", 1, 1);
  p.value.at(0, 0) = 1.0f;
  p.grad.at(0, 0) = 0.5f;
  Sgd sgd({&p}, 0.1f);
  sgd.Step();
  EXPECT_NEAR(p.value.at(0, 0), 1.0f - 0.1f * 0.5f, 1e-6f);
  EXPECT_EQ(p.grad.at(0, 0), 0.0f);  // grads zeroed after step
}

TEST(AdamTest, FirstStepMovesByLr) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Param p("p", 1, 1);
  p.grad.at(0, 0) = 0.3f;
  Adam adam({&p}, Adam::Options{.lr = 0.01f});
  adam.Step();
  EXPECT_NEAR(p.value.at(0, 0), -0.01f, 1e-4f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (x - 3)^2 by gradient 2(x-3).
  Param p("p", 1, 1);
  Adam adam({&p}, Adam::Options{.lr = 0.1f});
  for (int i = 0; i < 300; ++i) {
    p.grad.at(0, 0) = 2.0f * (p.value.at(0, 0) - 3.0f);
    adam.Step();
  }
  EXPECT_NEAR(p.value.at(0, 0), 3.0f, 0.05f);
}

TEST(OptimizerTest, ClipGradNormScalesDown) {
  Param p("p", 1, 2);
  p.grad.at(0, 0) = 3.0f;
  p.grad.at(0, 1) = 4.0f;  // norm 5
  Sgd sgd({&p}, 1.0f);
  sgd.ClipGradNorm(1.0);
  EXPECT_NEAR(p.grad.at(0, 0), 0.6f, 1e-5f);
  EXPECT_NEAR(p.grad.at(0, 1), 0.8f, 1e-5f);
}

TEST(OptimizerTest, ClipGradNormLeavesSmallGradients) {
  Param p("p", 1, 1);
  p.grad.at(0, 0) = 0.5f;
  Sgd sgd({&p}, 1.0f);
  sgd.ClipGradNorm(10.0);
  EXPECT_EQ(p.grad.at(0, 0), 0.5f);
}

TEST(OptimizerTest, ScaleGrads) {
  Param p("p", 1, 1);
  p.grad.at(0, 0) = 8.0f;
  Sgd sgd({&p}, 1.0f);
  sgd.ScaleGrads(0.25f);
  EXPECT_EQ(p.grad.at(0, 0), 2.0f);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Pcg32 rng(42);
  Param a("alpha", 2, 3), b("beta", 1, 4);
  a.InitXavier(&rng);
  b.InitNormal(&rng, 1.0);
  ByteWriter out;
  WriteParams(&out, {&a, &b});

  Param a2("alpha", 2, 3), b2("beta", 1, 4);
  ByteReader in(out.bytes());
  ASSERT_TRUE(ReadParams(&in, {&a2, &b2}).ok());
  EXPECT_TRUE(in.done());
  for (size_t i = 0; i < a.value.size(); ++i) {
    EXPECT_EQ(a2.value.data()[i], a.value.data()[i]);
  }
  for (size_t i = 0; i < b.value.size(); ++i) {
    EXPECT_EQ(b2.value.data()[i], b.value.data()[i]);
  }
}

TEST(SerializeTest, ShapeMismatchFails) {
  Param a("alpha", 2, 3);
  ByteWriter out;
  WriteParams(&out, {&a});
  Param wrong("alpha", 3, 2);
  ByteReader in(out.bytes());
  EXPECT_FALSE(ReadParams(&in, {&wrong}).ok());
}

TEST(SerializeTest, NameMismatchFails) {
  Param a("alpha", 1, 1);
  ByteWriter out;
  WriteParams(&out, {&a});
  Param other("gamma", 1, 1);
  ByteReader in(out.bytes());
  EXPECT_FALSE(ReadParams(&in, {&other}).ok());
}

}  // namespace
}  // namespace pythia::nn
