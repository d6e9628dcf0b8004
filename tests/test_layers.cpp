// Layer forward semantics: shapes, known values, mode behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "nn/activation.hpp"
#include "nn/attention.hpp"
#include "nn/conv.hpp"
#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/norm.hpp"
#include "nn/optim.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/transformer.hpp"
#include "tensor/tensor_ops.hpp"

namespace ge::nn {
namespace {

TEST(Linear, ComputesAffineMap) {
  Rng rng(1);
  Linear lin(2, 2, rng);
  lin.weight().value = Tensor({2, 2}, {1, 2, 3, 4});
  lin.bias()->value = Tensor({2}, {10, 20});
  Tensor y = lin(Tensor({1, 2}, {1, 1}));
  EXPECT_NEAR(y[0], 1 + 2 + 10, 1e-5f);
  EXPECT_NEAR(y[1], 3 + 4 + 20, 1e-5f);
}

TEST(Linear, HandlesRank3Inputs) {
  Rng rng(2);
  Linear lin(4, 6, rng);
  Tensor y = lin(Tensor({2, 3, 4}));
  EXPECT_EQ(y.shape(), (Shape{2, 3, 6}));
}

TEST(Linear, NoBiasVariant) {
  Rng rng(3);
  Linear lin(3, 2, rng, /*with_bias=*/false);
  EXPECT_EQ(lin.bias(), nullptr);
  EXPECT_EQ(lin.local_parameters().size(), 1u);
  Tensor y = lin(Tensor({1, 3}));  // zero in, zero out without bias
  for (float v : y.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Linear, RejectsWrongLastDim) {
  Rng rng(4);
  Linear lin(3, 2, rng);
  EXPECT_THROW(lin(Tensor({1, 4})), std::invalid_argument);
}

TEST(Conv2d, MatchesHandComputedValue) {
  Rng rng(5);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.weight().value.fill(1.0f);  // 3x3 sum filter
  conv.bias()->value.fill(0.5f);
  Tensor x = Tensor::ones({1, 1, 3, 3});
  Tensor y = conv(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
  EXPECT_NEAR(y.at({0, 0, 1, 1}), 9.0f + 0.5f, 1e-5f);  // full window
  EXPECT_NEAR(y.at({0, 0, 0, 0}), 4.0f + 0.5f, 1e-5f);  // corner
}

TEST(Conv2d, StrideAndChannels) {
  Rng rng(6);
  Conv2d conv(3, 8, 3, 2, 1, rng);
  Tensor y = conv(Tensor({2, 3, 16, 16}));
  EXPECT_EQ(y.shape(), (Shape{2, 8, 8, 8}));
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Rng rng(7);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  EXPECT_THROW(conv(Tensor({1, 2, 8, 8})), std::invalid_argument);
  EXPECT_THROW(conv(Tensor({3, 8, 8})), std::invalid_argument);
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor y = relu(Tensor({4}, {-1, 0, 2, -3}));
  EXPECT_TRUE(y.equals(Tensor({4}, {0, 0, 2, 0})));
}

TEST(GELU, KnownValues) {
  GELU gelu;
  Tensor y = gelu(Tensor({3}, {0.0f, 100.0f, -100.0f}));
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y[1], 100.0f, 1e-3f);   // ≈ identity for large x
  EXPECT_NEAR(y[2], 0.0f, 1e-3f);     // ≈ 0 for very negative x
}

TEST(Sigmoid, KnownValues) {
  Sigmoid s;
  Tensor y = s(Tensor({3}, {0.0f, 100.0f, -100.0f}));
  EXPECT_NEAR(y[0], 0.5f, 1e-6f);
  EXPECT_NEAR(y[1], 1.0f, 1e-6f);
  EXPECT_NEAR(y[2], 0.0f, 1e-6f);
}

TEST(Tanh, KnownValues) {
  Tanh t;
  Tensor y = t(Tensor({2}, {0.0f, 1.0f}));
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y[1], std::tanh(1.0f), 1e-6f);
}

TEST(Dropout, EvalIsIdentity) {
  Dropout d(0.5f);
  d.eval();
  Rng rng(30);
  Tensor x = rng.normal_tensor({64});
  EXPECT_TRUE(d(x).equals(x));
}

TEST(Dropout, TrainingDropsAndRescales) {
  Dropout d(0.5f, 99);
  d.train(true);
  Tensor x = Tensor::ones({10000});
  Tensor y = d(x);
  int64_t zeros = 0;
  for (float v : y.flat()) {
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6f);
    if (v == 0.0f) ++zeros;
  }
  // ~50% dropped; mean preserved by the 1/(1-p) rescale
  EXPECT_NEAR(double(zeros) / 10000.0, 0.5, 0.05);
  EXPECT_NEAR(ops::mean(y), 1.0f, 0.05f);
}

TEST(Dropout, RejectsBadProbability) {
  EXPECT_THROW(Dropout(-0.1f), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0f), std::invalid_argument);
  EXPECT_NO_THROW(Dropout(0.0f));
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout d(0.5f, 7);
  d.train(true);
  Tensor x = Tensor::ones({256});
  Tensor y = d(x);
  Tensor g = d.backward(Tensor::ones({256}));
  for (int64_t i = 0; i < 256; ++i) {
    EXPECT_EQ(g[i] == 0.0f, y[i] == 0.0f) << i;  // identical survivors
  }
}

TEST(Flatten, CollapsesTrailingDims) {
  Flatten fl;
  Tensor y = fl(Tensor({2, 3, 4, 5}));
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm2d bn(2);
  bn.eval();
  // default running stats: mean 0, var 1 -> identity (gamma=1, beta=0)
  Rng rng(8);
  Tensor x = rng.normal_tensor({2, 2, 3, 3});
  Tensor y = bn(x);
  EXPECT_TRUE(y.allclose(x, 1e-4f));
}

TEST(BatchNorm, TrainingNormalisesBatch) {
  BatchNorm2d bn(1);
  bn.train(true);
  Rng rng(9);
  Tensor x = rng.normal_tensor({4, 1, 8, 8}, 5.0f, 3.0f);
  Tensor y = bn(x);
  EXPECT_NEAR(ops::mean(y), 0.0f, 1e-4f);
  double var = 0.0;
  for (float v : y.flat()) var += double(v) * v;
  var /= y.numel();
  EXPECT_NEAR(var, 1.0, 1e-2);
}

TEST(BatchNorm, RunningStatsConvergeTowardBatchStats) {
  BatchNorm2d bn(1);
  bn.train(true);
  Rng rng(10);
  Tensor x = rng.normal_tensor({8, 1, 8, 8}, 2.0f, 1.0f);
  for (int i = 0; i < 50; ++i) (void)bn(x);
  bn.eval();
  Tensor y = bn(x);
  // after convergence, eval output ≈ training output (batch ≈ running)
  EXPECT_NEAR(ops::mean(y), 0.0f, 0.05f);
}

TEST(LayerNorm, NormalisesEachRow) {
  LayerNorm ln(8);
  Rng rng(11);
  Tensor x = rng.normal_tensor({4, 8}, 3.0f, 2.0f);
  Tensor y = ln(x);
  for (int64_t r = 0; r < 4; ++r) {
    double m = 0.0;
    for (int64_t c = 0; c < 8; ++c) m += y[r * 8 + c];
    EXPECT_NEAR(m / 8.0, 0.0, 1e-4);
  }
}

TEST(MaxPool, ForwardShape) {
  MaxPool2d mp(2, 2);
  EXPECT_EQ(mp(Tensor({1, 3, 8, 8})).shape(), (Shape{1, 3, 4, 4}));
}

TEST(Attention, OutputShapeMatchesInput) {
  Rng rng(12);
  MultiheadSelfAttention attn(16, 4, rng);
  Tensor y = attn(Tensor({2, 5, 16}));
  EXPECT_EQ(y.shape(), (Shape{2, 5, 16}));
}

TEST(Attention, RejectsIndivisibleHeads) {
  Rng rng(13);
  EXPECT_THROW(MultiheadSelfAttention(10, 3, rng), std::invalid_argument);
}

TEST(Attention, HooksFireOnInternalProjections) {
  Rng rng(14);
  MultiheadSelfAttention attn(8, 2, rng);
  int fired = 0;
  for (auto& [p, m] : attn.named_modules()) {
    if (m->kind() == "Linear") {
      m->add_forward_hook([&fired](Module&, Tensor&) { ++fired; });
    }
  }
  (void)attn(Tensor({1, 3, 8}));
  EXPECT_EQ(fired, 2);  // qkv + proj
}

TEST(TransformerBlock, ShapePreservedAndResidualActive) {
  Rng rng(15);
  TransformerBlock block(16, 4, 32, rng);
  Rng xr(16);
  Tensor x = xr.normal_tensor({2, 5, 16});
  Tensor y = block(x);
  EXPECT_EQ(y.shape(), x.shape());
  // residual path: output correlates with input (not independent noise)
  double dot = 0.0, nx = 0.0, ny = 0.0;
  for (int64_t i = 0; i < x.numel(); ++i) {
    dot += double(x[i]) * y[i];
    nx += double(x[i]) * x[i];
    ny += double(y[i]) * y[i];
  }
  EXPECT_GT(dot / std::sqrt(nx * ny), 0.25);
}

/// Run `pe` on `x`, also returning its patch conv's (B, D, GH, GW) output.
std::pair<Tensor, Tensor> patch_embed_with_conv(PatchEmbed& pe,
                                                const Tensor& x) {
  Module& proj = *pe.children().front().second;
  Tensor conv;
  const auto h = proj.add_forward_hook(
      [&conv](Module&, Tensor& y) { conv = y; });
  Tensor out = pe(x);
  proj.remove_hook(h);
  return {out, conv};
}

TEST(PatchEmbed, TokenisesImage) {
  // Each sample's (D, G) conv block is read transposed:
  // out[b][g][d] == proj(x)[b][d][g].
  Rng rng(17);
  PatchEmbed pe(3, 32, 4, rng);
  const auto [y, conv] =
      patch_embed_with_conv(pe, Rng(20).normal_tensor({2, 3, 16, 16}));
  ASSERT_EQ(y.shape(), (Shape{2, 16, 32}));
  ASSERT_EQ(conv.shape(), (Shape{2, 32, 4, 4}));
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t g = 0; g < 16; ++g) {
      for (int64_t d = 0; d < 32; ++d) {
        EXPECT_EQ(y[(b * 16 + g) * 32 + d], conv[(b * 32 + d) * 16 + g]);
      }
    }
  }
}

TEST(PatchEmbed, SinglePatchSharesTheConvOutput) {
  // One grid cell (G == 1): the transpose is the identity on storage.
  Rng rng(21);
  PatchEmbed pe(3, 8, 4, rng);
  const auto [y, conv] =
      patch_embed_with_conv(pe, Rng(22).normal_tensor({2, 3, 4, 4}));
  EXPECT_EQ(y.shape(), (Shape{2, 1, 8}));
  EXPECT_TRUE(y.shares_storage_with(conv));
}

TEST(ClassTokenPosEmbed, PrependsToken) {
  Rng rng(18);
  ClassTokenPosEmbed em(4, 8, rng);
  Tensor y = em(Tensor({2, 4, 8}));
  EXPECT_EQ(y.shape(), (Shape{2, 5, 8}));
  EXPECT_THROW(em(Tensor({2, 3, 8})), std::invalid_argument);
}

TEST(TakeClassToken, SelectsFirstToken) {
  TakeClassToken t;
  // (B, T, D) = (2, 3, 3): token 0 of each sample.
  Tensor x({2, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9,
                       10, 11, 12, 13, 14, 15, 16, 17, 18});
  Tensor y = t(x);
  EXPECT_TRUE(y.equals(Tensor({2, 3}, {1, 2, 3, 10, 11, 12})));
}

TEST(Loss, CrossEntropyKnownValue) {
  // uniform logits over 4 classes: loss = log(4)
  Tensor logits({1, 4});
  EXPECT_NEAR(CrossEntropyLoss::evaluate(logits, {2}), std::log(4.0f), 1e-5f);
}

TEST(Loss, PerfectPredictionNearZero) {
  Tensor logits({1, 3}, {100.0f, 0.0f, 0.0f});
  EXPECT_NEAR(CrossEntropyLoss::evaluate(logits, {0}), 0.0f, 1e-4f);
}

TEST(Loss, ChecksTargets) {
  Tensor logits({2, 3});
  EXPECT_THROW(CrossEntropyLoss::evaluate(logits, {0}),
               std::invalid_argument);
  EXPECT_THROW(CrossEntropyLoss::evaluate(logits, {0, 3}),
               std::invalid_argument);
  EXPECT_THROW(CrossEntropyLoss::evaluate(Tensor({4}), {0}),
               std::invalid_argument);
}

TEST(Loss, AccuracyCounts) {
  Tensor logits({2, 2}, {1.0f, 0.0f, 0.0f, 1.0f});  // preds: 0, 1
  EXPECT_EQ(accuracy(logits, {0, 1}), 1.0f);
  EXPECT_EQ(accuracy(logits, {1, 1}), 0.5f);
}

TEST(Optim, SgdMovesAgainstGradient) {
  Rng rng(19);
  Linear lin(2, 2, rng);
  const float w0 = lin.weight().value[0];
  lin.weight().grad.fill(1.0f);
  SGD opt(lin.parameters(), 0.1f, 0.0f);
  opt.step();
  EXPECT_NEAR(lin.weight().value[0], w0 - 0.1f, 1e-6f);
}

TEST(Optim, AdamReducesQuadraticLoss) {
  // minimise ||Wx - t||^2 through our backward machinery
  Rng rng(20);
  Linear lin(4, 4, rng);
  lin.train(true);
  Adam opt(lin.parameters(), 1e-2f);
  Rng xr(21);
  Tensor x = xr.normal_tensor({8, 4});
  Tensor target = xr.normal_tensor({8, 4});
  float first_loss = -1.0f, last_loss = -1.0f;
  for (int it = 0; it < 600; ++it) {
    opt.zero_grad();
    Tensor y = lin(x);
    Tensor diff = ops::sub(y, target);
    float loss = 0.0f;
    for (float v : diff.flat()) loss += v * v;
    if (it == 0) first_loss = loss;
    last_loss = loss;
    (void)lin.backward(ops::mul_scalar(diff, 2.0f));
    opt.step();
  }
  EXPECT_LT(last_loss, first_loss * 0.2f);
}

TEST(Sequential, ChainsModules) {
  Rng rng(22);
  Sequential seq;
  seq.emplace<Linear>(4, 8, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(seq.size(), 3);
  EXPECT_EQ(seq(Tensor({5, 4})).shape(), (Shape{5, 2}));
}

}  // namespace
}  // namespace ge::nn
