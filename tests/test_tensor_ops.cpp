// Kernel correctness: matmul family vs brute-force reference, the matmul
// family and conv forward bit for bit against the scalar oracle, im2col /
// col2im adjointness, pooling, softmax properties, reductions.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "kernel_oracle.hpp"
#include "nn/conv.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace ge {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const int64_t M = a.size(0), K = a.size(1), N = b.size(1);
  Tensor out({M, N});
  for (int64_t i = 0; i < M; ++i) {
    for (int64_t j = 0; j < N; ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < K; ++k) acc += double(a[i * K + k]) * b[k * N + j];
      out[i * N + j] = static_cast<float>(acc);
    }
  }
  return out;
}

TEST(Elementwise, AddSubMulDiv) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {4, 5, 6});
  EXPECT_TRUE(ops::add(a, b).equals(Tensor({3}, {5, 7, 9})));
  EXPECT_TRUE(ops::sub(a, b).equals(Tensor({3}, {-3, -3, -3})));
  EXPECT_TRUE(ops::mul(a, b).equals(Tensor({3}, {4, 10, 18})));
  EXPECT_TRUE(ops::div(b, a).allclose(Tensor({3}, {4, 2.5f, 2})));
}

TEST(Elementwise, ShapeMismatchThrows) {
  EXPECT_THROW(ops::add(Tensor({2}), Tensor({3})), std::invalid_argument);
  EXPECT_THROW(ops::mul(Tensor({2, 1}), Tensor({2})), std::invalid_argument);
}

TEST(Elementwise, InplaceVariants) {
  Tensor a({2}, {1, 2});
  ops::add_inplace(a, Tensor({2}, {10, 20}));
  EXPECT_TRUE(a.equals(Tensor({2}, {11, 22})));
  ops::mul_scalar_inplace(a, 0.5f);
  EXPECT_TRUE(a.equals(Tensor({2}, {5.5f, 11})));
}

TEST(Elementwise, ScalarAndUnary) {
  Tensor a({2}, {-1, 4});
  EXPECT_TRUE(ops::add_scalar(a, 1).equals(Tensor({2}, {0, 5})));
  EXPECT_TRUE(ops::mul_scalar(a, -2).equals(Tensor({2}, {2, -8})));
  EXPECT_TRUE(ops::neg(a).equals(Tensor({2}, {1, -4})));
  EXPECT_TRUE(ops::abs(a).equals(Tensor({2}, {1, 4})));
  EXPECT_TRUE(ops::clamp(a, -0.5f, 2.0f).equals(Tensor({2}, {-0.5f, 2})));
  EXPECT_NEAR(ops::sqrt(Tensor({1}, {9}))[0], 3.0f, 1e-6f);
  EXPECT_NEAR(ops::exp(Tensor({1}, {0}))[0], 1.0f, 1e-6f);
  EXPECT_NEAR(ops::tanh(Tensor({1}, {0}))[0], 0.0f, 1e-6f);
}

TEST(Elementwise, MapAppliesFunction) {
  Tensor a({3}, {1, 2, 3});
  Tensor r = ops::map(a, [](float x) { return x * x; });
  EXPECT_TRUE(r.equals(Tensor({3}, {1, 4, 9})));
  ops::map_inplace(a, [](float x) { return -x; });
  EXPECT_TRUE(a.equals(Tensor({3}, {-1, -2, -3})));
}

TEST(Reductions, SumMeanMinMax) {
  Tensor a({4}, {1, -2, 3, 6});
  EXPECT_NEAR(ops::sum(a), 8.0f, 1e-6f);
  EXPECT_NEAR(ops::mean(a), 2.0f, 1e-6f);
  EXPECT_EQ(ops::min_value(a), -2.0f);
  EXPECT_EQ(ops::max_value(a), 6.0f);
  EXPECT_EQ(ops::max_abs(a), 6.0f);
}

TEST(Reductions, EmptyTensorThrows) {
  Tensor empty({0});
  EXPECT_THROW(ops::mean(empty), std::invalid_argument);
  EXPECT_THROW(ops::min_value(empty), std::invalid_argument);
}

TEST(Reductions, ArgmaxRows) {
  Tensor a({2, 3}, {1, 5, 2, 9, 0, 3});
  const auto idx = ops::argmax_rows(a);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Matmul, MatchesNaiveReference) {
  Rng rng(3);
  Tensor a = rng.normal_tensor({7, 5});
  Tensor b = rng.normal_tensor({5, 9});
  EXPECT_TRUE(ops::matmul(a, b).allclose(naive_matmul(a, b), 1e-4f));
}

TEST(Matmul, BtVariantMatches) {
  Rng rng(4);
  Tensor a = rng.normal_tensor({6, 8});
  Tensor bt = rng.normal_tensor({5, 8});  // b = bt^T : (8, 5)
  Tensor b = ops::transpose2d(bt);
  EXPECT_TRUE(ops::matmul_bt(a, bt).allclose(naive_matmul(a, b), 1e-4f));
}

TEST(Matmul, AtVariantMatches) {
  Rng rng(5);
  Tensor at = rng.normal_tensor({8, 6});  // a = at^T : (6, 8)
  Tensor b = rng.normal_tensor({8, 5});
  Tensor a = ops::transpose2d(at);
  EXPECT_TRUE(ops::matmul_at(at, b).allclose(naive_matmul(a, b), 1e-4f));
}

TEST(Matmul, VariantsAgreeBitwise) {
  // All three variants share one accumulation policy (FP32 MAC, ascending
  // k), so expressing the same product through any of them must be exactly
  // equal — not merely allclose.
  Rng rng(7);
  Tensor a = rng.normal_tensor({9, 13});
  Tensor b = rng.normal_tensor({13, 11});
  const Tensor ref = ops::matmul(a, b);
  EXPECT_TRUE(ops::matmul_bt(a, ops::transpose2d(b)).equals(ref));
  EXPECT_TRUE(ops::matmul_at(ops::transpose2d(a), b).equals(ref));
}

TEST(Matmul, ShapeErrors) {
  EXPECT_THROW(ops::matmul(Tensor({2, 3}), Tensor({4, 2})),
               std::invalid_argument);
  EXPECT_THROW(ops::matmul_bt(Tensor({2, 3}), Tensor({4, 2})),
               std::invalid_argument);
  EXPECT_THROW(ops::matmul_at(Tensor({2, 3}), Tensor({4, 2})),
               std::invalid_argument);
  EXPECT_THROW(ops::matmul(Tensor({2}), Tensor({2, 2})),
               std::invalid_argument);
}

TEST(Transpose, RoundTripIsIdentity) {
  Rng rng(6);
  Tensor a = rng.normal_tensor({4, 7});
  EXPECT_TRUE(ops::transpose2d(ops::transpose2d(a)).equals(a));
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(7);
  Tensor a = rng.normal_tensor({5, 11}, 0.0f, 3.0f);
  Tensor s = ops::softmax_lastdim(a);
  for (int64_t r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (int64_t c = 0; c < 11; ++c) sum += s[r * 11 + c];
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, StableUnderLargeInputs) {
  Tensor a({1, 3}, {1000.0f, 1001.0f, 999.0f});
  Tensor s = ops::softmax_lastdim(a);
  for (int64_t i = 0; i < 3; ++i) EXPECT_TRUE(std::isfinite(s[i]));
  EXPECT_GT(s[1], s[0]);
}

TEST(Softmax, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(8);
  Tensor a = rng.normal_tensor({3, 6});
  Tensor ls = ops::log_softmax_lastdim(a);
  Tensor s = ops::softmax_lastdim(a);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(ls[i], std::log(s[i]), 1e-5f);
  }
}

TEST(Conv, SpecOutputGeometry) {
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 3;
  s.stride_h = s.stride_w = 2;
  s.pad_h = s.pad_w = 1;
  EXPECT_EQ(s.out_h(16), 8);
  EXPECT_EQ(s.out_w(7), 4);
}

TEST(Conv, Im2colIdentityKernel) {
  // 1x1 kernel, stride 1: im2col is a reordering of the input itself.
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 1;
  Tensor cols = ops::im2col(x, s);
  ASSERT_EQ(cols.size(0), 4);
  ASSERT_EQ(cols.size(1), 2);
  // row (oh=0, ow=0) holds channel values at that pixel: 1 and 5
  EXPECT_EQ(cols.at({0, 0}), 1.0f);
  EXPECT_EQ(cols.at({0, 1}), 5.0f);
  EXPECT_EQ(cols.at({3, 0}), 4.0f);
  EXPECT_EQ(cols.at({3, 1}), 8.0f);
}

TEST(Conv, Im2colZeroPadsBorders) {
  Tensor x = Tensor::ones({1, 1, 2, 2});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 3;
  s.pad_h = s.pad_w = 1;
  Tensor cols = ops::im2col(x, s);
  // top-left output: the 3x3 window has 5 zero (padded) and 4 one entries
  float sum = 0.0f;
  for (int64_t j = 0; j < 9; ++j) sum += cols.at({0, j});
  EXPECT_EQ(sum, 4.0f);
}

TEST(Conv, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
  // property that makes Conv2d::backward correct.
  Rng rng(9);
  Tensor x = rng.normal_tensor({2, 3, 6, 6});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 3;
  s.stride_h = s.stride_w = 2;
  s.pad_h = s.pad_w = 1;
  Tensor cx = ops::im2col(x, s);
  Tensor y = rng.normal_tensor(cx.shape());
  Tensor cty = ops::col2im(y, x.shape(), s);
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cx.numel(); ++i) lhs += double(cx[i]) * y[i];
  for (int64_t i = 0; i < x.numel(); ++i) rhs += double(x[i]) * cty[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(Conv, Im2colRejectsBadInputs) {
  ops::Conv2dSpec s;
  EXPECT_THROW(ops::im2col(Tensor({2, 3}), s), std::invalid_argument);
  s.kernel_h = s.kernel_w = 5;
  EXPECT_THROW(ops::im2col(Tensor({1, 1, 3, 3}), s), std::invalid_argument);
}

TEST(Conv, Im2colIsLinear) {
  // im2col(a x + b y) == a im2col(x) + b im2col(y): the property that
  // makes conv-as-GEMM legal.
  Rng rng(40);
  Tensor x = rng.normal_tensor({1, 2, 5, 5});
  Tensor y = rng.normal_tensor({1, 2, 5, 5});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 3;
  s.pad_h = s.pad_w = 1;
  Tensor lhs = ops::im2col(
      ops::add(ops::mul_scalar(x, 2.0f), ops::mul_scalar(y, -3.0f)), s);
  Tensor rhs = ops::add(ops::mul_scalar(ops::im2col(x, s), 2.0f),
                        ops::mul_scalar(ops::im2col(y, s), -3.0f));
  EXPECT_TRUE(lhs.allclose(rhs, 1e-4f));
}

TEST(Matmul, DistributesOverAddition) {
  Rng rng(41);
  Tensor a = rng.normal_tensor({4, 6});
  Tensor b = rng.normal_tensor({6, 5});
  Tensor c = rng.normal_tensor({6, 5});
  Tensor lhs = ops::matmul(a, ops::add(b, c));
  Tensor rhs = ops::add(ops::matmul(a, b), ops::matmul(a, c));
  EXPECT_TRUE(lhs.allclose(rhs, 1e-3f));
}

TEST(Matmul, TransposeVariantsAgreeWithExplicitTranspose) {
  Rng rng(42);
  Tensor a = rng.normal_tensor({5, 7});
  Tensor b = rng.normal_tensor({7, 4});
  const Tensor ref = ops::matmul(a, b);
  EXPECT_TRUE(ops::matmul_bt(a, ops::transpose2d(b)).allclose(ref, 1e-4f));
  EXPECT_TRUE(ops::matmul_at(ops::transpose2d(a), b).allclose(ref, 1e-4f));
}

TEST(Softmax, InvariantToRowShift) {
  Rng rng(43);
  Tensor a = rng.normal_tensor({3, 8});
  Tensor shifted = ops::add_scalar(a, 42.0f);
  EXPECT_TRUE(ops::softmax_lastdim(a).allclose(
      ops::softmax_lastdim(shifted), 1e-5f));
}

TEST(Pooling, MaxPoolPicksWindowMax) {
  Tensor x({1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 8, 1});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 2;
  s.stride_h = s.stride_w = 2;
  Tensor y = ops::maxpool2d(x, s);
  ASSERT_EQ(y.numel(), 2);
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[1], 8.0f);
}

TEST(Pooling, MaxPoolArgmaxIndexesInput) {
  Tensor x({1, 1, 2, 2}, {1, 9, 3, 2});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 2;
  s.stride_h = s.stride_w = 2;
  std::vector<int64_t> argmax;
  Tensor y = ops::maxpool2d(x, s, &argmax);
  ASSERT_EQ(argmax.size(), 1u);
  EXPECT_EQ(argmax[0], 1);
}

TEST(Pooling, AvgPoolAveragesWindow) {
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 6});
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = 2;
  s.stride_h = s.stride_w = 2;
  EXPECT_NEAR(ops::avgpool2d(x, s)[0], 3.0f, 1e-6f);
}

TEST(Pooling, GlobalAvgPoolPerChannel) {
  Tensor x({1, 2, 2, 2}, {1, 1, 1, 1, 2, 2, 2, 10});
  Tensor y = ops::global_avgpool(x);
  ASSERT_EQ(y.numel(), 2);
  EXPECT_NEAR(y[0], 1.0f, 1e-6f);
  EXPECT_NEAR(y[1], 4.0f, 1e-6f);
}

// --- kernel vs scalar oracle, bit for bit ------------------------------------
//
// The micro-kernel computes each output with tiles, SIMD lanes and thread
// chunks, but must reproduce the oracle's FP32 sequence exactly. Outputs
// are compared as bit patterns (+0 vs -0 matters), and a NaN must be NaN
// in both. Which payload NaN + NaN returns is left open by IEEE 754 and
// depends on the register the compiler makes the destination: the scalar
// ikj loops return the product's NaN, the dot product and the kernel the
// accumulator's. So the payload and sign of a NaN are not compared.

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

struct ThreadGuard {
  int saved = parallel::num_threads();
  ~ThreadGuard() { parallel::set_num_threads(saved); }
};

uint32_t bits_of(float f) { return std::bit_cast<uint32_t>(f); }

/// Empty when both tensors have the same shape and bit patterns, any NaN
/// matching any NaN; otherwise the first difference.
std::string bit_mismatch(const Tensor& got, const Tensor& want) {
  if (got.shape() != want.shape()) {
    return "shape " + shape_to_string(got.shape()) + " vs " +
           shape_to_string(want.shape());
  }
  const float* g = got.cdata();
  const float* w = want.cdata();
  for (int64_t i = 0; i < got.numel(); ++i) {
    if (std::isnan(g[i]) && std::isnan(w[i])) continue;
    if (bits_of(g[i]) != bits_of(w[i])) {
      std::ostringstream os;
      os << "element " << i << ": got " << g[i] << " (0x" << std::hex
         << bits_of(g[i]) << "), oracle " << w[i] << " (0x" << bits_of(w[i])
         << ")";
      return os.str();
    }
  }
  return "";
}

/// Normal values with ±0 and denormals mixed in and, when `non_finite`,
/// ±Inf and NaN as well.
Tensor mixed_tensor(Rng& rng, Shape shape, bool non_finite) {
  static const float kSpecial[] = {0.0f,
                                   -0.0f,
                                   std::numeric_limits<float>::denorm_min(),
                                   -3.0e-39f,
                                   1.0e-40f,
                                   kInf,
                                   -kInf,
                                   kNaN};
  const int64_t n_special = non_finite ? 8 : 5;
  Tensor t = rng.normal_tensor(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (rng.uniform() < 0.2f) p[i] = kSpecial[rng.randint(0, n_special - 1)];
  }
  return t;
}

/// Every matmul variant against the oracle for A (M,K) and B (K,N), at 1
/// and 4 threads.
void expect_matmuls_match(const Tensor& a, const Tensor& b) {
  const Tensor at = ops::transpose2d(a);
  const Tensor bt = ops::transpose2d(b);
  const Tensor want = ops::oracle::matmul(a, b);
  const Tensor want_bt = ops::oracle::matmul_bt(a, bt);
  const Tensor want_at = ops::oracle::matmul_at(at, b);
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    const std::string where = shape_to_string(a.shape()) + " x " +
                              shape_to_string(b.shape()) + " at " +
                              std::to_string(threads) + " threads";
    EXPECT_EQ(bit_mismatch(ops::matmul(a, b), want), "") << "matmul " << where;
    EXPECT_EQ(bit_mismatch(ops::matmul_bt(a, bt), want_bt), "")
        << "matmul_bt " << where;
    EXPECT_EQ(bit_mismatch(ops::matmul_at(at, b), want_at), "")
        << "matmul_at " << where;
  }
}

TEST(KernelOracle, MatmulFamilyEveryTileRemainder) {
  // M and N sweep every remainder of the 4-row x 8-column tile (and more
  // than two column panels); K runs from 1 to past the panel width.
  Rng rng(101);
  for (int64_t M = 1; M <= 9; ++M) {
    for (int64_t N = 1; N <= 17; ++N) {
      for (int64_t K : {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33}) {
        const bool non_finite = (M + N + K) % 2 == 0;
        expect_matmuls_match(mixed_tensor(rng, {M, K}, non_finite),
                             mixed_tensor(rng, {K, N}, non_finite));
      }
    }
  }
}

TEST(KernelOracle, MatmulFamilyMultiChunkShapes) {
  // Large enough that the pool splits the tile grid into many chunks.
  Rng rng(102);
  const int64_t shapes[][3] = {{67, 130, 45}, {130, 9, 37}, {5, 64, 300},
                               {33, 257, 10}};
  for (const auto& s : shapes) {
    expect_matmuls_match(mixed_tensor(rng, {s[0], s[1]}, false),
                         mixed_tensor(rng, {s[1], s[2]}, false));
    expect_matmuls_match(mixed_tensor(rng, {s[0], s[1]}, true),
                         mixed_tensor(rng, {s[1], s[2]}, true));
  }
}

TEST(KernelOracle, ZeroAIsSkippedAgainstNonFiniteB) {
  // matmul and matmul_at skip a k step whose A element is ±0, so a zero A
  // column never meets the Inf/NaN row of B it would turn into NaN. The
  // matmul_bt dot product skips nothing, so there 0 * Inf poisons the sum.
  const int64_t M = 6, K = 5, N = 11;
  Rng rng(103);
  Tensor a = rng.normal_tensor({M, K});
  Tensor b = rng.normal_tensor({K, N});
  for (int64_t i = 0; i < M; ++i) {
    a.data()[i * K + 1] = 0.0f;
    a.data()[i * K + 3] = -0.0f;
  }
  for (int64_t j = 0; j < N; ++j) {
    b.data()[1 * N + j] = j % 3 == 0 ? kInf : (j % 3 == 1 ? -kInf : kNaN);
    b.data()[3 * N + j] = j % 2 == 0 ? kNaN : kInf;
  }
  expect_matmuls_match(a, b);
  const Tensor y = ops::matmul(a, b);
  const Tensor y_at = ops::matmul_at(ops::transpose2d(a), b);
  const Tensor y_bt = ops::matmul_bt(a, ops::transpose2d(b));
  for (int64_t i = 0; i < M * N; ++i) {
    EXPECT_TRUE(std::isfinite(y[i])) << i;
    EXPECT_TRUE(std::isfinite(y_at[i])) << i;
    EXPECT_TRUE(std::isnan(y_bt[i])) << i;
  }
}

TEST(KernelOracle, ZeroRowAgainstNegativeBIsPositiveZero) {
  // The accumulator starts at +0.0f: +0 + (-0) = +0. One seeded with the
  // first product would end at -0 instead.
  const int64_t M = 5, K = 7, N = 9;
  Rng rng(104);
  Tensor a = rng.normal_tensor({M, K});
  for (int64_t k = 0; k < K; ++k) {
    a.data()[2 * K + k] = 0.0f;
    a.data()[4 * K + k] = -0.0f;
  }
  Tensor b = ops::neg(ops::abs(rng.normal_tensor({K, N})));
  expect_matmuls_match(a, b);
  const Tensor y = ops::matmul(a, b);
  const Tensor y_bt = ops::matmul_bt(a, ops::transpose2d(b));
  const Tensor y_at = ops::matmul_at(ops::transpose2d(a), b);
  for (int64_t row : {2, 4}) {
    for (int64_t j = 0; j < N; ++j) {
      EXPECT_EQ(bits_of(y_bt[row * N + j]), 0u) << row << "," << j;
      EXPECT_EQ(bits_of(y[row * N + j]), 0u) << row << "," << j;
      EXPECT_EQ(bits_of(y_at[row * N + j]), 0u) << row << "," << j;
    }
  }
}

TEST(KernelOracle, ProductIsRoundedBeforeTheAdd) {
  // Known answer, independent of how the oracle is compiled: with
  // e = 2^-23, step 1 gives acc = -(1 + 2e), and step 2's product
  // (1 + e)^2 = 1 + 2e + e^2 rounds to 1 + 2e, so the sum is exactly +0.
  // A fused multiply-add would keep e^2 = 2^-46.
  const float e = std::ldexp(1.0f, -23);
  const Tensor a({1, 2}, {-1.0f, 1.0f + e});
  const Tensor b({2, 1}, {1.0f + 2 * e, 1.0f + e});
  for (const Tensor& y :
       {ops::matmul(a, b), ops::matmul_bt(a, ops::transpose2d(b)),
        ops::matmul_at(ops::transpose2d(a), b),
        ops::conv2d(a.reshape({1, 2, 1, 1}), b.reshape({1, 2, 1, 1}),
                    nullptr, ops::Conv2dSpec{1, 1, 1, 1, 0, 0})}) {
    EXPECT_EQ(bits_of(y[0]), 0u) << y[0];
  }
}

ops::Conv2dSpec conv_spec(int64_t kernel, int64_t stride, int64_t pad) {
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = kernel;
  s.stride_h = s.stride_w = stride;
  s.pad_h = s.pad_w = pad;
  return s;
}

/// ops::conv2d against the oracle, with and without bias, at 1 and 4
/// threads.
void expect_conv_matches(const Tensor& x, const Tensor& w, const Tensor& bias,
                         const ops::Conv2dSpec& s) {
  ThreadGuard guard;
  for (const Tensor* b : {&bias, static_cast<const Tensor*>(nullptr)}) {
    const Tensor want = ops::oracle::conv2d(x, w, b, s);
    for (int threads : {1, 4}) {
      parallel::set_num_threads(threads);
      EXPECT_EQ(bit_mismatch(ops::conv2d(x, w, b, s), want), "")
          << shape_to_string(x.shape()) << " * " << shape_to_string(w.shape())
          << " stride " << s.stride_h << " pad " << s.pad_h
          << (b ? " with" : " without") << " bias at " << threads
          << " threads";
    }
  }
}

TEST(KernelOracle, ConvModelGeometries) {
  // {C, OC, H, kernel, stride, pad}: the three models' conv shapes (3x3
  // pad 1 at stride 1 and 2, 1x1 stride 2 projection, 4x4 stride 4 patch
  // embed), plus odd sizes that leave partial row and column tiles.
  const int64_t geoms[][6] = {
      {3, 16, 16, 3, 1, 1},  {16, 32, 8, 3, 1, 1},  {5, 6, 7, 3, 1, 1},
      {16, 32, 16, 3, 2, 1}, {8, 12, 9, 3, 2, 1},   {16, 32, 16, 1, 2, 0},
      {8, 12, 7, 1, 2, 0},   {3, 64, 16, 4, 4, 0},  {3, 10, 18, 4, 4, 0},
  };
  Rng rng(105);
  for (const auto& g : geoms) {
    const int64_t C = g[0], OC = g[1], H = g[2], k = g[3];
    const Tensor x = mixed_tensor(rng, {2, C, H, H}, false);
    const Tensor w = mixed_tensor(rng, {OC, C, k, k}, false);
    const Tensor b = rng.normal_tensor({OC});
    expect_conv_matches(x, w, b, conv_spec(k, g[4], g[5]));
  }
}

TEST(KernelOracle, ConvNonFiniteNextToZeros) {
  // No tap is skipped: a zero weight against an Inf/NaN input, and an
  // Inf weight against a zero pad tap, both make NaN.
  Rng rng(106);
  for (const auto& g : {std::array<int64_t, 3>{3, 1, 1},
                        std::array<int64_t, 3>{3, 2, 1},
                        std::array<int64_t, 3>{1, 2, 0},
                        std::array<int64_t, 3>{4, 4, 0}}) {
    const int64_t k = g[0];
    const Tensor x = mixed_tensor(rng, {2, 4, 8, 8}, true);
    const Tensor w = mixed_tensor(rng, {6, 4, k, k}, true);
    const Tensor b = mixed_tensor(rng, {6}, true);
    expect_conv_matches(x, w, b, conv_spec(k, g[1], g[2]));
  }

  const ops::Conv2dSpec s = conv_spec(3, 1, 1);
  Tensor x = Tensor::ones({1, 1, 3, 3});
  x.data()[0] = kInf;  // top-left pixel
  Tensor w({2, 1, 3, 3});
  for (int64_t i = 0; i < 9; ++i) w.data()[i] = 1.0f;
  w.data()[4] = 0.0f;  // filter 0: zero centre tap meets the Inf pixel
  w.data()[9] = kInf;  // filter 1: Inf corner tap meets a pad tap
  const Tensor y = ops::conv2d(x, w, nullptr, s);
  EXPECT_EQ(bit_mismatch(y, ops::oracle::conv2d(x, w, nullptr, s)), "");
  EXPECT_TRUE(std::isnan(y[0]));      // filter 0 at (0, 0): 0 * Inf
  EXPECT_TRUE(std::isnan(y[9]));      // filter 1 at (0, 0): Inf * pad 0
  EXPECT_TRUE(std::isinf(y[9 + 4]));  // filter 1 at (1, 1): no pad tap
}

TEST(KernelOracle, Conv2dModuleTrainAndEvalMatchOracle) {
  // Training builds im2col for backward but runs the same forward kernel.
  Rng rng(107);
  nn::Conv2d conv(4, 6, 3, 2, 1, rng, true);
  conv.bias()->value = rng.normal_tensor({6});
  const Tensor x = mixed_tensor(rng, {2, 4, 9, 9}, false);
  const Tensor want = ops::oracle::conv2d(x, conv.weight().value,
                                          &conv.bias()->value, conv.spec());
  conv.train();
  EXPECT_EQ(bit_mismatch(conv(x), want), "");
  conv.eval();
  EXPECT_EQ(bit_mismatch(conv(x), want), "");
}

}  // namespace
}  // namespace ge
