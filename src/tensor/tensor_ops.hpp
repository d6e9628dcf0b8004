// Free-function kernels over Tensor — the arithmetic substrate the NN
// framework is built from. All kernels are pure (inputs by const ref, new
// tensor out) except the explicitly `_inplace` variants used on hot paths.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "tensor/tensor.hpp"

namespace ge::ops {

/// --- elementwise binary (shapes must match exactly) ---------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
void add_inplace(Tensor& a, const Tensor& b);

/// --- elementwise with scalar --------------------------------------------
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
void mul_scalar_inplace(Tensor& a, float s);

/// --- elementwise unary ---------------------------------------------------
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor tanh(const Tensor& a);
Tensor clamp(const Tensor& a, float lo, float hi);
/// Apply an arbitrary scalar function elementwise (slow path; used by the
/// scalar number-format API and in tests).
Tensor map(const Tensor& a, const std::function<float(float)>& f);
void map_inplace(Tensor& a, const std::function<float(float)>& f);

/// --- reductions -----------------------------------------------------------
float sum(const Tensor& a);
float mean(const Tensor& a);
float max_abs(const Tensor& a);
float min_value(const Tensor& a);
float max_value(const Tensor& a);
/// Row-wise argmax over the last dimension; returns indices, one per row.
std::vector<int64_t> argmax_rows(const Tensor& a);

/// --- linear algebra --------------------------------------------------------
/// 2-D matrix product: (M,K) x (K,N) -> (M,N).
Tensor matmul(const Tensor& a, const Tensor& b);
/// 2-D product with the *second* operand transposed: (M,K) x (N,K)^T -> (M,N).
/// Row-major friendly; this is the kernel Linear layers use.
Tensor matmul_bt(const Tensor& a, const Tensor& b_t);
/// 2-D product with the *first* operand transposed: (K,M)^T x (K,N) -> (M,N).
Tensor matmul_at(const Tensor& a_t, const Tensor& b);
/// 2-D transpose.
Tensor transpose2d(const Tensor& a);

/// --- softmax family ---------------------------------------------------------
/// Numerically-stable softmax over the last dimension.
Tensor softmax_lastdim(const Tensor& a);
/// Numerically-stable log-softmax over the last dimension.
Tensor log_softmax_lastdim(const Tensor& a);

/// --- convolution helpers ------------------------------------------------------
/// Parameters of a 2-D convolution / pooling window.
struct Conv2dSpec {
  int64_t kernel_h = 3, kernel_w = 3;
  int64_t stride_h = 1, stride_w = 1;
  int64_t pad_h = 0, pad_w = 0;

  int64_t out_h(int64_t in_h) const {
    return (in_h + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  int64_t out_w(int64_t in_w) const {
    return (in_w + 2 * pad_w - kernel_w) / stride_w + 1;
  }
};

/// 2-D convolution: NCHW input * (OC, C, KH, KW) weight -> (N, OC, OH, OW),
/// each output `acc + bias[oc]` (+0.0f without a bias), where acc runs the
/// matmul family's FP32 contract over the taps in (c, kh, kw) order, pad
/// taps included as 0.0f. Gathers its operand panels from the input (from
/// a zero-padded copy when the spec pads); no im2col matrix is built.
Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const Conv2dSpec& spec);
/// Unfold an NCHW input into an im2col matrix of shape
/// (N*OH*OW, C*KH*KW): row r holds the taps conv2d reduces for output
/// position r. Conv2d::backward consumes it.
Tensor im2col(const Tensor& input, const Conv2dSpec& spec);
/// Fold an im2col-shaped gradient back onto the NCHW input (adjoint of
/// im2col); used by Conv2d::backward.
Tensor col2im(const Tensor& cols, const Shape& input_shape,
              const Conv2dSpec& spec);

/// --- pooling -----------------------------------------------------------------
/// Max-pool NCHW input; `argmax_out`, if non-null, receives the flat input
/// index of each pooled maximum (needed for the backward pass).
Tensor maxpool2d(const Tensor& input, const Conv2dSpec& spec,
                 std::vector<int64_t>* argmax_out = nullptr);
/// Average over each window.
Tensor avgpool2d(const Tensor& input, const Conv2dSpec& spec);
/// Global average pool: NCHW -> (N, C).
Tensor global_avgpool(const Tensor& input);

}  // namespace ge::ops
