// Reference oracle for the matmul family and the conv forward: the scalar
// loops that the packed-panel micro-kernel in src/tensor/tensor_ops.cpp
// replaced. Each one spells out the FP32 contract literally: one
// accumulator per output starting at +0.0f, k ascending, one rounded
// product and one rounded add per step, and the zero-A skip of `matmul`
// and `matmul_at`. Tests compare the library against these bit for bit.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace ge::ops::oracle {

/// (M,K) x (K,N), ikj order; a k step with a[i][k] == 0 is skipped.
inline Tensor matmul(const Tensor& a, const Tensor& b) {
  const int64_t M = a.size(0), K = a.size(1), N = b.size(1);
  Tensor out({M, N});
  const float* pa = a.cdata();
  const float* pb = b.cdata();
  float* po = out.data();
  for (int64_t i = 0; i < M; ++i) {
    float* crow = po + i * N;
    for (int64_t k = 0; k < K; ++k) {
      const float aval = pa[i * K + k];
      if (aval == 0.0f) continue;
      const float* brow = pb + k * N;
      for (int64_t j = 0; j < N; ++j) crow[j] += aval * brow[j];
    }
  }
  return out;
}

/// (M,K) x (N,K)^T as one dot product per output; nothing skipped.
inline Tensor matmul_bt(const Tensor& a, const Tensor& b_t) {
  const int64_t M = a.size(0), K = a.size(1), N = b_t.size(0);
  Tensor out({M, N});
  const float* pa = a.cdata();
  const float* pb = b_t.cdata();
  float* po = out.data();
  for (int64_t i = 0; i < M; ++i) {
    for (int64_t j = 0; j < N; ++j) {
      float acc = 0.0f;
      for (int64_t k = 0; k < K; ++k) acc += pa[i * K + k] * pb[j * K + k];
      po[i * N + j] = acc;
    }
  }
  return out;
}

/// (K,M)^T x (K,N), ikj order with the same zero-A skip as matmul.
inline Tensor matmul_at(const Tensor& a_t, const Tensor& b) {
  const int64_t K = a_t.size(0), M = a_t.size(1), N = b.size(1);
  Tensor out({M, N});
  const float* pa = a_t.cdata();
  const float* pb = b.cdata();
  float* po = out.data();
  for (int64_t i = 0; i < M; ++i) {
    float* crow = po + i * N;
    for (int64_t k = 0; k < K; ++k) {
      const float aval = pa[k * M + i];
      if (aval == 0.0f) continue;
      const float* brow = pb + k * N;
      for (int64_t j = 0; j < N; ++j) crow[j] += aval * brow[j];
    }
  }
  return out;
}

/// Conv forward as im2col + dot + bias: for every output position, the
/// taps in (c, kh, kw) order with pad taps read as 0.0f, one dot product
/// against the (OC, C*KH*KW) weight row, then `acc + b` (b = 0.0f when
/// `bias` is null).
inline Tensor conv2d(const Tensor& input, const Tensor& weight,
                     const Tensor* bias, const Conv2dSpec& s) {
  const int64_t N = input.size(0), C = input.size(1), H = input.size(2),
                W = input.size(3), OC = weight.size(0);
  const int64_t OH = s.out_h(H), OW = s.out_w(W);
  const int64_t KH = s.kernel_h, KW = s.kernel_w;
  Tensor out({N, OC, OH, OW});
  const float* px = input.cdata();
  const float* pw = weight.cdata();
  float* po = out.data();
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t oc = 0; oc < OC; ++oc) {
      const float b = bias != nullptr ? bias->cdata()[oc] : 0.0f;
      for (int64_t oh = 0; oh < OH; ++oh) {
        for (int64_t ow = 0; ow < OW; ++ow) {
          const float* wrow = pw + oc * C * KH * KW;
          float acc = 0.0f;
          for (int64_t c = 0; c < C; ++c) {
            for (int64_t kh = 0; kh < KH; ++kh) {
              const int64_t ih = oh * s.stride_h - s.pad_h + kh;
              for (int64_t kw = 0; kw < KW; ++kw) {
                const int64_t iw = ow * s.stride_w - s.pad_w + kw;
                float v = 0.0f;
                if (ih >= 0 && ih < H && iw >= 0 && iw < W) {
                  v = px[((n * C + c) * H + ih) * W + iw];
                }
                acc += v * *wrow++;
              }
            }
          }
          po[((n * OC + oc) * OH + oh) * OW + ow] = acc + b;
        }
      }
    }
  }
  return out;
}

}  // namespace ge::ops::oracle
