// Conv2d: 2-D convolution over NCHW tensors (ops::conv2d forward; backward
// through im2col + GEMM).
#pragma once

#include "nn/module.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace ge::nn {

class Conv2d : public Module {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t padding, Rng& rng, bool with_bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<Parameter*> local_parameters() override;

  Parameter& weight() noexcept { return weight_; }
  Parameter* bias() noexcept { return with_bias_ ? &bias_ : nullptr; }
  const ops::Conv2dSpec& spec() const noexcept { return spec_; }
  int64_t in_channels() const noexcept { return in_c_; }
  int64_t out_channels() const noexcept { return out_c_; }

 private:
  int64_t in_c_;
  int64_t out_c_;
  bool with_bias_;
  ops::Conv2dSpec spec_;
  Parameter weight_;  // (OC, C, KH, KW)
  Parameter bias_;    // (OC)
  Tensor cached_cols_;  // im2col matrix from the last training forward
  Shape cached_input_shape_;
};

}  // namespace ge::nn
