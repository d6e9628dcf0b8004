#include "nn/conv.hpp"

#include <stdexcept>

#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"

namespace ge::nn {

namespace {
ops::Conv2dSpec make_spec(int64_t kernel, int64_t stride, int64_t padding) {
  ops::Conv2dSpec s;
  s.kernel_h = s.kernel_w = kernel;
  s.stride_h = s.stride_w = stride;
  s.pad_h = s.pad_w = padding;
  return s;
}
}  // namespace

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, Rng& rng, bool with_bias)
    : Module("Conv2d"),
      in_c_(in_channels),
      out_c_(out_channels),
      with_bias_(with_bias),
      spec_(make_spec(kernel, stride, padding)),
      weight_("weight",
              rng.kaiming_normal({out_channels, in_channels, kernel, kernel},
                                 in_channels * kernel * kernel)),
      bias_("bias", Tensor({out_channels})) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 ||
      padding < 0) {
    throw std::invalid_argument("Conv2d: invalid geometry");
  }
}

Tensor Conv2d::forward(const Tensor& input) {
  if (input.dim() != 4 || input.size(1) != in_c_) {
    throw std::invalid_argument("Conv2d: expected NCHW with C=" +
                                std::to_string(in_c_) + ", got " +
                                shape_to_string(input.shape()));
  }
  if (is_training()) {
    cached_cols_ = ops::im2col(input, spec_);  // backward's GEMM operand
    cached_input_shape_ = input.shape();
  } else {
    obs::add(obs::Counter::kAllocationsAvoided);  // the skipped cols matrix
  }
  return ops::conv2d(input, weight_.value, with_bias_ ? &bias_.value : nullptr,
                     spec_);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (cached_cols_.empty()) {
    throw std::logic_error("Conv2d::backward before forward (train mode)");
  }
  const int64_t N = cached_input_shape_[0], H = cached_input_shape_[2],
                W = cached_input_shape_[3];
  const int64_t OH = spec_.out_h(H), OW = spec_.out_w(W);
  const int64_t patch = in_c_ * spec_.kernel_h * spec_.kernel_w;

  // NCHW grad -> (N*OH*OW, OC) row layout matching the forward GEMM.
  Tensor gmat({N * OH * OW, out_c_});
  const float* pg = grad_out.data();
  float* pgm = gmat.data();
  parallel::parallel_for(
      0, N * out_c_, parallel::grain_for(OH * OW), [&](int64_t lo, int64_t hi) {
        for (int64_t noc = lo; noc < hi; ++noc) {
          const int64_t n = noc / out_c_;
          const int64_t oc = noc % out_c_;
          const float* src = pg + noc * OH * OW;
          float* dst = pgm + n * OH * OW * out_c_ + oc;
          for (int64_t i = 0; i < OH * OW; ++i) dst[i * out_c_] = src[i];
        }
      });

  // dW = g^T cols ; db = column-sum(g) ; dcols = g Wmat ; dx = col2im(dcols)
  Tensor gw = ops::matmul_at(gmat, cached_cols_);  // (OC, patch)
  ops::add_inplace(weight_.grad,
                   gw.reshape(weight_.value.shape()));
  if (with_bias_) {
    float* pgb = bias_.grad.data();
    const int64_t rows = N * OH * OW;
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t oc = 0; oc < out_c_; ++oc) {
        pgb[oc] += pgm[r * out_c_ + oc];
      }
    }
  }
  Tensor wmat = weight_.value.reshape({out_c_, patch});
  Tensor gcols = ops::matmul(gmat, wmat);  // (N*OH*OW, patch)
  return ops::col2im(gcols, cached_input_shape_, spec_);
}

std::vector<Parameter*> Conv2d::local_parameters() {
  if (with_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace ge::nn
