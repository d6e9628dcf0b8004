#include "nn/embedding.hpp"

#include <algorithm>
#include <stdexcept>

namespace ge::nn {

PatchEmbed::PatchEmbed(int64_t in_channels, int64_t embed_dim, int64_t patch,
                       Rng& rng)
    : Module("PatchEmbed"),
      dim_(embed_dim),
      proj_(std::make_unique<Conv2d>(in_channels, embed_dim, patch, patch,
                                     /*padding=*/0, rng)) {
  register_child("proj", *proj_);
}

Tensor PatchEmbed::forward(const Tensor& input) {
  Tensor y = (*proj_)(input);  // (B, D, GH, GW)
  cached_conv_shape_ = y.shape();
  const int64_t B = y.size(0), D = y.size(1), G = y.size(2) * y.size(3);
  // (B, D, G) -> (B, G, D) token layout. A single patch grid cell (G == 1)
  // makes the transpose an identity on storage: reshape shares the buffer
  // instead of copying it.
  if (G == 1) return y.reshape({B, G, D});
  Tensor out({B, G, D});
  const float* py = y.cdata();
  float* po = out.data();
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t g = 0; g < G; ++g) {
      for (int64_t d = 0; d < D; ++d) {
        po[(b * G + g) * D + d] = py[(b * D + d) * G + g];
      }
    }
  }
  return out;
}

Tensor PatchEmbed::backward(const Tensor& grad_out) {
  if (cached_conv_shape_.size() != 4) {
    throw std::logic_error("PatchEmbed::backward before forward");
  }
  const int64_t B = cached_conv_shape_[0], D = cached_conv_shape_[1],
                G = cached_conv_shape_[2] * cached_conv_shape_[3];
  Tensor gconv(cached_conv_shape_);
  const float* pg = grad_out.data();
  float* po = gconv.data();
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t d = 0; d < D; ++d) {
      for (int64_t g = 0; g < G; ++g) {
        po[(b * D + d) * G + g] = pg[(b * G + g) * D + d];
      }
    }
  }
  return proj_->backward(gconv);
}

ClassTokenPosEmbed::ClassTokenPosEmbed(int64_t num_patches, int64_t dim,
                                       Rng& rng)
    : Module("ClassTokenPosEmbed"),
      num_patches_(num_patches),
      dim_(dim),
      cls_("cls_token", rng.normal_tensor({1, dim}, 0.0f, 0.02f)),
      pos_("pos_embed",
           rng.normal_tensor({num_patches + 1, dim}, 0.0f, 0.02f)) {}

Tensor ClassTokenPosEmbed::forward(const Tensor& input) {
  if (input.dim() != 3 || input.size(1) != num_patches_ ||
      input.size(2) != dim_) {
    throw std::invalid_argument("ClassTokenPosEmbed: expected (B, " +
                                std::to_string(num_patches_) + ", " +
                                std::to_string(dim_) + ")");
  }
  const int64_t B = input.size(0), T = num_patches_ + 1;
  Tensor out({B, T, dim_});
  const float* pin = input.data();
  const float* pcls = cls_.value.cdata();
  const float* ppos = pos_.value.cdata();
  float* po = out.data();
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t d = 0; d < dim_; ++d) {
      po[(b * T + 0) * dim_ + d] = pcls[d] + ppos[d];
    }
    for (int64_t t = 1; t < T; ++t) {
      for (int64_t d = 0; d < dim_; ++d) {
        po[(b * T + t) * dim_ + d] =
            pin[(b * num_patches_ + (t - 1)) * dim_ + d] + ppos[t * dim_ + d];
      }
    }
  }
  return out;
}

Tensor ClassTokenPosEmbed::backward(const Tensor& grad_out) {
  const int64_t B = grad_out.size(0), T = num_patches_ + 1;
  Tensor gx({B, num_patches_, dim_});
  const float* pg = grad_out.data();
  float* pgx = gx.data();
  float* const pclsg = cls_.grad.data();
  float* const pposg = pos_.grad.data();
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t d = 0; d < dim_; ++d) {
      pclsg[d] += pg[(b * T + 0) * dim_ + d];
    }
    for (int64_t t = 0; t < T; ++t) {
      for (int64_t d = 0; d < dim_; ++d) {
        pposg[t * dim_ + d] += pg[(b * T + t) * dim_ + d];
      }
    }
    for (int64_t t = 1; t < T; ++t) {
      for (int64_t d = 0; d < dim_; ++d) {
        pgx[(b * num_patches_ + (t - 1)) * dim_ + d] =
            pg[(b * T + t) * dim_ + d];
      }
    }
  }
  return gx;
}

std::vector<Parameter*> ClassTokenPosEmbed::local_parameters() {
  return {&cls_, &pos_};
}

Tensor TakeClassToken::forward(const Tensor& input) {
  if (input.dim() != 3) {
    throw std::invalid_argument("TakeClassToken: expected (B, T, D)");
  }
  cached_shape_ = input.shape();
  const int64_t B = input.size(0), T = input.size(1), D = input.size(2);
  // Single-token input: taking token 0 is the whole tensor — share the
  // storage instead of copying it.
  if (T == 1) return input.reshape({B, D});
  Tensor out({B, D});
  const float* pin = input.cdata();
  float* po = out.data();
  for (int64_t b = 0; b < B; ++b) std::copy_n(pin + b * T * D, D, po + b * D);
  return out;
}

Tensor TakeClassToken::backward(const Tensor& grad_out) {
  if (cached_shape_.size() != 3) {
    throw std::logic_error("TakeClassToken::backward before forward");
  }
  const int64_t B = cached_shape_[0], T = cached_shape_[1],
                D = cached_shape_[2];
  Tensor gx(cached_shape_);
  const float* pg = grad_out.data();
  float* po = gx.data();
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t d = 0; d < D; ++d) po[(b * T) * D + d] = pg[b * D + d];
  }
  return gx;
}

}  // namespace ge::nn
