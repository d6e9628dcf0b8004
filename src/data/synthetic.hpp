// SyntheticVision: a deterministic, procedurally-generated image
// classification dataset — this repo's stand-in for the paper's ImageNet
// evaluation data (see DESIGN.md §1 for the substitution argument).
//
// Each class has a smooth random prototype pattern; samples are the
// prototype under additive Gaussian noise, random circular shifts, and
// contrast/brightness jitter. The task is learnable (>90% with the tiny
// models in src/models) but not saturated, so format-induced accuracy
// drops and fault-induced misclassifications are statistically visible.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace ge::data {

struct SyntheticVisionConfig {
  int64_t num_classes = 10;
  int64_t channels = 3;
  int64_t image_size = 16;
  int64_t train_count = 2000;
  int64_t test_count = 512;
  float noise_sigma = 2.5f;  ///< keeps trained accuracy ~90-97%, not saturated
  int64_t max_shift = 3;
  uint64_t seed = 0xC0FFEE;
};

/// The default dataset cut down for runs that read only its first `count`
/// test images: no train split, and `count` test images (the whole default
/// test split when `count` is negative or larger). The test split draws
/// from its own forked stream, so these are bitwise the first `count`
/// images and labels of the default test split.
SyntheticVisionConfig eval_config(int64_t count);

/// A materialised split: images (N, C, H, W) and integer labels.
struct Split {
  Tensor images;
  std::vector<int64_t> labels;

  int64_t size() const noexcept {
    return static_cast<int64_t>(labels.size());
  }
};

class SyntheticVision {
 public:
  explicit SyntheticVision(SyntheticVisionConfig cfg = {});

  const Split& train() const noexcept { return train_; }
  const Split& test() const noexcept { return test_; }
  const SyntheticVisionConfig& config() const noexcept { return cfg_; }

  /// The smooth prototype pattern of one class (C, H, W) — exposed for
  /// tests and visual inspection.
  const Tensor& prototype(int64_t cls) const;

 private:
  Split generate_split(int64_t count, Rng& rng) const;

  SyntheticVisionConfig cfg_;
  std::vector<Tensor> prototypes_;
  Split train_;
  Split test_;
};

}  // namespace ge::data
