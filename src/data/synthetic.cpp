#include "data/synthetic.hpp"

#include <cmath>
#include <stdexcept>

namespace ge::data {

namespace {

/// 3x3 box blur with circular boundary, applied per channel.
Tensor box_blur(const Tensor& img, int64_t C, int64_t S) {
  Tensor out(img.shape());
  const float* pin = img.data();
  float* po = out.data();
  for (int64_t c = 0; c < C; ++c) {
    const float* plane = pin + c * S * S;
    float* oplane = po + c * S * S;
    for (int64_t y = 0; y < S; ++y) {
      for (int64_t x = 0; x < S; ++x) {
        float acc = 0.0f;
        for (int64_t dy = -1; dy <= 1; ++dy) {
          for (int64_t dx = -1; dx <= 1; ++dx) {
            const int64_t yy = (y + dy + S) % S;
            const int64_t xx = (x + dx + S) % S;
            acc += plane[yy * S + xx];
          }
        }
        oplane[y * S + x] = acc / 9.0f;
      }
    }
  }
  return out;
}

/// Standardise to zero mean / unit variance.
void standardise(Tensor& t) {
  double s = 0.0;
  for (float v : t.flat()) s += v;
  const float mu = static_cast<float>(s / double(t.numel()));
  double var = 0.0;
  for (float v : t.flat()) var += (double(v) - mu) * (double(v) - mu);
  const float sd =
      std::sqrt(static_cast<float>(var / double(t.numel()))) + 1e-8f;
  for (float& v : t.flat()) v = (v - mu) / sd;
}

}  // namespace

SyntheticVisionConfig eval_config(int64_t count) {
  SyntheticVisionConfig cfg;
  cfg.train_count = 0;
  if (count >= 0 && count < cfg.test_count) cfg.test_count = count;
  return cfg;
}

SyntheticVision::SyntheticVision(SyntheticVisionConfig cfg)
    : cfg_(cfg) {
  if (cfg_.num_classes < 2 || cfg_.channels < 1 || cfg_.image_size < 4) {
    throw std::invalid_argument("SyntheticVision: degenerate config");
  }
  Rng rng(cfg_.seed);
  // Class prototypes: smooth random fields, standardised.
  prototypes_.reserve(static_cast<size_t>(cfg_.num_classes));
  for (int64_t c = 0; c < cfg_.num_classes; ++c) {
    Rng proto_rng = rng.fork();
    Tensor p = proto_rng.normal_tensor(
        {cfg_.channels, cfg_.image_size, cfg_.image_size});
    p = box_blur(p, cfg_.channels, cfg_.image_size);
    p = box_blur(p, cfg_.channels, cfg_.image_size);
    standardise(p);
    prototypes_.push_back(std::move(p));
  }
  // Each split draws from its own fork, so the test images do not depend
  // on train_count, and a shorter test split is a prefix of a longer one
  // (what eval_config relies on).
  Rng train_rng = rng.fork();
  Rng test_rng = rng.fork();
  train_ = generate_split(cfg_.train_count, train_rng);
  test_ = generate_split(cfg_.test_count, test_rng);
}

Split SyntheticVision::generate_split(int64_t count, Rng& rng) const {
  const int64_t C = cfg_.channels, S = cfg_.image_size;
  Split split;
  split.images = Tensor({count, C, S, S});
  split.labels.resize(static_cast<size_t>(count));
  float* pout = split.images.data();
  for (int64_t n = 0; n < count; ++n) {
    const int64_t cls = rng.randint(0, cfg_.num_classes - 1);
    split.labels[static_cast<size_t>(n)] = cls;
    const Tensor& proto = prototypes_[static_cast<size_t>(cls)];
    const int64_t sy = rng.randint(-cfg_.max_shift, cfg_.max_shift);
    const int64_t sx = rng.randint(-cfg_.max_shift, cfg_.max_shift);
    const float contrast = rng.uniform(0.8f, 1.2f);
    const float brightness = rng.normal(0.0f, 0.1f);
    const float* pp = proto.data();
    float* img = pout + n * C * S * S;
    for (int64_t c = 0; c < C; ++c) {
      for (int64_t y = 0; y < S; ++y) {
        for (int64_t x = 0; x < S; ++x) {
          const int64_t yy = (y + sy + S) % S;
          const int64_t xx = (x + sx + S) % S;
          img[(c * S + y) * S + x] =
              contrast * pp[(c * S + yy) * S + xx] + brightness +
              rng.normal(0.0f, cfg_.noise_sigma);
        }
      }
    }
  }
  return split;
}

const Tensor& SyntheticVision::prototype(int64_t cls) const {
  return prototypes_.at(static_cast<size_t>(cls));
}

}  // namespace ge::data
