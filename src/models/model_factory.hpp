// Model factory + training loop + trained-weight caching.
//
// Benchmarks and examples need *trained* models (format sensitivity is
// only meaningful on real weight/activation distributions). Training the
// tiny zoo takes seconds-to-minutes on CPU; ensure_trained() trains once
// and caches weights on disk keyed by (model, dataset seed) so repeated
// bench runs are fast and deterministic.
#pragma once

#include <memory>
#include <string>

#include "data/synthetic.hpp"
#include "nn/module.hpp"

namespace ge::models {

/// Known names: "mlp", "simple_cnn", "tiny_resnet", "tiny_deit".
std::unique_ptr<nn::Module> make_model(const std::string& name,
                                       const data::SyntheticVisionConfig& data_cfg,
                                       uint64_t seed);

std::vector<std::string> model_names();

struct TrainConfig {
  int64_t epochs = 6;
  int64_t batch_size = 32;
  float lr = 3e-3f;
  float weight_decay = 1e-4f;
  uint64_t seed = 7;
  bool verbose = false;
};

struct TrainResult {
  float final_train_loss = 0.0f;
  float test_accuracy = 0.0f;
};

/// Adam training on the synthetic train split; returns final metrics.
TrainResult train_model(nn::Module& model, const data::SyntheticVision& data,
                        const TrainConfig& cfg);

/// Test-set top-1 accuracy, evaluated in batches.
float evaluate_accuracy(nn::Module& model, const data::Split& split,
                        int64_t batch_size = 64);

/// Build `name`, then load cached weights from `cache_dir` if present,
/// else train and cache. Returns the model and its test accuracy.
struct TrainedModel {
  std::unique_ptr<nn::Module> model;
  float test_accuracy = 0.0f;
};
TrainedModel ensure_trained(const std::string& name,
                            const data::SyntheticVision& data,
                            const std::string& cache_dir,
                            const TrainConfig& cfg = {});

/// `name` trained on the default synthetic dataset, for runs that only
/// evaluate it: the cached weights when present (no dataset is built and
/// no accuracy pass runs), else ensure_trained on the full dataset.
std::unique_ptr<nn::Module> load_or_train(const std::string& name,
                                          const std::string& cache_dir,
                                          const TrainConfig& cfg = {});

}  // namespace ge::models
