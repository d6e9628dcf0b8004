#include "models/model_factory.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "data/dataloader.hpp"
#include "models/mlp.hpp"
#include "models/simple_cnn.hpp"
#include "models/tiny_deit.hpp"
#include "models/tiny_resnet.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "obs/telemetry.hpp"

namespace ge::models {

std::unique_ptr<nn::Module> make_model(
    const std::string& name, const data::SyntheticVisionConfig& data_cfg,
    uint64_t seed) {
  Rng rng(seed);
  const int64_t C = data_cfg.channels;
  const int64_t S = data_cfg.image_size;
  const int64_t classes = data_cfg.num_classes;
  if (name == "mlp") {
    return std::make_unique<Mlp>(C * S * S, std::vector<int64_t>{128, 64},
                                 classes, rng);
  }
  if (name == "simple_cnn") {
    return std::make_unique<SimpleCnn>(C, classes, rng);
  }
  if (name == "tiny_resnet") {
    // width 8 keeps CPU training time reasonable while preserving the
    // 8/16/32 channel ladder and residual structure
    return std::make_unique<TinyResNet>(C, classes, rng, /*width=*/8);
  }
  if (name == "tiny_deit") {
    TinyDeit::Config cfg;
    cfg.image_size = S;
    cfg.in_channels = C;
    cfg.num_classes = classes;
    return std::make_unique<TinyDeit>(cfg, rng);
  }
  throw std::invalid_argument("make_model: unknown model '" + name + "'");
}

std::vector<std::string> model_names() {
  return {"mlp", "simple_cnn", "tiny_resnet", "tiny_deit"};
}

TrainResult train_model(nn::Module& model, const data::SyntheticVision& data,
                        const TrainConfig& cfg) {
  obs::Span train_span("train", "train_model");
  model.train(true);
  nn::Adam opt(model.parameters(), cfg.lr, 0.9f, 0.999f, 1e-8f,
               cfg.weight_decay);
  data::DataLoader loader(data.train(), cfg.batch_size, /*shuffle=*/true,
                          cfg.seed);
  nn::CrossEntropyLoss loss;
  TrainResult result;
  for (int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    obs::Span epoch_span("train", "epoch");
    loader.reset();
    double epoch_loss = 0.0;
    for (int64_t b = 0; b < loader.batch_count(); ++b) {
      const data::Batch batch = loader.batch(b);
      opt.zero_grad();
      Tensor logits = model(batch.images);
      const float l = loss.forward(logits, batch.labels);
      model.backward(loss.backward());
      opt.step();
      epoch_loss += l;
    }
    result.final_train_loss =
        static_cast<float>(epoch_loss / double(loader.batch_count()));
    if (cfg.verbose) {
      std::printf("  epoch %lld/%lld: train loss %.4f\n",
                  static_cast<long long>(epoch + 1),
                  static_cast<long long>(cfg.epochs),
                  result.final_train_loss);
    }
  }
  model.eval();
  result.test_accuracy = evaluate_accuracy(model, data.test());
  return result;
}

float evaluate_accuracy(nn::Module& model, const data::Split& split,
                        int64_t batch_size) {
  model.eval();
  data::DataLoader loader(split, batch_size);
  int64_t correct = 0;
  for (int64_t b = 0; b < loader.batch_count(); ++b) {
    const data::Batch batch = loader.batch(b);
    Tensor logits = model(batch.images);
    const float acc = nn::accuracy(logits, batch.labels);
    correct += static_cast<int64_t>(
        acc * static_cast<float>(batch.labels.size()) + 0.5f);
  }
  return static_cast<float>(correct) / static_cast<float>(split.size());
}

namespace {

std::string cache_path(const std::string& name,
                       const data::SyntheticVisionConfig& data_cfg,
                       const std::string& cache_dir) {
  return cache_dir + "/" + name + "_seed" + std::to_string(data_cfg.seed) +
         ".gew";
}

/// Build `name` and load its cached weights, in eval mode, without
/// evaluating anything; nullptr when the cache has no entry for it.
std::unique_ptr<nn::Module> load_cached(
    const std::string& name, const data::SyntheticVisionConfig& data_cfg,
    const std::string& cache_dir) {
  const std::string path = cache_path(name, data_cfg, cache_dir);
  if (!std::filesystem::exists(path)) return nullptr;
  auto model = make_model(name, data_cfg, /*seed=*/42);
  model->load_weights(path);
  model->eval();
  return model;
}

}  // namespace

TrainedModel ensure_trained(const std::string& name,
                            const data::SyntheticVision& data,
                            const std::string& cache_dir,
                            const TrainConfig& cfg) {
  TrainedModel out;
  out.model = load_cached(name, data.config(), cache_dir);
  if (out.model != nullptr) {
    out.test_accuracy = evaluate_accuracy(*out.model, data.test());
    return out;
  }
  out.model = make_model(name, data.config(), /*seed=*/42);
  std::filesystem::create_directories(cache_dir);
  const TrainResult r = train_model(*out.model, data, cfg);
  out.model->save_weights(cache_path(name, data.config(), cache_dir));
  out.test_accuracy = r.test_accuracy;
  return out;
}

std::unique_ptr<nn::Module> load_or_train(const std::string& name,
                                          const std::string& cache_dir,
                                          const TrainConfig& cfg) {
  auto model = load_cached(name, data::SyntheticVisionConfig{}, cache_dir);
  if (model != nullptr) return model;
  const data::SyntheticVision data{data::SyntheticVisionConfig{}};
  return ensure_trained(name, data, cache_dir, cfg).model;
}

}  // namespace ge::models
