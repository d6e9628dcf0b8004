// Dataset determinism/learnability and model-zoo behaviour.
#include <gtest/gtest.h>

#include <filesystem>

#include "data/dataloader.hpp"
#include "data/synthetic.hpp"
#include "models/model_factory.hpp"
#include "nn/loss.hpp"

namespace ge {
namespace {

data::SyntheticVisionConfig small_config() {
  data::SyntheticVisionConfig cfg;
  cfg.train_count = 256;
  cfg.test_count = 128;
  return cfg;
}

TEST(SyntheticVision, DeterministicForSameSeed) {
  data::SyntheticVision a(small_config());
  data::SyntheticVision b(small_config());
  EXPECT_TRUE(a.train().images.equals(b.train().images));
  EXPECT_EQ(a.train().labels, b.train().labels);
}

TEST(SyntheticVision, DifferentSeedsDiffer) {
  auto cfg = small_config();
  data::SyntheticVision a(cfg);
  cfg.seed = 999;
  data::SyntheticVision b(cfg);
  EXPECT_FALSE(a.train().images.equals(b.train().images));
}

TEST(SyntheticVision, ShapesAndLabelRange) {
  auto cfg = small_config();
  data::SyntheticVision d(cfg);
  EXPECT_EQ(d.train().images.shape(),
            (Shape{cfg.train_count, cfg.channels, cfg.image_size,
                   cfg.image_size}));
  EXPECT_EQ(d.test().size(), cfg.test_count);
  for (int64_t l : d.train().labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, cfg.num_classes);
  }
}

TEST(SyntheticVision, AllClassesPresent) {
  data::SyntheticVision d(small_config());
  std::vector<int> counts(10, 0);
  for (int64_t l : d.train().labels) ++counts[static_cast<size_t>(l)];
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(SyntheticVision, PrototypesAreStandardised) {
  data::SyntheticVision d(small_config());
  for (int64_t c = 0; c < 10; ++c) {
    const Tensor& p = d.prototype(c);
    double mean = 0.0;
    for (float v : p.flat()) mean += v;
    mean /= p.numel();
    EXPECT_NEAR(mean, 0.0, 1e-4);
  }
}

TEST(SyntheticVision, RejectsDegenerateConfig) {
  data::SyntheticVisionConfig cfg;
  cfg.num_classes = 1;
  EXPECT_THROW(data::SyntheticVision{cfg}, std::invalid_argument);
}

TEST(SyntheticVision, TestOnlySplitIsAPrefixOfTheDefaultTestSplit) {
  const data::SyntheticVision full{data::SyntheticVisionConfig{}};
  for (int64_t k : {1, 16, 512}) {
    data::SyntheticVisionConfig cfg;
    cfg.train_count = 0;
    cfg.test_count = k;
    const data::SyntheticVision cut(cfg);
    EXPECT_EQ(cut.train().size(), 0);
    ASSERT_EQ(cut.test().size(), k);
    const data::Batch want = data::take(full.test(), 0, k);
    EXPECT_TRUE(cut.test().images.equals(want.images)) << "k=" << k;
    EXPECT_EQ(cut.test().labels, want.labels) << "k=" << k;
    // eval_config is this cut; out-of-range counts keep the whole split.
    EXPECT_EQ(data::eval_config(k).train_count, 0);
    EXPECT_EQ(data::eval_config(k).test_count, k);
  }
  EXPECT_EQ(data::eval_config(513).test_count, full.test().size());
  EXPECT_EQ(data::eval_config(-1).test_count, full.test().size());
}

TEST(DataLoader, CoversWholeSplitOnce) {
  data::SyntheticVision d(small_config());
  data::DataLoader loader(d.train(), 50);
  EXPECT_EQ(loader.batch_count(), 6);  // 256 / 50 -> 6 (last short)
  int64_t total = 0;
  for (int64_t b = 0; b < loader.batch_count(); ++b) {
    total += loader.batch(b).images.size(0);
  }
  EXPECT_EQ(total, 256);
  EXPECT_THROW(loader.batch(6), std::out_of_range);
}

TEST(DataLoader, ShuffleIsSeededAndPermutes) {
  data::SyntheticVision d(small_config());
  data::DataLoader a(d.train(), 256, true, 5);
  data::DataLoader b(d.train(), 256, true, 5);
  EXPECT_EQ(a.batch(0).labels, b.batch(0).labels);
  data::DataLoader c(d.train(), 256, false);
  EXPECT_NE(a.batch(0).labels, c.batch(0).labels);  // shuffled vs natural
}

TEST(DataLoader, TakeExtractsContiguousRange) {
  data::SyntheticVision d(small_config());
  const auto b = data::take(d.test(), 10, 5);
  EXPECT_EQ(b.images.size(0), 5);
  EXPECT_EQ(b.labels[0], d.test().labels[10]);
  EXPECT_THROW(data::take(d.test(), 125, 10), std::out_of_range);
}

TEST(ModelFactory, KnowsAllModels) {
  auto cfg = small_config();
  for (const auto& name : models::model_names()) {
    auto m = models::make_model(name, cfg, 1);
    ASSERT_NE(m, nullptr) << name;
    Tensor logits = (*m)(data::take(data::SyntheticVision(cfg).test(), 0, 2)
                             .images);
    EXPECT_EQ(logits.shape(), (Shape{2, 10})) << name;
  }
  EXPECT_THROW(models::make_model("alexnet", cfg, 1), std::invalid_argument);
}

TEST(ModelFactory, SameSeedSameInit) {
  auto cfg = small_config();
  auto a = models::make_model("mlp", cfg, 7);
  auto b = models::make_model("mlp", cfg, 7);
  EXPECT_TRUE(a->parameters()[0]->value.equals(b->parameters()[0]->value));
}

TEST(Training, MlpLearnsTheTask) {
  auto cfg = small_config();
  cfg.train_count = 1024;
  data::SyntheticVision d(cfg);
  auto m = models::make_model("mlp", cfg, 2);
  models::TrainConfig tc;
  tc.epochs = 8;
  const auto r = models::train_model(*m, d, tc);
  EXPECT_GT(r.test_accuracy, 0.4f);  // well above the 10% chance floor
  EXPECT_LT(r.final_train_loss, 1.8f);
}

TEST(Training, EnsureTrainedCachesWeights) {
  auto cfg = small_config();
  data::SyntheticVision d(cfg);
  const std::string dir = "/tmp/ge_test_cache";
  std::filesystem::remove_all(dir);
  models::TrainConfig tc;
  tc.epochs = 2;
  auto first = models::ensure_trained("mlp", d, dir, tc);
  auto second = models::ensure_trained("mlp", d, dir, tc);  // from cache
  EXPECT_NEAR(first.test_accuracy, second.test_accuracy, 1e-6f);
  EXPECT_TRUE(first.model->parameters()[0]->value.equals(
      second.model->parameters()[0]->value));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ge
