// Injector: value and metadata fault injection, determinism, cleanup.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "core/injector.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic.hpp"
#include "formats/format_registry.hpp"
#include "models/model_factory.hpp"
#include "nn/activation.hpp"
#include "nn/sequential.hpp"

namespace ge::core {
namespace {

struct Fixture {
  data::SyntheticVision data;
  std::unique_ptr<nn::Module> model;
  data::Batch batch;

  explicit Fixture(const std::string& model_name = "simple_cnn")
      : data([] {
          data::SyntheticVisionConfig cfg;
          cfg.train_count = 16;
          cfg.test_count = 64;
          return cfg;
        }()),
        model(models::make_model(model_name, data.config(), 3)),
        batch(data::take(data.test(), 0, 8)) {
    model->eval();
  }
};

TEST(Injector, ArmRejectsUnknownLayer) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 1);
  InjectionSpec spec;
  spec.layer_path = "not.a.layer";
  EXPECT_THROW(inj.arm(spec), std::invalid_argument);
}

TEST(Injector, ArmRejectsMetadataOnMetadatalessFormat) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";  // plain FP: no metadata
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 1);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.site = InjectionSite::kMetadata;
  EXPECT_THROW(inj.arm(spec), std::invalid_argument);
}

TEST(Injector, ArmRejectsZeroBits) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 1);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.num_bits = 0;
  EXPECT_THROW(inj.arm(spec), std::invalid_argument);
}

TEST(Injector, ActivationFlipFiresOncePerForward) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 7);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  inj.arm(spec);
  EXPECT_FALSE(inj.fired());
  (void)(*f.model)(f.batch.images);
  EXPECT_TRUE(inj.fired());
  ASSERT_TRUE(inj.last_record().has_value());
  const auto& rec = *inj.last_record();
  EXPECT_EQ(rec.site, InjectionSite::kActivationValue);
  EXPECT_EQ(rec.bits.size(), 1u);
  // second forward without re-arming: no further injection
  const Tensor clean1 = (*f.model)(f.batch.images);
  const Tensor clean2 = (*f.model)(f.batch.images);
  EXPECT_TRUE(clean1.equals(clean2));
}

TEST(Injector, DeterministicUnderSeed) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  auto run = [&](uint64_t seed) {
    Emulator emu(*f.model, cfg);
    Injector inj(emu, seed);
    InjectionSpec spec;
    spec.layer_path = emu.sites()[1].path;
    inj.arm(spec);
    (void)(*f.model)(f.batch.images);
    return *inj.last_record();
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a.element, b.element);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_TRUE(a.element != c.element || a.bits != c.bits);
}

TEST(Injector, ExplicitElementAndBitAreHonoured) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 1);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.element = 5;
  spec.bit = 14;  // top exponent bit of e5m10
  inj.arm(spec);
  (void)(*f.model)(f.batch.images);
  const auto& rec = *inj.last_record();
  EXPECT_EQ(rec.element, 5);
  ASSERT_EQ(rec.bits.size(), 1u);
  EXPECT_EQ(rec.bits[0], 14);
  EXPECT_NE(rec.value_before, rec.value_after);
}

TEST(Injector, BitOutOfRangeThrowsAtApplication) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "int8";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 1);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.bit = 9;  // int8 has 8 bits
  inj.arm(spec);
  EXPECT_THROW((void)(*f.model)(f.batch.images), std::invalid_argument);
}

TEST(Injector, MultiBitFlipsDistinctBits) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 9);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.num_bits = 4;
  inj.arm(spec);
  (void)(*f.model)(f.batch.images);
  const auto& rec = *inj.last_record();
  ASSERT_EQ(rec.bits.size(), 4u);
  std::set<int> unique(rec.bits.begin(), rec.bits.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(Injector, SignBitFlipNegatesActivation) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 1);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.element = 3;
  spec.bit = 15;  // sign bit
  inj.arm(spec);
  (void)(*f.model)(f.batch.images);
  const auto& rec = *inj.last_record();
  EXPECT_EQ(rec.value_after, -rec.value_before);
}

TEST(Injector, WeightInjectionAppliedAndRestored) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 3);
  LayerSite& site = emu.sites()[0];
  nn::Parameter* w = site.module->local_parameters()[0];
  const Tensor before = w->value;
  InjectionSpec spec;
  spec.layer_path = site.path;
  spec.site = InjectionSite::kWeightValue;
  spec.element = 7;
  inj.arm(spec);
  EXPECT_TRUE(inj.fired());  // weight faults apply at arm time
  EXPECT_FALSE(w->value.equals(before));
  EXPECT_NE(w->value[7], before[7]);
  inj.disarm();
  EXPECT_TRUE(w->value.equals(before));
}

TEST(Injector, MetadataInjectionAffectsManyValues) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "bfp_e5m5_b16";
  Emulator emu(*f.model, cfg);

  // fault-free emulated reference
  const Tensor golden = (*f.model)(f.batch.images);

  Injector inj(emu, 5);
  InjectionSpec spec;
  // Target the classifier head: its output IS the logits, so the fault
  // cannot be masked by downstream ReLUs (earlier-layer faults can be —
  // that masking is itself paper-faithful behaviour).
  spec.layer_path = emu.sites().back().path;
  spec.site = InjectionSite::kMetadata;
  spec.bit = 4;  // MSB of the 5-bit shared exponent: large corruption
  spec.metadata_index = 0;
  inj.arm(spec);
  const Tensor faulty = (*f.model)(f.batch.images);
  const auto& rec = *inj.last_record();
  EXPECT_EQ(rec.metadata_field, "shared_exponent");
  EXPECT_EQ(rec.metadata_index, 0);
  EXPECT_FALSE(faulty.allclose(golden, 1e-6f));
}

TEST(Injector, MetadataFieldNameIsValidated) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "int8";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 5);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.site = InjectionSite::kMetadata;
  spec.metadata_field = "unknown_register";
  inj.arm(spec);
  EXPECT_THROW((void)(*f.model)(f.batch.images), std::invalid_argument);
}

TEST(Injector, AfpBiasInjectionMisalignsLayerRange) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "afp_e4m3";
  Emulator emu(*f.model, cfg);
  const Tensor golden = (*f.model)(f.batch.images);
  Injector inj(emu, 6);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.site = InjectionSite::kMetadata;
  // Conv activations adapt to a small positive offset (bit 3 clear), so
  // setting bit 3 raises the bias by 8: the representable range moves 8
  // binades down and the layer's activations clip hard.
  spec.bit = 3;
  inj.arm(spec);
  const Tensor faulty = (*f.model)(f.batch.images);
  EXPECT_FALSE(faulty.equals(golden));
}

TEST(Injector, ToStringCoversAllSites) {
  EXPECT_STREQ(to_string(InjectionSite::kActivationValue),
               "activation_value");
  EXPECT_STREQ(to_string(InjectionSite::kWeightValue), "weight_value");
  EXPECT_STREQ(to_string(InjectionSite::kMetadata), "metadata");
  EXPECT_STREQ(to_string(ErrorModel::kBitFlip), "bit_flip");
  EXPECT_STREQ(to_string(ErrorModel::kStuckAt0), "stuck_at_0");
  EXPECT_STREQ(to_string(ErrorModel::kStuckAt1), "stuck_at_1");
}

TEST(Injector, StuckAt0ClearsSignBitOfNegativeActivation) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);

  // find a negative activation element at the first site
  Tensor probe;
  auto h = emu.sites()[0].module->add_forward_hook(
      [&probe](nn::Module&, Tensor& y) { probe = y; });
  (void)(*f.model)(f.batch.images);
  emu.sites()[0].module->remove_hook(h);
  int64_t neg = -1;
  for (int64_t i = 0; i < probe.numel(); ++i) {
    if (probe[i] < 0.0f) {
      neg = i;
      break;
    }
  }
  ASSERT_GE(neg, 0);

  Injector inj(emu, 1);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.model = ErrorModel::kStuckAt0;
  spec.element = neg;
  spec.bit = 15;  // sign bit
  inj.arm(spec);
  (void)(*f.model)(f.batch.images);
  const auto& rec = *inj.last_record();
  EXPECT_LT(rec.value_before, 0.0f);
  EXPECT_GT(rec.value_after, 0.0f);  // sign forced to 0: now positive
  EXPECT_EQ(rec.value_after, -rec.value_before);
}

TEST(Injector, StuckAt1IsIdempotentOnSetBits) {
  // Pinning a bit that is already 1 must be a masked fault (no change).
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  Tensor probe;
  auto h = emu.sites()[0].module->add_forward_hook(
      [&probe](nn::Module&, Tensor& y) { probe = y; });
  (void)(*f.model)(f.batch.images);
  emu.sites()[0].module->remove_hook(h);
  int64_t neg = -1;
  for (int64_t i = 0; i < probe.numel(); ++i) {
    if (probe[i] < 0.0f) {
      neg = i;
      break;
    }
  }
  ASSERT_GE(neg, 0);

  Injector inj(emu, 1);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.model = ErrorModel::kStuckAt1;
  spec.element = neg;
  spec.bit = 15;  // sign bit of a negative value is already 1
  inj.arm(spec);
  (void)(*f.model)(f.batch.images);
  const auto& rec = *inj.last_record();
  EXPECT_EQ(rec.value_after, rec.value_before);
}

// --- error-model zoo -------------------------------------------------------

TEST(InjectorZoo, ZooModelsRejectNonActivationSites) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 1);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.model = ErrorModel::kBerUniform;
  spec.ber = 0.01;
  spec.site = InjectionSite::kWeightValue;
  EXPECT_THROW(inj.arm(spec), std::invalid_argument);
}

TEST(InjectorZoo, BerUniformRequiresARateInUnitInterval) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 1);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.model = ErrorModel::kBerUniform;
  spec.ber = 0.0;  // "no errors" is not a campaign
  EXPECT_THROW(inj.arm(spec), std::invalid_argument);
  spec.ber = 1.5;
  EXPECT_THROW(inj.arm(spec), std::invalid_argument);
}

TEST(InjectorZoo, RegionThinningRefusesANanRate) {
  // NaN fails every comparison, so a range test written as
  // `ber < 0 || ber > 1` would let it through as "no thinning".
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 1);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  for (const ErrorModel model : {ErrorModel::kChannel, ErrorModel::kRowBurst}) {
    spec.model = model;
    spec.ber = std::nan("");
    EXPECT_THROW(inj.arm(spec), std::invalid_argument) << to_string(model);
  }
}

TEST(InjectorZoo, BerUniformDeterministicAndCountsAffected) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  auto run = [&](uint64_t seed) {
    Emulator emu(*f.model, cfg);
    Injector inj(emu, seed);
    InjectionSpec spec;
    spec.layer_path = emu.sites()[0].path;
    spec.model = ErrorModel::kBerUniform;
    spec.ber = 0.02;
    inj.arm(spec);
    (void)(*f.model)(f.batch.images);
    return *inj.last_record();
  };
  const auto a = run(7);
  const auto b = run(7);
  EXPECT_EQ(a.error_model, "ber_uniform");
  // A 2% per-bit rate over a whole activation tensor essentially always
  // lands at least one flip; determinism is the property under test.
  EXPECT_GT(a.affected, 0);
  EXPECT_EQ(a.affected, b.affected);
  EXPECT_EQ(a.element, b.element);
  EXPECT_EQ(a.bits, b.bits);
}

TEST(InjectorZoo, BurstFlipsAContiguousRun) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 3);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.model = ErrorModel::kBurst;
  spec.element = 2;
  spec.bit = 4;
  spec.burst_len = 3;
  inj.arm(spec);
  (void)(*f.model)(f.batch.images);
  const auto& rec = *inj.last_record();
  EXPECT_EQ(rec.error_model, "burst");
  EXPECT_EQ(rec.affected, 1);
  EXPECT_EQ(rec.bits, (std::vector<int>{4, 5, 6}));
}

TEST(InjectorZoo, BurstLengthValidatedAgainstFormatWidth) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";  // 16-bit word
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 3);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.model = ErrorModel::kBurst;
  spec.burst_len = 17;
  EXPECT_THROW(inj.arm(spec), std::invalid_argument);
  spec.burst_len = 3;
  spec.bit = 14;  // 14 + 3 > 16: run falls off the word
  EXPECT_THROW(inj.arm(spec), std::invalid_argument);
}

TEST(InjectorZoo, ChannelHitsEveryElementOfTheRegion) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  // Probe the site's (N, C, H, W) conv output: a channel is one feature map
  // across the batch, N*H*W elements.
  Tensor probe;
  auto h = emu.sites()[0].module->add_forward_hook(
      [&probe](nn::Module&, Tensor& y) { probe = y; });
  (void)(*f.model)(f.batch.images);
  emu.sites()[0].module->remove_hook(h);
  ASSERT_EQ(probe.dim(), 4);
  const int64_t expected = probe.size(0) * probe.size(2) * probe.size(3);

  Injector inj(emu, 5);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  spec.model = ErrorModel::kChannel;
  spec.element = 0;  // explicit channel index
  inj.arm(spec);
  (void)(*f.model)(f.batch.images);
  const auto& rec = *inj.last_record();
  EXPECT_EQ(rec.error_model, "channel");
  EXPECT_EQ(rec.affected, expected);
  EXPECT_FALSE(rec.bits.empty());
}

TEST(InjectorZoo, RowBurstDeterministicUnderSeed) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  auto run = [&](uint64_t seed) {
    Emulator emu(*f.model, cfg);
    Injector inj(emu, seed);
    InjectionSpec spec;
    spec.layer_path = emu.sites()[1].path;
    spec.model = ErrorModel::kRowBurst;
    spec.ber = 0.5;  // thinning draws are part of the reproduced stream
    inj.arm(spec);
    (void)(*f.model)(f.batch.images);
    return *inj.last_record();
  };
  const auto a = run(11);
  const auto b = run(11);
  EXPECT_EQ(a.error_model, "row_burst");
  EXPECT_EQ(a.element, b.element);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.affected, b.affected);
}

// --- the row/channel region map -------------------------------------------

InjectionSpec region_spec(ErrorModel model) {
  InjectionSpec spec;
  spec.model = model;
  return spec;
}

TEST(InjectionRegion, EachRankMapsToItsLayerLayout) {
  constexpr ErrorModel kCh = ErrorModel::kChannel, kRow = ErrorModel::kRowBurst;
  struct Case {
    ErrorModel model;
    Shape shape;
    int64_t count;              ///< regions of a tensor of `shape`
    int64_t r;                  ///< the region checked
    std::vector<int64_t> want;  ///< its storage indices, in walk order
  };
  const Case cases[] = {
      // (N,C,H,W): feature map 1 across the batch, one H*W run per sample.
      {kCh, {2, 3, 2, 2}, 3, 1, {4, 5, 6, 7, 16, 17, 18, 19}},
      // (B,T,D): lane 4 of every token.
      {kCh, {2, 3, 5}, 5, 4, {4, 9, 14, 19, 24, 29}},
      // (B,F): feature column 2.
      {kCh, {4, 3}, 3, 2, {2, 5, 8, 11}},
      // Rows are last-dimension runs at every rank >= 2.
      {kRow, {2, 3, 2, 2}, 12, 5, {10, 11}},
      {kRow, {2, 3, 5}, 6, 3, {15, 16, 17, 18, 19}},
      {kRow, {4, 3}, 4, 3, {9, 10, 11}},
      // Rank <= 1: one region, the whole tensor.
      {kCh, {3}, 1, 0, {0, 1, 2}},
      {kRow, {3}, 1, 0, {0, 1, 2}},
      {kCh, {}, 1, 0, {0}},
      {kRow, {}, 1, 0, {0}},
  };
  const auto fp = fmt::make_format("fp_e5m10");
  for (const Case& c : cases) {
    const Tensor y(c.shape);
    const InjectionSpec spec = region_spec(c.model);
    EXPECT_EQ(target_count(spec, y, *fp), c.count) << to_string(c.model);
    const Region region = region_of(spec, y, c.r);
    std::vector<int64_t> got;
    for (int64_t i = 0; i < region.size; ++i) got.push_back(region.at(i));
    EXPECT_EQ(got, c.want) << to_string(c.model) << " rank "
                           << c.shape.size();
  }
}

TEST(InjectionRegion, OutOfRangeIndexThrowsFromDrawTarget) {
  const Tensor t({2, 3, 4, 5});
  const auto fp = fmt::make_format("fp_e5m10");
  Rng rng(1);
  InjectionSpec channel = region_spec(ErrorModel::kChannel);
  channel.element = 2;
  EXPECT_EQ(draw_target(channel, t, *fp, rng), 2);
  channel.element = 3;
  EXPECT_THROW(draw_target(channel, t, *fp, rng), std::invalid_argument);
  InjectionSpec row = region_spec(ErrorModel::kRowBurst);
  row.element = 23;
  EXPECT_EQ(draw_target(row, t, *fp, rng), 23);
  row.element = 24;
  EXPECT_THROW(draw_target(row, t, *fp, rng), std::invalid_argument);
}

TEST(InjectionRegion, MetadataTargetsAreRegisters) {
  // At the metadata site the target is a register: one per block of 16
  // elements under bfp_e5m5_b16 (the last block partial), one per tensor
  // under int8. An explicit metadata_index is range-checked like an
  // element.
  const Tensor t({2, 3, 3, 3});
  Rng rng(2);
  InjectionSpec spec;
  spec.site = InjectionSite::kMetadata;
  const auto bfp = fmt::make_format("bfp_e5m5_b16");
  const auto int8 = fmt::make_format("int8");
  EXPECT_EQ(target_count(spec, t, *bfp), 4);
  EXPECT_EQ(target_count(spec, t, *int8), 1);
  spec.metadata_index = 3;
  spec.element = 40;  // ignored at the metadata site
  EXPECT_EQ(draw_target(spec, t, *bfp, rng), 3);
  spec.metadata_index = 4;
  EXPECT_THROW(draw_target(spec, t, *bfp, rng), std::invalid_argument);
  spec.metadata_index = -1;
  for (int i = 0; i < 8; ++i) {
    const int64_t r = draw_target(spec, t, *bfp, rng);
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 4);
  }
}

// --- the Bernoulli-hit sampler (ber_uniform and region thinning) ----------
//
// An instrumented Identity over an all-zero input: every element quantises
// to code 0, so the code of each output element *is* its flip pattern. The
// fxp formats are two's-complement bijections (every code decodes and
// re-encodes to itself); fp_e5m10 is too, except NaN payloads, which need
// five exponent flips plus a mantissa flip and so stay out of reach at the
// rates used with it. Seeds are fixed, so every verdict is deterministic.

struct ZeroSite {
  nn::Sequential model;
  Tensor x;
  std::unique_ptr<Emulator> emu;
  std::unique_ptr<Injector> inj;

  ZeroSite(const std::string& spec, Shape shape) : x(std::move(shape)) {
    model.emplace<nn::Identity>();
    model.eval();
    EmulatorConfig cfg;
    cfg.format_spec = spec;
    cfg.layer_kinds = {"Identity"};
    emu = std::make_unique<Emulator>(model, cfg);
    inj = std::make_unique<Injector>(*emu, 0);
  }

  int width() const { return emu->sites()[0].act_format->bit_width(); }

  /// Arm `spec` on the site with trial stream `trial`, run one forward and
  /// return each element's flip pattern (its output code).
  std::vector<uint64_t> fire(InjectionSpec spec, uint64_t trial) {
    spec.layer_path = emu->sites()[0].path;
    inj->arm(spec, Rng(2024).child(trial));
    const Tensor y = model(x);
    EXPECT_TRUE(inj->fired());
    fmt::NumberFormat& f = *emu->sites()[0].act_format;
    std::vector<uint64_t> codes(static_cast<size_t>(y.numel()));
    for (int64_t i = 0; i < y.numel(); ++i) {
      codes[static_cast<size_t>(i)] = f.real_to_format_at(y[i], i).value();
    }
    return codes;
  }

  const InjectionRecord& record() const { return *inj->last_record(); }
};

InjectionSpec ber_spec(double ber) {
  InjectionSpec spec;
  spec.model = ErrorModel::kBerUniform;
  spec.ber = ber;
  return spec;
}

/// |observed - n*p| within `k` standard deviations of Binomial(n, p).
::testing::AssertionResult within_binomial(int64_t observed, double n,
                                           double p, double k = 5.0) {
  const double mean = n * p;
  const double sd = std::sqrt(n * p * (1.0 - p));
  if (std::abs(static_cast<double>(observed) - mean) <= k * sd) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << observed << " is outside " << mean << " +- " << k << " * " << sd;
}

TEST(BernoulliSampler, FlipCountMatchesTheBinomial) {
  constexpr int64_t kNumel = 4096;
  constexpr int kTrials = 40;
  for (double ber : {1e-3, 0.02, 0.3}) {
    ZeroSite z("fxp_1_3_12", {1, kNumel});
    int64_t flips = 0;
    for (int t = 0; t < kTrials; ++t) {
      for (uint64_t code : z.fire(ber_spec(ber), t)) {
        flips += __builtin_popcountll(code);
      }
    }
    const double slots = double(kNumel) * z.width() * kTrials;
    EXPECT_TRUE(within_binomial(flips, slots, ber)) << "ber=" << ber;
  }
}

TEST(BernoulliSampler, BitPositionsAreUniform) {
  // Chi-square of per-position flip counts against uniform; the bounds are
  // the 0.999 quantiles for 15 and 7 degrees of freedom.
  const std::pair<const char*, double> cases[] = {{"fp_e5m10", 37.70},
                                                  {"fxp_1_3_4", 24.32}};
  for (const auto& [spec, bound] : cases) {
    ZeroSite z(spec, {1, 4096});
    const int w = z.width();
    std::vector<int64_t> per_bit(static_cast<size_t>(w), 0);
    int64_t total = 0;
    for (int t = 0; t < 30; ++t) {
      for (uint64_t code : z.fire(ber_spec(0.02), t)) {
        for (int b = 0; b < w; ++b) {
          if ((code >> b) & 1u) {
            ++per_bit[static_cast<size_t>(b)];
            ++total;
          }
        }
      }
    }
    const double expected = double(total) / w;
    double chi2 = 0.0;
    for (int64_t c : per_bit) {
      chi2 += (double(c) - expected) * (double(c) - expected) / expected;
    }
    EXPECT_GT(total, 0) << spec;
    EXPECT_LT(chi2, bound) << spec << " width " << w;
  }
}

TEST(BernoulliSampler, MultiHitElementsMatchTheBinomialTail) {
  // Hits are i.i.d. per slot, so an element is hit twice or more with
  // probability 1 - (1-p)^w - w p (1-p)^(w-1); `affected` counts the
  // elements hit at least once, and the record lists the first hit
  // element's bits in ascending order.
  constexpr int64_t kNumel = 4096;
  constexpr int kTrials = 40;
  const double p = 0.05;
  ZeroSite z("fxp_1_3_12", {1, kNumel});
  const int w = z.width();
  int64_t multi = 0;
  for (int t = 0; t < kTrials; ++t) {
    const std::vector<uint64_t> codes = z.fire(ber_spec(p), t);
    int64_t hit = 0;
    int64_t first = -1;
    for (size_t i = 0; i < codes.size(); ++i) {
      const int n = __builtin_popcountll(codes[i]);
      if (n == 0) continue;
      if (first < 0) first = static_cast<int64_t>(i);
      ++hit;
      if (n >= 2) ++multi;
    }
    const InjectionRecord& rec = z.record();
    EXPECT_EQ(rec.affected, hit);
    ASSERT_GE(first, 0);
    EXPECT_EQ(rec.element, first);
    uint64_t pattern = 0;
    for (size_t k = 0; k < rec.bits.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(rec.bits[k - 1], rec.bits[k]);
      }
      pattern |= uint64_t{1} << rec.bits[k];
    }
    EXPECT_EQ(pattern, codes[static_cast<size_t>(first)]);
  }
  const double q2 = 1.0 - std::pow(1.0 - p, w) -
                    w * p * std::pow(1.0 - p, w - 1);
  EXPECT_TRUE(within_binomial(multi, double(kNumel) * kTrials, q2));
}

TEST(BernoulliSampler, RateOneFlipsEveryBitOfEveryElement) {
  ZeroSite z("fxp_1_3_12", {2, 300});
  const uint64_t all = (uint64_t{1} << z.width()) - 1;
  for (uint64_t code : z.fire(ber_spec(1.0), 0)) EXPECT_EQ(code, all);
  const InjectionRecord& rec = z.record();
  EXPECT_EQ(rec.affected, 600);
  EXPECT_EQ(rec.element, 0);
  EXPECT_EQ(rec.bits.size(), static_cast<size_t>(z.width()));
}

TEST(BernoulliSampler, VanishingRatesPerturbNothing) {
  // The gap to the first hit is astronomically past the end (up to +inf
  // for the smallest double); it must end the sweep, never reach an
  // out-of-range float-to-int conversion.
  for (double ber : {1e-300, std::numeric_limits<double>::denorm_min()}) {
    ZeroSite z("fp_e5m10", {1, 4096});
    for (int t = 0; t < 20; ++t) {
      for (uint64_t code : z.fire(ber_spec(ber), t)) EXPECT_EQ(code, 0u);
      EXPECT_EQ(z.record().affected, 0) << "ber=" << ber;
      EXPECT_EQ(z.record().element, -1);
    }
  }
}

TEST(BernoulliSampler, ChannelThinningHitsTheRateWithinItsChannel) {
  // NCHW: channel 1 of a (2, 3, 16, 16) tensor holds 512 elements.
  constexpr int64_t kC = 3, kHW = 256, kRegion = 2 * kHW;
  InjectionSpec spec;
  spec.model = ErrorModel::kChannel;
  spec.element = 1;
  auto hits_in_channel = [&](ZeroSite& z, uint64_t trial) {
    const std::vector<uint64_t> codes = z.fire(spec, trial);
    int64_t hit = 0;
    for (size_t i = 0; i < codes.size(); ++i) {
      if (codes[i] == 0) continue;
      EXPECT_EQ((static_cast<int64_t>(i) / kHW) % kC, 1) << "element " << i;
      ++hit;
    }
    EXPECT_EQ(z.record().affected, hit);
    return hit;
  };
  ZeroSite z("fxp_1_3_12", {2, kC, 16, 16});
  for (double ber : {0.0, 1.0}) {
    spec.ber = ber;
    for (int t = 0; t < 3; ++t) {
      EXPECT_EQ(hits_in_channel(z, t), kRegion) << "ber=" << ber;
    }
  }
  spec.ber = 0.5;
  constexpr int kTrials = 40;
  int64_t hits = 0;
  for (int t = 0; t < kTrials; ++t) hits += hits_in_channel(z, t);
  EXPECT_TRUE(within_binomial(hits, double(kRegion) * kTrials, 0.5));
}

TEST(InjectorZoo, ClassicRecordCarriesErrorModelAndAffected) {
  Fixture f;
  EmulatorConfig cfg;
  cfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, cfg);
  Injector inj(emu, 1);
  InjectionSpec spec;
  spec.layer_path = emu.sites()[0].path;
  inj.arm(spec);
  (void)(*f.model)(f.batch.images);
  const auto& rec = *inj.last_record();
  EXPECT_EQ(rec.error_model, "bit_flip");
  EXPECT_EQ(rec.affected, 1);
}

}  // namespace
}  // namespace ge::core
