// Golden-prefix cache (DESIGN.md §10): ReplayPlan record/translate and
// Module::forward_from suffix replay. The acceptance bar everywhere is
// bitwise equality with a full forward — the cache is a speed knob, never
// a numerics knob. Campaign-level digest pinning lives in
// test_determinism.cpp; this file covers the replay engine's edges: first
// and last sites, residual (DAG) models, armed faults of all three kinds,
// COW protection of the cached golden tensors, and the unusable-plan
// fallback for module reuse.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/campaign.hpp"
#include "core/emulator.hpp"
#include "core/injector.hpp"
#include "data/synthetic.hpp"
#include "models/model_factory.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "nn/sequential.hpp"
#include "obs/telemetry.hpp"

namespace ge::core {
namespace {

// Faulty outputs can legitimately carry NaN (an exponent-field flip), and
// float == says NaN != NaN even for identical bits — compare the raw bit
// patterns, which is the actual proof obligation.
bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  const auto fa = a.cflat();
  const auto fb = b.cflat();
  return std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(float)) == 0;
}

data::SyntheticVisionConfig small_cfg() {
  data::SyntheticVisionConfig cfg;
  cfg.train_count = 16;
  cfg.test_count = 32;
  return cfg;
}

struct Fixture {
  data::SyntheticVision data;
  std::unique_ptr<nn::Module> model;
  data::Batch batch;

  explicit Fixture(const std::string& name = "simple_cnn")
      : data(small_cfg()),
        model(models::make_model(name, data.config(), 3)),
        batch(data::take(data.test(), 0, 4)) {
    model->eval();
  }
};

// --- ReplayPlan basics -----------------------------------------------------

TEST(ReplayPlan, RecordsEveryModuleOnce) {
  Fixture f;
  nn::ReplayPlan plan;
  const Tensor recorded = f.model->record_forward(plan, f.batch.images);
  const Tensor plain = (*f.model)(f.batch.images);
  EXPECT_TRUE(recorded.equals(plain));  // recording never changes numerics
  EXPECT_TRUE(plan.recorded());
  EXPECT_TRUE(plan.usable());
  EXPECT_EQ(plan.modules_recorded(), f.model->named_modules().size());
  EXPECT_GT(plan.cache_bytes(), 0);
  plan.clear();
  EXPECT_FALSE(plan.recorded());
}

TEST(ReplayPlan, UnusableWhenAModuleRunsTwice) {
  // Weight sharing: a root that invokes the same child twice makes the
  // nesting intervals ambiguous, so the whole plan must refuse replay.
  struct Twice : nn::Module {
    nn::Linear lin;
    explicit Twice(Rng rng) : Module("Twice"), lin(4, 4, rng) {
      register_child("lin", lin);
    }
    Tensor forward(const Tensor& x) override { return lin(lin(x)); }
  };
  Rng rng(5);
  Twice model(rng);
  nn::ReplayPlan plan;
  (void)model.record_forward(plan, Tensor({2, 4}));
  EXPECT_TRUE(plan.recorded());
  EXPECT_FALSE(plan.usable());
  EXPECT_THROW((void)model.forward_from(plan, model.lin, Tensor({2, 4})),
               std::invalid_argument);
}

TEST(ReplayPlan, ForwardFromRejectsUnrecordedSiteAndNesting) {
  Fixture f;
  nn::ReplayPlan plan;
  (void)f.model->record_forward(plan, f.batch.images);
  Rng rng(6);
  nn::Linear stranger(4, 4, rng);
  EXPECT_THROW((void)f.model->forward_from(plan, stranger, f.batch.images),
               std::invalid_argument);
  nn::ReplayPlan empty;
  EXPECT_THROW(
      (void)f.model->forward_from(empty, *f.model, f.batch.images),
      std::invalid_argument);
}

TEST(ReplayPlan, TranslateRequiresIdenticalTrees) {
  Fixture f;
  nn::ReplayPlan plan;
  (void)f.model->record_forward(plan, f.batch.images);
  auto twin = models::make_model("simple_cnn", small_cfg(), 0);
  const nn::ReplayPlan tplan = plan.translate(*f.model, *twin);
  EXPECT_EQ(tplan.modules_recorded(), plan.modules_recorded());
  EXPECT_TRUE(tplan.usable());
  auto other = models::make_model("mlp", small_cfg(), 0);
  EXPECT_THROW((void)plan.translate(*f.model, *other),
               std::invalid_argument);
}

// --- suffix replay under faults --------------------------------------------
//
// The core equivalence: with a fault armed at site S, forward_from(S) must
// be bitwise identical to a full forward with the same fault — for every
// instrumented site of the model, including the first (nothing cached
// before it) and the last (everything before it served from the cache).

void expect_replay_matches_full(const std::string& model_name,
                                InjectionSite inj_site,
                                const std::string& format_spec) {
  Fixture f(model_name);
  EmulatorConfig ecfg;
  ecfg.format_spec = format_spec;
  Emulator emu(*f.model, ecfg);
  Injector inj(emu, /*seed=*/99);
  ASSERT_GT(emu.sites().size(), 1u);

  nn::ReplayPlan plan;
  (void)f.model->record_forward(plan, f.batch.images);
  ASSERT_TRUE(plan.usable());

  const Rng base(41);
  for (size_t li = 0; li < emu.sites().size(); ++li) {
    const LayerSite& site = emu.sites()[li];
    if (inj_site == InjectionSite::kMetadata &&
        !site.act_format->has_metadata()) {
      continue;
    }
    InjectionSpec spec;
    spec.layer_path = site.path;
    spec.site = inj_site;

    inj.arm(spec, base.child(li));
    const Tensor full = (*f.model)(f.batch.images);
    inj.disarm();

    inj.arm(spec, base.child(li));
    int64_t served = -1;
    const Tensor replay =
        f.model->forward_from(plan, *site.module, f.batch.images, &served);
    inj.disarm();

    EXPECT_TRUE(bitwise_equal(full, replay))
        << model_name << " site " << li << " (" << site.path << ")";
    EXPECT_GE(served, 0) << site.path;
    if (li > 0) {
      // any site after the first has at least its predecessors cached
      EXPECT_GT(served, 0) << site.path;
    }
  }
}

TEST(SuffixReplay, ActivationFaultsBitwiseEqualSimpleCnn) {
  expect_replay_matches_full("simple_cnn", InjectionSite::kActivationValue,
                             "fp_e5m10");
}

TEST(SuffixReplay, ActivationFaultsBitwiseEqualResidualModel) {
  // tiny_resnet's skip connections are the DAG case: ancestors of the
  // fault site must re-run their residual adds while completed branches
  // are served from the cache.
  expect_replay_matches_full("tiny_resnet", InjectionSite::kActivationValue,
                             "fp_e5m10");
}

TEST(SuffixReplay, MetadataFaultsBitwiseEqual) {
  expect_replay_matches_full("simple_cnn", InjectionSite::kMetadata,
                             "bfp_e5m5_b16");
}

TEST(SuffixReplay, WeightFaultsBitwiseEqual) {
  expect_replay_matches_full("simple_cnn", InjectionSite::kWeightValue,
                             "int8");
}

TEST(SuffixReplay, LastSiteReplaysFullPrefix) {
  Fixture f;
  EmulatorConfig ecfg;
  ecfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, ecfg);
  nn::ReplayPlan plan;
  (void)f.model->record_forward(plan, f.batch.images);
  const LayerSite& last = emu.sites().back();
  int64_t served = 0;
  const Tensor replay =
      f.model->forward_from(plan, *last.module, f.batch.images, &served);
  const Tensor full = (*f.model)(f.batch.images);
  EXPECT_TRUE(full.equals(replay));
  // Every module that completed before the last site entered is served.
  size_t expected = 0;
  for (const auto& [path, mod] : f.model->named_modules()) {
    if (plan.skipped_for(*last.module, *mod)) ++expected;
  }
  EXPECT_EQ(static_cast<size_t>(served), expected);
  EXPECT_GT(served, 0);
}

TEST(SuffixReplay, CachedGoldenTensorsSurviveCorruptingTrials) {
  // COW protection: a weight-corrupting trial detaches a private copy and
  // disarm() re-shares the frozen snapshot, so after any number of trials
  // a replay still reproduces the recorded golden output bitwise.
  Fixture f;
  EmulatorConfig ecfg;
  ecfg.format_spec = "int8";
  Emulator emu(*f.model, ecfg);
  Injector inj(emu, 7);
  nn::ReplayPlan plan;
  const Tensor golden = f.model->record_forward(plan, f.batch.images);

  const Rng base(13);
  for (int t = 0; t < 4; ++t) {
    InjectionSpec spec;
    spec.layer_path = emu.sites().front().path;
    spec.site = InjectionSite::kWeightValue;
    inj.arm(spec, base.child(static_cast<uint64_t>(t)));
    (void)f.model->forward_from(plan, *emu.sites().front().module,
                                f.batch.images);
    inj.disarm();
  }
  // replay from the last site after all that corruption: the prefix comes
  // from the cache and must still be the golden bits
  const Tensor again = f.model->forward_from(
      plan, *emu.sites().back().module, f.batch.images);
  EXPECT_TRUE(again.equals(golden));
  const Tensor full = (*f.model)(f.batch.images);
  EXPECT_TRUE(full.equals(golden));
}

TEST(SuffixReplay, SlicedReplayGivesItsSampleRowsOfTheBatch) {
  // With no fault armed, replaying sample n alone must reproduce sample
  // n's rows of the recorded batch's logits bit for bit.
  Fixture f("tiny_resnet");
  EmulatorConfig ecfg;
  ecfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, ecfg);
  nn::ReplayPlan plan;
  const Tensor golden = f.model->record_forward(plan, f.batch.images);
  const int64_t batch = f.batch.images.size(0);
  const nn::Module& site = *emu.sites()[emu.sites().size() / 2].module;
  for (int64_t n = 0; n < batch; ++n) {
    int64_t served = 0;
    const Tensor row = f.model->forward_from(plan, site, f.batch.images,
                                             &served, {n, batch});
    EXPECT_TRUE(bitwise_equal(row, nn::sample_rows(golden, n, batch))) << n;
    EXPECT_GT(served, 0);
  }
  EXPECT_THROW((void)f.model->forward_from(plan, site, f.batch.images,
                                           nullptr, {batch, batch}),
               std::invalid_argument);
  EXPECT_THROW((void)nn::sample_rows(golden, 0, 3), std::invalid_argument);
}

TEST(SuffixReplay, WidenedReplayReturnsTheFullBatchOfTheUnslicedReplay) {
  // A fault in sample n, replayed at batch 1 and widened back to the batch
  // at the head (the one bfp_e5m5_b16 site whose blocks straddle samples),
  // gives the full-batch logits of the unsliced replay bit for bit.
  Fixture f("tiny_resnet");
  EmulatorConfig ecfg;
  ecfg.format_spec = "bfp_e5m5_b16";
  Emulator emu(*f.model, ecfg);
  Injector inj(emu, 5);
  nn::ReplayPlan plan;
  const Tensor golden = f.model->record_forward(plan, f.batch.images);
  const int64_t batch = f.batch.images.size(0);
  const nn::Module& head = *f.model->find_module("head");
  const Tensor head_input = f.model->replay_input(plan, head, f.batch.images);
  EXPECT_TRUE(bitwise_equal(head_input,
                            *plan.recorded_output(*f.model->find_module(
                                "pool"))));
  int changed = 0;

  for (const InjectionSite where :
       {InjectionSite::kActivationValue, InjectionSite::kMetadata}) {
    for (size_t li : {size_t{0}, emu.sites().size() / 2}) {
      const LayerSite& site = emu.sites()[li];
      const Tensor& y = *plan.recorded_output(*site.module);
      InjectionSpec spec;
      spec.layer_path = site.path;
      spec.site = where;
      spec.bit = 3;
      const int64_t per_sample = target_count(spec, y, *site.act_format) /
                                 batch;
      for (const int64_t n : {int64_t{0}, batch - 1}) {
        const int64_t target = n * per_sample + per_sample / 2;
        (where == InjectionSite::kMetadata ? spec.metadata_index
                                           : spec.element) = target;
        inj.arm(spec);
        const Tensor full =
            f.model->forward_from(plan, *site.module, f.batch.images);
        inj.disarm();

        (where == InjectionSite::kMetadata ? spec.metadata_index
                                           : spec.element) =
            target % per_sample;
        inj.arm(spec);
        int64_t served = -1;
        const Tensor widened = f.model->forward_from(
            plan, *site.module, f.batch.images, &served,
            {n, batch, &head, head_input});
        inj.disarm();
        EXPECT_TRUE(bitwise_equal(widened, full))
            << to_string(where) << " at " << site.path << " sample " << n;
        EXPECT_GE(served, 0);
        changed += !bitwise_equal(widened, golden);
      }
    }
  }
  EXPECT_GT(changed, 0);  // some of these faults reach the logits
}

TEST(SuffixReplay, WidenPointMustFollowTheSiteAndFitItsGlue) {
  Fixture f("tiny_resnet");
  EmulatorConfig ecfg;
  ecfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, ecfg);
  nn::ReplayPlan plan;
  const Tensor golden = f.model->record_forward(plan, f.batch.images);
  const int64_t batch = f.batch.images.size(0);
  const nn::Module& stem = *f.model->find_module("stem_conv");
  const nn::Module& head = *f.model->find_module("head");
  const Tensor head_input = f.model->replay_input(plan, head, f.batch.images);
  // Unarmed, a widened replay of any sample is the recorded batch.
  EXPECT_TRUE(bitwise_equal(
      f.model->forward_from(plan, stem, f.batch.images, nullptr,
                            {1, batch, &head, head_input}),
      golden));
  // The widen point must enter after the site completes.
  EXPECT_THROW((void)f.model->forward_from(plan, head, f.batch.images,
                                           nullptr,
                                           {1, batch, &stem, head_input}),
               std::invalid_argument);
  // Widening at a block's first conv leaves the block's skip path at
  // batch 1, and its residual add refuses the full-batch main path.
  const nn::Module& conv = *f.model->find_module("block4.conv1");
  const Tensor conv_input =
      f.model->replay_input(plan, conv, f.batch.images);
  EXPECT_TRUE(bitwise_equal(
      conv_input, *plan.recorded_output(*f.model->find_module("block3"))));
  EXPECT_THROW((void)f.model->forward_from(plan, stem, f.batch.images,
                                           nullptr,
                                           {1, batch, &conv, conv_input}),
               std::invalid_argument);
  const nn::Module& block = *f.model->find_module("block4");
  EXPECT_TRUE(bitwise_equal(
      f.model->forward_from(
          plan, stem, f.batch.images, nullptr,
          {1, batch, &block,
           f.model->replay_input(plan, block, f.batch.images)}),
      golden));
}

// --- campaign-level integration --------------------------------------------

TEST(PrefixCacheCampaign, CountersRecordReplays) {
  Fixture f;
  CampaignConfig cfg;
  cfg.format_spec = "fp_e5m10";
  cfg.injections_per_layer = 3;
  cfg.seed = 21;
  obs::TelemetryScope scope(/*tracing=*/false, /*metrics=*/true);
  obs::reset_all();
  const CampaignResult r = run_campaign(*f.model, f.batch, cfg);
  EXPECT_GT(r.layers.size(), 0u);
  const uint64_t trials = obs::counter_value(obs::Counter::kTrials);
  EXPECT_GT(trials, 0u);
  // every trial replayed, and all but the first layer's skipped something
  EXPECT_EQ(obs::counter_value(obs::Counter::kPrefixCacheHits), trials);
  EXPECT_GT(obs::counter_value(obs::Counter::kSuffixLayersSkipped), 0u);
  EXPECT_GT(obs::counter_value(obs::Counter::kPrefixCacheBytes), 0u);
  obs::reset_all();
}

TEST(PrefixCacheCampaign, CacheOffRunsFullForwards) {
  Fixture f;
  CampaignConfig cfg;
  cfg.format_spec = "fp_e5m10";
  cfg.injections_per_layer = 2;
  cfg.seed = 21;
  cfg.use_prefix_cache = false;
  obs::TelemetryScope scope(/*tracing=*/false, /*metrics=*/true);
  obs::reset_all();
  (void)run_campaign(*f.model, f.batch, cfg);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPrefixCacheHits), 0u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSuffixLayersSkipped), 0u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPrefixCacheBytes), 0u);
  obs::reset_all();
}

TEST(PrefixCacheCampaign, MultiSiteArmsCompanionFaults) {
  // k=3 trials carry the primary plus up to two companions at strictly
  // later sites; the injector reports every applied fault in records().
  Fixture f;
  EmulatorConfig ecfg;
  ecfg.format_spec = "fp_e5m10";
  Emulator emu(*f.model, ecfg);
  Injector inj(emu, 3);
  ASSERT_GE(emu.sites().size(), 3u);
  std::vector<InjectionSpec> specs;
  for (size_t li = 0; li < 3; ++li) {
    InjectionSpec s;
    s.layer_path = emu.sites()[li].path;
    specs.push_back(std::move(s));
  }
  inj.arm_multi(specs, Rng(17));
  (void)(*f.model)(f.batch.images);
  EXPECT_TRUE(inj.fired());
  ASSERT_EQ(inj.records().size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(inj.records()[i].layer_path, emu.sites()[i].path);
  }
  EXPECT_EQ(inj.last_record()->layer_path, emu.sites()[0].path);
  inj.disarm();
  EXPECT_FALSE(inj.fired());
  // duplicate layers are rejected up front
  specs[1] = specs[0];
  EXPECT_THROW(inj.arm_multi(specs, Rng(17)), std::invalid_argument);
}

TEST(PrefixCacheCampaign, SitesPerTrialRoundTripsThroughProgress) {
  Fixture f;
  CampaignConfig cfg;
  cfg.format_spec = "fp_e5m10";
  cfg.injections_per_layer = 2;
  cfg.sites_per_trial = 2;
  CampaignProgress prog =
      run_campaign_trials(*f.model, f.batch, cfg, {});
  EXPECT_EQ(prog.sites_per_trial, 2);
  // resume validation rejects a mismatching sites_per_trial
  CampaignConfig other = cfg;
  other.sites_per_trial = 3;
  CampaignRunOptions opts;
  opts.resume_from = &prog;
  EXPECT_THROW((void)run_campaign_trials(*f.model, f.batch, other, opts),
               std::exception);
}

}  // namespace
}  // namespace ge::core
