// Checkpointed / sharded campaigns (DESIGN.md §9): any partition of the
// trial index space — across checkpoint/resume boundaries, shards, or
// both — must reassemble into statistics bitwise identical to one
// uninterrupted run. These tests exercise the library surface;
// test_determinism.cpp pins the digests and test_cli.cpp drives the same
// machinery through the command line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "data/synthetic.hpp"
#include "io/campaign_state.hpp"
#include "models/model_factory.hpp"
#include "nn/activation.hpp"
#include "nn/linear.hpp"
#include "obs/run_log.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"

namespace ge::core {
namespace {

struct ThreadGuard {
  int saved = parallel::num_threads();
  ~ThreadGuard() { parallel::set_num_threads(saved); }
};

data::SyntheticVisionConfig small_cfg() {
  data::SyntheticVisionConfig cfg;
  cfg.train_count = 16;
  cfg.test_count = 64;
  return cfg;
}

struct Fixture {
  data::SyntheticVision data;
  std::unique_ptr<nn::Module> model;
  data::Batch batch;

  explicit Fixture(const std::string& name = "simple_cnn")
      : data(small_cfg()),
        model(models::make_model(name, data.config(), 3)),
        batch(data::take(data.test(), 0, 8)) {
    model->eval();
  }
};

CampaignConfig campaign_cfg() {
  CampaignConfig cfg;
  cfg.format_spec = "fp_e5m10";
  cfg.injections_per_layer = 6;
  cfg.seed = 77;
  cfg.make_replica = [] {
    return models::make_model("simple_cnn", small_cfg(), 0);
  };
  return cfg;
}

std::string tmp_path(const std::string& name) {
  return "/tmp/ge_test_campaign_io_" + name + ".gec";
}

// --- progress bookkeeping --------------------------------------------------

TEST(CampaignProgressTest, TrialCountsAndCompleteness) {
  CampaignProgress p;
  p.layers.resize(2);
  p.layers[0].done = {1, 0, 1};
  p.layers[0].outcomes.resize(3);
  p.layers[1].done = {0, 0, 0};
  p.layers[1].outcomes.resize(3);
  EXPECT_EQ(p.completed_trials(), 2);
  EXPECT_EQ(p.total_trials(), 6);
  EXPECT_FALSE(p.complete());
}

TEST(CampaignProgressTest, FinalizeRejectsIncompleteProgress) {
  CampaignProgress p;
  p.layers.resize(1);
  p.layers[0].done = {1, 0};
  p.layers[0].outcomes.resize(2);
  EXPECT_THROW(finalize_campaign(p), std::invalid_argument);
}

// --- serialization ---------------------------------------------------------

TEST(CampaignStateIo, ProgressFileRoundTripsBitwise) {
  ThreadGuard guard;
  parallel::set_num_threads(2);
  Fixture f;
  const std::string path = tmp_path("roundtrip");
  CampaignRunOptions opts;
  opts.shards = 2;
  opts.shard_index = 1;
  opts.model_name = "simple_cnn";
  opts.eval_samples = 8;
  const CampaignProgress prog =
      run_campaign_trials(*f.model, f.batch, campaign_cfg(), opts);
  io::save_campaign_progress(path, prog);
  const CampaignProgress back = io::load_campaign_progress(path);
  // Bitwise equality via the canonical byte encoding.
  EXPECT_EQ(io::encode_campaign_progress(back),
            io::encode_campaign_progress(prog));
  std::remove(path.c_str());
}

TEST(CampaignStateIo, CorruptProgressFileIsDiagnosed) {
  const std::string path = tmp_path("corrupt");
  CampaignProgress p;
  p.format_spec = "int8";
  p.layers.resize(1);
  p.layers[0].path = "l";
  p.layers[0].done = {1};
  p.layers[0].outcomes.resize(1);
  io::save_campaign_progress(path, p);
  // Flip a payload byte: the CRC must reject the file.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-3, std::ios::end);
  f.put('\xFF');
  f.close();
  EXPECT_THROW(io::load_campaign_progress(path), io::IoError);
  std::remove(path.c_str());
}

TEST(CampaignStateIo, ForwardCompatSkipsUnknownTrailingFields) {
  // Evolution rule (campaign_state.hpp): in container v2+ a writer may
  // append new fields after the known CAMP layout, and this build decodes
  // what it knows and skips the rest. The same bytes stamped v1 are
  // corruption — v1 decoding stays strict.
  const std::string path = tmp_path("futurefields");
  CampaignProgress p;
  p.format_spec = "int8";
  p.layers.resize(1);
  p.layers[0].path = "l";
  p.layers[0].done = {1};
  p.layers[0].outcomes.resize(1);
  std::vector<uint8_t> payload = io::encode_campaign_progress(p);
  payload.insert(payload.end(), {0xDE, 0xAD, 0xBE, 0xEF});  // a future field
  io::Container c;
  c.add("CAMP", payload);
  io::save_file(path, c);  // written at the current (v2) schema
  const CampaignProgress back = io::load_campaign_progress(path);
  EXPECT_EQ(io::encode_campaign_progress(back),
            io::encode_campaign_progress(p));

  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(4);  // version u32 lives right after the magic; not CRC'd
    f.put('\x01');
  }
  EXPECT_THROW(io::load_campaign_progress(path), io::IoError);
  std::remove(path.c_str());
}

// --- shard / resume / merge bitwise identity -------------------------------

TEST(CampaignShards, MergedShardsMatchSingleProcessBitwise) {
  ThreadGuard guard;
  const CampaignConfig cfg = campaign_cfg();
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    Fixture single;
    const CampaignResult want = run_campaign(*single.model, single.batch, cfg);

    std::vector<CampaignProgress> parts;
    for (int i = 0; i < 3; ++i) {
      Fixture f;  // fresh model per "process"
      CampaignRunOptions opts;
      opts.shards = 3;
      opts.shard_index = i;
      parts.push_back(run_campaign_trials(*f.model, f.batch, cfg, opts));
      EXPECT_FALSE(parts.back().complete());
    }
    const CampaignProgress merged = merge_campaign_progress(parts);
    EXPECT_TRUE(merged.complete());
    const CampaignResult got = finalize_campaign(merged);
    EXPECT_EQ(campaign_digest(got), campaign_digest(want))
        << "threads=" << threads;
  }
}

TEST(CampaignResume, InterruptedRunResumesBitwise) {
  ThreadGuard guard;
  const CampaignConfig cfg = campaign_cfg();
  const std::string path = tmp_path("resume");
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    Fixture single;
    const CampaignResult want = run_campaign(*single.model, single.batch, cfg);

    // First process: checkpoint every 2 trials, die mid-campaign.
    Fixture first;
    CampaignRunOptions opts;
    opts.checkpoint_every = 2;
    opts.checkpoint_path = path;
    opts.abort_after = 7;  // mid-layer, mid-block
    const CampaignProgress partial =
        run_campaign_trials(*first.model, first.batch, cfg, opts);
    EXPECT_FALSE(partial.complete());

    // Second process: load the file the first one left behind.
    Fixture second;
    const CampaignProgress saved = io::load_campaign_progress(path);
    EXPECT_EQ(saved.completed_trials(), partial.completed_trials());
    CampaignRunOptions ropts;
    ropts.checkpoint_every = 2;
    ropts.checkpoint_path = path;
    ropts.resume_from = &saved;
    const CampaignProgress full =
        run_campaign_trials(*second.model, second.batch, cfg, ropts);
    EXPECT_TRUE(full.complete());
    EXPECT_EQ(campaign_digest(finalize_campaign(full)), campaign_digest(want))
        << "threads=" << threads;
    std::remove(path.c_str());
  }
}

TEST(CampaignResume, ResumingACompleteRunIsANoOp) {
  ThreadGuard guard;
  parallel::set_num_threads(2);
  const CampaignConfig cfg = campaign_cfg();
  Fixture f;
  const CampaignProgress done =
      run_campaign_trials(*f.model, f.batch, cfg, {});
  CampaignRunOptions opts;
  opts.resume_from = &done;
  const CampaignProgress again =
      run_campaign_trials(*f.model, f.batch, cfg, opts);
  EXPECT_EQ(campaign_digest(finalize_campaign(again)),
            campaign_digest(finalize_campaign(done)));
}

TEST(CampaignResume, MismatchedCheckpointIsRejected) {
  ThreadGuard guard;
  parallel::set_num_threads(2);
  Fixture f;
  const CampaignProgress done =
      run_campaign_trials(*f.model, f.batch, campaign_cfg(), {});

  {
    CampaignConfig other = campaign_cfg();
    other.seed = 78;  // different trial streams
    CampaignRunOptions opts;
    opts.resume_from = &done;
    EXPECT_THROW(run_campaign_trials(*f.model, f.batch, other, opts),
                 io::IoError);
  }
  {
    CampaignConfig other = campaign_cfg();
    other.format_spec = "int8";
    CampaignRunOptions opts;
    opts.resume_from = &done;
    EXPECT_THROW(run_campaign_trials(*f.model, f.batch, other, opts),
                 io::IoError);
  }
  {
    // Same config, different model weights: the golden logit digest is the
    // tripwire (accuracy alone can tie on a small batch).
    auto other_model = models::make_model("simple_cnn", small_cfg(), 123);
    other_model->eval();
    CampaignRunOptions opts;
    opts.resume_from = &done;
    EXPECT_THROW(
        run_campaign_trials(*other_model, f.batch, campaign_cfg(), opts),
        io::IoError);
  }
}

TEST(CampaignMerge, RejectsDuplicateAndOverlappingShards) {
  ThreadGuard guard;
  parallel::set_num_threads(2);
  const CampaignConfig cfg = campaign_cfg();
  Fixture f;
  CampaignRunOptions opts;
  opts.shards = 2;
  opts.shard_index = 0;
  const CampaignProgress shard0 =
      run_campaign_trials(*f.model, f.batch, cfg, opts);

  // Same shard twice: duplicate index.
  EXPECT_THROW(merge_campaign_progress({shard0, shard0}), io::IoError);

  // Disguised duplicate: different claimed index, overlapping done set.
  CampaignProgress forged = shard0;
  forged.shard_index = 1;
  EXPECT_THROW(merge_campaign_progress({shard0, forged}), io::IoError);

  // Mismatched config echo.
  CampaignProgress other = shard0;
  other.shard_index = 1;
  other.seed = 99;
  EXPECT_THROW(merge_campaign_progress({shard0, other}), io::IoError);

  EXPECT_THROW(merge_campaign_progress({}), std::invalid_argument);
}

TEST(CampaignMerge, PartialMergeCanBeResumedToCompletion) {
  // Merge shard 0 of 2 only, then finish the remaining trials by resuming
  // the merged (re-labelled unsharded) progress — the escape hatch for a
  // shard that never came back.
  ThreadGuard guard;
  parallel::set_num_threads(2);
  const CampaignConfig cfg = campaign_cfg();
  Fixture single;
  const CampaignResult want = run_campaign(*single.model, single.batch, cfg);

  Fixture f;
  CampaignRunOptions opts;
  opts.shards = 2;
  opts.shard_index = 0;
  const CampaignProgress shard0 =
      run_campaign_trials(*f.model, f.batch, cfg, opts);
  const CampaignProgress merged = merge_campaign_progress({shard0});
  EXPECT_FALSE(merged.complete());
  EXPECT_EQ(merged.shards, 1);  // re-labelled: now owns every trial

  Fixture g;
  CampaignRunOptions ropts;
  ropts.resume_from = &merged;
  const CampaignProgress full =
      run_campaign_trials(*g.model, g.batch, cfg, ropts);
  EXPECT_TRUE(full.complete());
  EXPECT_EQ(campaign_digest(finalize_campaign(full)), campaign_digest(want));
}

// --- Bernoulli sampler generation guard -------------------------------------

/// `p` as a build without the BSG1 field (Bernoulli sampler generation)
/// wrote it: the CAMP bytes minus that trailing tag and u32, saved and
/// loaded back.
CampaignProgress without_sampler_field(const CampaignProgress& p,
                                       const std::string& name) {
  std::vector<uint8_t> payload = io::encode_campaign_progress(p);
  payload.resize(payload.size() - 8);
  io::Container c;
  c.add("CAMP", payload);
  const std::string path = tmp_path(name);
  io::save_file(path, c);
  CampaignProgress back = io::load_campaign_progress(path);
  std::remove(path.c_str());
  return back;
}

template <class F>
void expect_draw_order_refusal(F&& f) {
  try {
    f();
    ADD_FAILURE() << "expected io::IoError";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("different ber draw order"),
              std::string::npos)
        << e.what();
  }
}

TEST(CampaignSamplerGuard, BerProgressFromTheOldSamplerIsRefused) {
  ThreadGuard guard;
  parallel::set_num_threads(2);
  CampaignConfig cfg = campaign_cfg();
  cfg.model = ErrorModel::kBerUniform;
  cfg.ber = 5e-3;
  Fixture f;
  CampaignRunOptions opts;
  opts.shards = 2;
  opts.shard_index = 0;
  const CampaignProgress shard0 =
      run_campaign_trials(*f.model, f.batch, cfg, opts);
  opts.shard_index = 1;
  const CampaignProgress shard1 =
      run_campaign_trials(*f.model, f.batch, cfg, opts);
  EXPECT_EQ(shard0.ber_sampler, kBerSamplerGeneration);

  const CampaignProgress old1 = without_sampler_field(shard1, "old_ber");
  EXPECT_EQ(old1.ber_sampler, 1);
  expect_draw_order_refusal([&] {
    CampaignRunOptions ropts = opts;
    ropts.resume_from = &old1;
    (void)run_campaign_trials(*f.model, f.batch, cfg, ropts);
  });
  expect_draw_order_refusal(
      [&] { (void)merge_campaign_progress({shard0, old1}); });
  expect_draw_order_refusal(
      [&] { (void)merge_campaign_progress({old1, shard0}); });
  // A file this build writes carries the field and merges as usual.
  const std::string path = tmp_path("new_ber");
  io::save_campaign_progress(path, shard1);
  const CampaignProgress kept = io::load_campaign_progress(path);
  std::remove(path.c_str());
  EXPECT_EQ(kept.ber_sampler, kBerSamplerGeneration);
  EXPECT_TRUE(merge_campaign_progress({shard0, kept}).complete());
}

TEST(CampaignSamplerGuard, ClassicProgressInTheOldLayoutStillResumes) {
  ThreadGuard guard;
  parallel::set_num_threads(2);
  const CampaignConfig cfg = campaign_cfg();
  Fixture single;
  const uint64_t want =
      campaign_digest(run_campaign(*single.model, single.batch, cfg));

  const std::string path = tmp_path("old_flip");
  Fixture f;
  CampaignRunOptions opts;
  opts.checkpoint_path = path;
  opts.abort_after = 7;
  const CampaignProgress partial =
      run_campaign_trials(*f.model, f.batch, cfg, opts);
  std::remove(path.c_str());
  ASSERT_FALSE(partial.complete());
  const CampaignProgress old = without_sampler_field(partial, "old_flip");
  EXPECT_EQ(old.ber_sampler, 1);

  CampaignRunOptions ropts;
  ropts.resume_from = &old;
  const CampaignProgress full =
      run_campaign_trials(*f.model, f.batch, cfg, ropts);
  ASSERT_TRUE(full.complete());
  EXPECT_EQ(campaign_digest(finalize_campaign(full)), want);

  // An old-layout shard also merges with a current one.
  CampaignRunOptions sopts;
  sopts.shards = 2;
  sopts.shard_index = 0;
  const CampaignProgress s0 = without_sampler_field(
      run_campaign_trials(*f.model, f.batch, cfg, sopts), "old_flip_shard");
  sopts.shard_index = 1;
  const CampaignProgress s1 =
      run_campaign_trials(*f.model, f.batch, cfg, sopts);
  const CampaignProgress merged = merge_campaign_progress({s0, s1});
  EXPECT_EQ(campaign_digest(finalize_campaign(merged)), want);
}

// --- one session, many runs -------------------------------------------------

/// Campaign kinds a session must keep bitwise-stable across runs: a value
/// site, a metadata site, a weight site (each corrupted weight must be
/// back before the next run), multi-point trials, and the two models that
/// draw from the Bernoulli sampler: ber_uniform and a thinned channel.
std::vector<CampaignConfig> session_cfgs() {
  std::vector<CampaignConfig> cfgs(6, campaign_cfg());
  cfgs[1].format_spec = "bfp_e5m5_b16";
  cfgs[1].site = InjectionSite::kMetadata;
  cfgs[2].format_spec = "int8";
  cfgs[2].site = InjectionSite::kWeightValue;
  cfgs[3].sites_per_trial = 2;
  cfgs[4].model = ErrorModel::kBerUniform;
  cfgs[4].ber = 5e-3;
  cfgs[5].model = ErrorModel::kChannel;
  cfgs[5].ber = 0.5;
  return cfgs;
}

std::string label(const CampaignConfig& cfg) {
  return cfg.format_spec + " site=" + to_string(cfg.site) +
         " model=" + to_string(cfg.model) +
         " sites/trial=" + std::to_string(cfg.sites_per_trial) +
         " cache=" + (cfg.use_prefix_cache ? "on" : "off") +
         " threads=" + std::to_string(parallel::num_threads());
}

bool same_parameters(nn::Module& a, nn::Module& b) {
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (!pa[i]->value.equals(pb[i]->value)) return false;
  }
  return true;
}

TEST(CampaignSessionTest, DisjointLeaseRunsMergeToTheSingleRun) {
  ThreadGuard guard;
  const auto pristine = models::make_model("simple_cnn", small_cfg(), 3);
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (bool cache : {true, false}) {
      for (CampaignConfig cfg : session_cfgs()) {
        cfg.use_prefix_cache = cache;
        Fixture single;
        const uint64_t want =
            campaign_digest(run_campaign(*single.model, single.batch, cfg));

        Fixture f;
        std::vector<CampaignProgress> parts;
        {
          CampaignSession session(*f.model, f.batch, cfg);
          ASSERT_EQ(session.layer_count(),
                    count_campaign_layers(*single.model, cfg));
          const int64_t total =
              session.layer_count() * cfg.injections_per_layer;
          // Uneven cuts, one of them inside a layer.
          const std::vector<int64_t> cuts = {0, 1, total / 3, total / 2 + 1,
                                             total};
          for (size_t i = 0; i + 1 < cuts.size(); ++i) {
            CampaignRunOptions opts;
            opts.lease_lo = cuts[i];
            opts.lease_hi = cuts[i + 1];
            parts.push_back(session.run(opts));
            EXPECT_EQ(parts.back().completed_trials(), cuts[i + 1] - cuts[i]);
          }
        }
        const CampaignProgress merged = merge_campaign_progress(parts);
        ASSERT_TRUE(merged.complete()) << label(cfg);
        EXPECT_EQ(campaign_digest(finalize_campaign(merged)), want)
            << label(cfg);
        // The session restored the model it instrumented.
        EXPECT_TRUE(same_parameters(*f.model, *pristine)) << label(cfg);
      }
    }
  }
}

TEST(CampaignSessionTest, SameRangeTwiceIsBitwiseEqual) {
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (bool cache : {true, false}) {
      for (CampaignConfig cfg : session_cfgs()) {
        cfg.use_prefix_cache = cache;
        Fixture f;
        CampaignSession session(*f.model, f.batch, cfg);
        CampaignRunOptions opts;
        opts.lease_lo = 2;
        opts.lease_hi = session.layer_count() * cfg.injections_per_layer - 3;
        const CampaignProgress a = session.run(opts);
        const CampaignProgress b = session.run(opts);
        EXPECT_EQ(a.completed_trials(), opts.lease_hi - opts.lease_lo);
        EXPECT_EQ(io::encode_campaign_progress(a),
                  io::encode_campaign_progress(b))
            << label(cfg);
      }
    }
  }
}

TEST(CampaignSessionTest, AbortThenResumeOnOneSessionMatchesSingleRun) {
  ThreadGuard guard;
  const std::string path = tmp_path("session_resume");
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (bool cache : {true, false}) {
      for (CampaignConfig cfg : session_cfgs()) {
        cfg.use_prefix_cache = cache;
        Fixture single;
        const CampaignResult want =
            run_campaign(*single.model, single.batch, cfg);

        Fixture f;
        CampaignSession session(*f.model, f.batch, cfg);
        CampaignRunOptions opts;
        opts.checkpoint_every = 2;
        opts.checkpoint_path = path;
        opts.abort_after = 7;  // mid-layer, mid-block
        const CampaignProgress partial = session.run(opts);
        EXPECT_FALSE(partial.complete());
        CampaignRunOptions ropts;
        ropts.resume_from = &partial;
        const CampaignProgress full = session.run(ropts);
        EXPECT_TRUE(full.complete());
        EXPECT_EQ(campaign_digest(finalize_campaign(full)),
                  campaign_digest(want))
            << label(cfg);
        std::remove(path.c_str());
      }
    }
  }
}

TEST(CampaignSessionTest, BernoulliModelsGiveOneDigestAcrossThreadsAndCache) {
  // The geometric Bernoulli sampler draws only from each trial's own
  // stream, so neither the pool size nor suffix replay can move a result.
  ThreadGuard guard;
  for (const CampaignConfig& base : session_cfgs()) {
    if (!uses_ber_sampler(base.model, base.ber)) continue;
    std::vector<uint64_t> digests;
    for (int threads : {1, 4}) {
      parallel::set_num_threads(threads);
      for (bool cache : {true, false}) {
        CampaignConfig cfg = base;
        cfg.use_prefix_cache = cache;
        Fixture f;
        digests.push_back(
            campaign_digest(run_campaign(*f.model, f.batch, cfg)));
        EXPECT_EQ(digests.back(), digests.front()) << label(cfg);
      }
    }
  }
}

// --- sample-sliced replay (DESIGN.md §10) ----------------------------------

/// session_cfgs() plus flip, burst and thinned row faults under each
/// format family that quantises element by element and under
/// bfp_e5m5_b16, and the campaigns whose first site already couples the
/// samples (int8 value and metadata, afp value, whole-tensor bfp), each
/// with how many of simple_cnn's four sites replay one sample: the sites
/// that complete before the widen point. Under bfp_e5m5_b16 that is the
/// 10-class head, the one site whose per-sample output is not a whole
/// number of 16-element blocks.
std::vector<std::pair<CampaignConfig, int64_t>> slice_cases() {
  std::vector<std::pair<CampaignConfig, int64_t>> cases;
  for (const CampaignConfig& cfg : session_cfgs()) {
    // Weight, multi-site, ber and channel trials stay at full batch.
    const bool single = cfg.site != InjectionSite::kWeightValue &&
                        cfg.model == ErrorModel::kBitFlip &&
                        cfg.sites_per_trial == 1;
    cases.emplace_back(cfg, !single                              ? 0
                            : cfg.format_spec == "bfp_e5m5_b16" ? 3
                                                                 : 4);
  }
  for (const char* spec :
       {"fp_e5m10", "fxp_1_3_12", "posit_8_1", "bfp_e5m5_b16"}) {
    const int64_t sites = std::string(spec) == "bfp_e5m5_b16" ? 3 : 4;
    CampaignConfig flip = campaign_cfg();
    flip.format_spec = spec;
    // session_cfgs() already holds the fp_e5m10 flip.
    if (flip.format_spec != "fp_e5m10") cases.emplace_back(flip, sites);
    CampaignConfig burst = flip;
    burst.model = ErrorModel::kBurst;
    cases.emplace_back(burst, sites);
    CampaignConfig row = flip;
    row.model = ErrorModel::kRowBurst;
    row.ber = 0.5;
    cases.emplace_back(row, sites);
  }
  CampaignConfig int8 = campaign_cfg();
  int8.format_spec = "int8";
  cases.emplace_back(int8, 0);
  int8.site = InjectionSite::kMetadata;
  cases.emplace_back(int8, 0);
  CampaignConfig afp = campaign_cfg();
  afp.format_spec = "afp_e4m3";
  cases.emplace_back(afp, 0);
  CampaignConfig btensor = campaign_cfg();
  btensor.format_spec = "bfp_e5m5_btensor";
  cases.emplace_back(btensor, 0);
  return cases;
}

TEST(SlicedReplayTest, CacheOnMatchesCacheOffAndSlicesSingleSampleFaults) {
  ThreadGuard guard;
  obs::TelemetryScope scope(/*tracing=*/false, /*metrics=*/true);
  for (const auto& [base, sliced_sites] : slice_cases()) {
    for (int threads : {1, 4}) {
      parallel::set_num_threads(threads);
      CampaignConfig cfg = base;
      cfg.use_prefix_cache = false;
      Fixture off;
      const uint64_t want =
          campaign_digest(run_campaign(*off.model, off.batch, cfg));

      cfg.use_prefix_cache = true;
      Fixture on;
      obs::reset_all();
      EXPECT_EQ(campaign_digest(run_campaign(*on.model, on.batch, cfg)), want)
          << label(cfg);
      const uint64_t trials = obs::counter_value(obs::Counter::kTrials);
      ASSERT_EQ(trials, 4 * static_cast<uint64_t>(cfg.injections_per_layer))
          << label(cfg);
      EXPECT_EQ(obs::counter_value(obs::Counter::kSlicedReplays),
                static_cast<uint64_t>(sliced_sites * cfg.injections_per_layer))
          << label(cfg);
    }
  }
  obs::reset_all();
}

/// The "trial" rows of one campaign's report stream, sorted.
std::vector<std::string> trial_rows(const CampaignConfig& cfg,
                                    const std::string& model = "simple_cnn") {
  Fixture f(model);
  std::ostringstream os;
  {
    obs::RunLog log(os);
    CampaignRunOptions opts;
    opts.run_log = &log;
    (void)run_campaign_trials(*f.model, f.batch, cfg, opts);
  }
  std::vector<std::string> rows;
  std::istringstream is(os.str());
  for (std::string line; std::getline(is, line);) {
    if (line.find("\"type\":\"trial\"") != std::string::npos) {
      rows.push_back(line);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(SlicedReplayTest, ReportRowsMatchTheFullBatchReplay) {
  // Element, register, bits, affected count, values and outcome of every
  // trial row — the element and register as full-batch indices — are what
  // a full forward reports.
  std::vector<CampaignConfig> cfgs(3, campaign_cfg());
  cfgs[1].model = ErrorModel::kRowBurst;
  cfgs[1].ber = 0.5;
  cfgs[2].format_spec = "bfp_e5m5_b16";
  cfgs[2].site = InjectionSite::kMetadata;
  for (CampaignConfig cfg : cfgs) {
    const std::vector<std::string> on = trial_rows(cfg);
    cfg.use_prefix_cache = false;
    const std::vector<std::string> off = trial_rows(cfg);
    ASSERT_FALSE(on.empty());
    EXPECT_EQ(on, off) << label(cfg);
    if (cfg.site == InjectionSite::kMetadata) {
      EXPECT_NE(on.front().find("\"metadata_index\""), std::string::npos);
    }
  }
}

TEST(SlicedReplayTest, WidensAtTheBlockHoldingTheCouplingSite) {
  // tiny_resnet's stages output 2048, 1024 and 512 elements per sample,
  // so under bfp_e5m5_b1024 the first site whose registers straddle two
  // samples (W) is block4.conv1. Its block adds a projected skip path to
  // the main path, so widening at W itself would meet a batch-1 tensor
  // with a full-batch one; the replay widens at block4 instead, and the
  // ten sites before it (stem, blocks 0-3) slice.
  ThreadGuard guard;
  obs::TelemetryScope scope(/*tracing=*/false, /*metrics=*/true);
  CampaignConfig cfg = campaign_cfg();
  cfg.format_spec = "bfp_e5m5_b1024";
  cfg.site = InjectionSite::kMetadata;
  cfg.injections_per_layer = 3;
  cfg.make_replica = [] {
    return models::make_model("tiny_resnet", small_cfg(), 0);
  };
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    cfg.use_prefix_cache = false;
    Fixture off("tiny_resnet");
    const uint64_t want =
        campaign_digest(run_campaign(*off.model, off.batch, cfg));
    cfg.use_prefix_cache = true;
    Fixture on("tiny_resnet");
    obs::reset_all();
    EXPECT_EQ(campaign_digest(run_campaign(*on.model, on.batch, cfg)), want)
        << label(cfg);
    EXPECT_EQ(obs::counter_value(obs::Counter::kTrials), 16u * 3u);
    EXPECT_EQ(obs::counter_value(obs::Counter::kSlicedReplays), 10u * 3u)
        << label(cfg);
  }
  obs::reset_all();
  const std::vector<std::string> on = trial_rows(cfg, "tiny_resnet");
  cfg.use_prefix_cache = false;
  EXPECT_EQ(on, trial_rows(cfg, "tiny_resnet"));
}

/// The integer after `"key":` in a JSON row.
int64_t row_int(const std::string& row, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const size_t at = row.find(tag);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no " << key << " in " << row;
    return -1;
  }
  return std::stoll(row.substr(at + tag.size()));
}

TEST(CampaignReportTest, TrialRowsShowTheSampleWhoseTop1Moved) {
  // An SDC row names the first sample whose prediction changed; any other
  // row names sample 0, whose prediction held.
  CampaignConfig cfg = campaign_cfg();
  cfg.injections_per_layer = 24;
  int64_t sdc = 0;
  for (const std::string& row : trial_rows(cfg)) {
    const int64_t sample = row_int(row, "sample");
    const int64_t golden = row_int(row, "golden_top1");
    const int64_t faulty = row_int(row, "faulty_top1");
    if (row.find("\"class\":\"sdc\"") != std::string::npos) {
      ++sdc;
      EXPECT_NE(faulty, golden) << row;
    } else {
      EXPECT_EQ(sample, 0) << row;
      EXPECT_EQ(faulty, golden) << row;
    }
  }
  EXPECT_GT(sdc, 0);
}

/// Subtracts the batch mean of every feature: computation across
/// samples, which the prepare-time check must catch.
struct BatchCentre : nn::Module {
  BatchCentre() : Module("BatchCentre") {}
  Tensor forward(const Tensor& x) override {
    const int64_t b = x.size(0);
    const int64_t n = x.numel() / b;
    Tensor y = x;
    float* out = y.data();
    for (int64_t j = 0; j < n; ++j) {
      float mean = 0.0f;
      for (int64_t i = 0; i < b; ++i) mean += x[i * n + j];
      mean /= static_cast<float>(b);
      for (int64_t i = 0; i < b; ++i) out[i * n + j] -= mean;
    }
    return y;
  }
};

struct CentredNet : nn::Module {
  nn::Flatten flat;
  nn::Linear fc1;
  BatchCentre centre;
  nn::Linear fc2;
  CentredNet(int64_t in, int64_t classes, Rng rng)
      : Module("CentredNet"), fc1(in, 16, rng), fc2(16, classes, rng) {
    register_child("flat", flat);
    register_child("fc1", fc1);
    register_child("centre", centre);
    register_child("fc2", fc2);
  }
  Tensor forward(const Tensor& x) override {
    return fc2(centre(fc1(flat(x))));
  }
};

TEST(SlicedReplayTest, AModelThatMixesSamplesIsNeverSliced) {
  const data::SyntheticVision data(small_cfg());
  const data::Batch batch = data::take(data.test(), 0, 8);
  const int64_t in = batch.images.numel() / batch.images.size(0);
  CampaignConfig cfg;
  cfg.format_spec = "fp_e5m10";
  cfg.injections_per_layer = 6;
  cfg.seed = 41;
  obs::TelemetryScope scope(/*tracing=*/false, /*metrics=*/true);
  uint64_t digest[2] = {0, 0};
  for (const bool cache : {false, true}) {
    CentredNet net(in, data.config().num_classes, Rng(3));
    cfg.use_prefix_cache = cache;
    obs::reset_all();
    digest[cache] = campaign_digest(run_campaign(net, batch, cfg));
    EXPECT_EQ(obs::counter_value(obs::Counter::kPrefixCacheHits),
              cache ? obs::counter_value(obs::Counter::kTrials) : 0u);
    EXPECT_EQ(obs::counter_value(obs::Counter::kSlicedReplays), 0u);
  }
  EXPECT_EQ(digest[1], digest[0]);
  obs::reset_all();
}

TEST(CampaignRunOptionsTest, InvalidOptionsAreRejected) {
  Fixture f;
  const CampaignConfig cfg = campaign_cfg();
  {
    CampaignRunOptions opts;
    opts.shards = 2;
    opts.shard_index = 2;
    EXPECT_THROW(run_campaign_trials(*f.model, f.batch, cfg, opts),
                 std::invalid_argument);
  }
  {
    CampaignRunOptions opts;
    opts.checkpoint_every = 2;  // no checkpoint_path
    EXPECT_THROW(run_campaign_trials(*f.model, f.batch, cfg, opts),
                 std::invalid_argument);
  }
  {
    CampaignRunOptions opts;
    opts.abort_after = 1;  // no checkpoint_path
    EXPECT_THROW(run_campaign_trials(*f.model, f.batch, cfg, opts),
                 std::invalid_argument);
  }
}

TEST(CampaignSessionTest, InjectionsBelowOneAreRefused) {
  // 0 would finalize an empty campaign and -1 fail sizing the done sets;
  // both are refused when the session is built, as sites_per_trial is.
  Fixture f;
  for (const int64_t injections : {int64_t{0}, int64_t{-1}}) {
    CampaignConfig cfg = campaign_cfg();
    cfg.injections_per_layer = injections;
    EXPECT_THROW({ CampaignSession session(*f.model, f.batch, cfg); },
                 std::invalid_argument)
        << injections;
  }
}

}  // namespace
}  // namespace ge::core
