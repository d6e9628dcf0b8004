// End-to-end determinism across thread counts: the same model, batch and
// seed must produce bitwise-identical logits and campaign statistics at
// GE_NUM_THREADS=1 and 4. This is the acceptance test for the parallel
// subsystem's design contract (DESIGN.md §"Threading model & determinism").
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "data/synthetic.hpp"
#include "io/campaign_state.hpp"
#include "models/model_factory.hpp"
#include "obs/metrics_server.hpp"
#include "obs/profiler.hpp"
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

  explicit Fixture(const std::string& model_name = "simple_cnn")
      : data(small_cfg()),
        model(models::make_model(model_name, data.config(), 3)),
        batch(data::take(data.test(), 0, 8)) {
    model->eval();
  }
};

CampaignConfig campaign_cfg(bool with_replicas) {
  CampaignConfig cfg;
  cfg.format_spec = "fp_e5m10";
  cfg.site = InjectionSite::kActivationValue;
  cfg.model = ErrorModel::kBitFlip;
  cfg.injections_per_layer = 6;
  cfg.seed = 77;
  if (with_replicas) {
    cfg.make_replica = [] {
      return models::make_model("simple_cnn", small_cfg(), 0);
    };
  }
  return cfg;
}

void expect_same_result(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.golden_accuracy, b.golden_accuracy);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (size_t i = 0; i < a.layers.size(); ++i) {
    const auto& la = a.layers[i];
    const auto& lb = b.layers[i];
    EXPECT_EQ(la.layer, lb.layer);
    EXPECT_EQ(la.injections, lb.injections);
    EXPECT_EQ(la.sdc_count, lb.sdc_count);
    EXPECT_EQ(la.mean_mismatch_rate, lb.mean_mismatch_rate);
    EXPECT_EQ(la.mean_delta_loss, lb.mean_delta_loss);
    EXPECT_EQ(la.max_delta_loss, lb.max_delta_loss);
    EXPECT_EQ(la.ci95_delta_loss, lb.ci95_delta_loss);
    EXPECT_EQ(la.delta_losses, lb.delta_losses);  // bitwise, per trial
    EXPECT_EQ(la.sdc_flags, lb.sdc_flags);
  }
}

TEST(Determinism, LogitsBitwiseIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  Fixture f;
  parallel::set_num_threads(1);
  const Tensor serial = (*f.model)(f.batch.images);
  parallel::set_num_threads(4);
  const Tensor par = (*f.model)(f.batch.images);
  EXPECT_TRUE(serial.equals(par));
}

TEST(Determinism, CampaignBitwiseIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  Fixture f;
  const CampaignConfig cfg = campaign_cfg(/*with_replicas=*/true);
  parallel::set_num_threads(1);
  const CampaignResult serial = run_campaign(*f.model, f.batch, cfg);
  parallel::set_num_threads(4);
  const CampaignResult par = run_campaign(*f.model, f.batch, cfg);
  expect_same_result(serial, par);
}

TEST(Determinism, ReplicaPathMatchesSerialPrimaryPath) {
  // With make_replica unset every trial runs on the primary model; with it
  // set trials fan out over replicas. The child-RNG-stream scheme must make
  // the two paths indistinguishable in their outputs.
  ThreadGuard guard;
  Fixture f;
  parallel::set_num_threads(4);
  const CampaignResult primary_only =
      run_campaign(*f.model, f.batch, campaign_cfg(/*with_replicas=*/false));
  const CampaignResult replicated =
      run_campaign(*f.model, f.batch, campaign_cfg(/*with_replicas=*/true));
  expect_same_result(primary_only, replicated);
}

TEST(Determinism, TelemetryDoesNotPerturbCampaignResults) {
  // The observability contract: tracing + metrics read state but never feed
  // back into RNG streams, chunking, or arithmetic, so a fully-instrumented
  // run is bitwise identical to a dark one.
  ThreadGuard guard;
  Fixture f;
  parallel::set_num_threads(4);
  const CampaignConfig cfg = campaign_cfg(/*with_replicas=*/true);

  CampaignResult dark, lit;
  {
    obs::TelemetryScope scope(/*tracing=*/false, /*metrics=*/false);
    dark = run_campaign(*f.model, f.batch, cfg);
  }
  {
    obs::TelemetryScope scope(/*tracing=*/true, /*metrics=*/true);
    obs::reset_all();
    lit = run_campaign(*f.model, f.batch, cfg);
    // sanity: instrumentation actually fired during the lit run
    EXPECT_GT(obs::trace_event_count(), 0u);
    EXPECT_GT(obs::counter_value(obs::Counter::kTrials), 0u);
    obs::reset_all();
  }
  expect_same_result(dark, lit);
}

// ---------------------------------------------------------------------------
// Pinned digests: FNV-1a over the full campaign statistics, captured from the
// pre-refactor (deep-copy tensor) tree. They pin the numerical behaviour of
// the whole pipeline — any change to quantisation kernels, RNG streams, or
// the shared-storage memory model that alters one bit of one trial shows up
// here. Regenerate only for an intentional numerics change (see
// DESIGN.md §"Memory model") and say so in the commit message.
//
// The digest function itself now lives in the library (campaign_digest,
// core/campaign.cpp) so the CLI prints the exact value pinned here.

void expect_pinned_digest(CampaignConfig cfg, uint64_t want,
                          const std::string& model_name = "simple_cnn") {
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    Fixture f(model_name);
    parallel::set_num_threads(threads);
    const CampaignResult r = run_campaign(*f.model, f.batch, cfg);
    // A cfg.layers entry naming no site would leave nothing to pin.
    ASSERT_FALSE(r.layers.empty()) << "threads=" << threads;
    EXPECT_EQ(campaign_digest(r), want) << "threads=" << threads;
  }
}

TEST(Determinism, PinnedDigestActivationCampaign) {
  expect_pinned_digest(campaign_cfg(/*with_replicas=*/true),
                       0x347820fff760869bULL);
}

TEST(Determinism, PinnedDigestMetadataCampaign) {
  CampaignConfig cfg = campaign_cfg(/*with_replicas=*/true);
  cfg.format_spec = "bfp_e5m5_b16";
  cfg.site = InjectionSite::kMetadata;
  expect_pinned_digest(cfg, 0xa6871332fe0e0fbcULL);
}

TEST(Determinism, PinnedDigestWeightCampaign) {
  CampaignConfig cfg = campaign_cfg(/*with_replicas=*/true);
  cfg.format_spec = "int8";
  cfg.site = InjectionSite::kWeightValue;
  expect_pinned_digest(cfg, 0x05ebde590ffab9b7ULL);
}

// Region campaigns pin the injector's channel/row map. On simple_cnn they
// reach the rank-4 conv sites and the rank-2 Linear sites; the thinned
// variant also pins the order the map walks a region in, since each
// thinning draw lands on the element at that position.
CampaignConfig region_cfg(ErrorModel model, double ber) {
  CampaignConfig cfg = campaign_cfg(/*with_replicas=*/true);
  cfg.model = model;
  cfg.ber = ber;
  return cfg;
}

// tiny_deit limited to one MLP projection, whose (B, T, 4D) output is the
// rank-3 token layout.
CampaignConfig deit_token_cfg(ErrorModel model) {
  CampaignConfig cfg = region_cfg(model, 0.5);
  cfg.layers = {"block0.mlp.fc1"};
  cfg.make_replica = [] {
    return models::make_model("tiny_deit", small_cfg(), 0);
  };
  return cfg;
}

TEST(Determinism, PinnedDigestChannelCampaign) {
  expect_pinned_digest(region_cfg(ErrorModel::kChannel, 0.0),
                       0xf45cbcaeebdedf3aULL);
  expect_pinned_digest(region_cfg(ErrorModel::kChannel, 0.5),
                       0xdcf91dc73ccfc19fULL);
  expect_pinned_digest(deit_token_cfg(ErrorModel::kChannel),
                       0x9ffb5353ecad3c75ULL, "tiny_deit");
}

TEST(Determinism, PinnedDigestRowCampaign) {
  expect_pinned_digest(region_cfg(ErrorModel::kRowBurst, 0.0),
                       0x50031bec668dc6e1ULL);
  expect_pinned_digest(region_cfg(ErrorModel::kRowBurst, 0.5),
                       0xd1eb7d76dd983574ULL);
  expect_pinned_digest(deit_token_cfg(ErrorModel::kRowBurst),
                       0x3d99fc665d6c3a7cULL, "tiny_deit");
}

TEST(Determinism, PinnedDigestsUnchangedWithPrefixCacheOff) {
  // The golden-prefix cache (on by default, so every pinned test above
  // already runs the suffix-replay path) is purely a speed knob: turning
  // it off must reproduce each pinned digest exactly, for all three
  // injection sites, at 1 and 4 threads.
  CampaignConfig act = campaign_cfg(/*with_replicas=*/true);
  act.use_prefix_cache = false;
  expect_pinned_digest(act, 0x347820fff760869bULL);

  CampaignConfig meta = campaign_cfg(/*with_replicas=*/true);
  meta.format_spec = "bfp_e5m5_b16";
  meta.site = InjectionSite::kMetadata;
  meta.use_prefix_cache = false;
  expect_pinned_digest(meta, 0xa6871332fe0e0fbcULL);

  CampaignConfig wgt = campaign_cfg(/*with_replicas=*/true);
  wgt.format_spec = "int8";
  wgt.site = InjectionSite::kWeightValue;
  wgt.use_prefix_cache = false;
  expect_pinned_digest(wgt, 0x05ebde590ffab9b7ULL);
}

TEST(Determinism, MultiSiteCampaignCacheOnOffBitwiseIdentical) {
  // Multi-point trials (sites_per_trial > 1) must also be independent of
  // the cache mode and the thread count: companion selection draws from
  // the per-trial stream, never from anything execution-order dependent.
  ThreadGuard guard;
  for (InjectionSite site : {InjectionSite::kActivationValue,
                             InjectionSite::kWeightValue}) {
    CampaignConfig cfg = campaign_cfg(/*with_replicas=*/true);
    cfg.site = site;
    if (site == InjectionSite::kWeightValue) cfg.format_spec = "int8";
    cfg.sites_per_trial = 3;
    std::vector<uint64_t> digests;
    for (const bool cache : {true, false}) {
      for (const int threads : {1, 4}) {
        Fixture f;
        parallel::set_num_threads(threads);
        cfg.use_prefix_cache = cache;
        digests.push_back(
            campaign_digest(run_campaign(*f.model, f.batch, cfg)));
      }
    }
    for (size_t i = 1; i < digests.size(); ++i) {
      EXPECT_EQ(digests[i], digests[0])
          << "site=" << to_string(site) << " variant " << i;
    }
    // and the companions actually changed the outcome vs classic trials
    CampaignConfig classic = cfg;
    classic.sites_per_trial = 1;
    Fixture f;
    parallel::set_num_threads(4);
    EXPECT_NE(campaign_digest(run_campaign(*f.model, f.batch, classic)),
              digests[0])
        << "site=" << to_string(site);
  }
}

TEST(Determinism, PinnedDigestSurvivesSharding) {
  // 3 shards run as separate "processes" (fresh fixtures), merged, and
  // finalized: the exact digest pinned for the single-process run, at
  // both thread counts (DESIGN.md §9).
  const uint64_t want = 0x347820fff760869bULL;
  const CampaignConfig cfg = campaign_cfg(/*with_replicas=*/true);
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    std::vector<CampaignProgress> parts;
    for (int i = 0; i < 3; ++i) {
      Fixture f;
      CampaignRunOptions opts;
      opts.shards = 3;
      opts.shard_index = i;
      parts.push_back(run_campaign_trials(*f.model, f.batch, cfg, opts));
    }
    const CampaignResult r =
        finalize_campaign(merge_campaign_progress(parts));
    EXPECT_EQ(campaign_digest(r), want) << "threads=" << threads;
  }
}

TEST(Determinism, PinnedDigestSurvivesResume) {
  // Kill after 8 trials, resume in a fresh fixture: same pinned digest.
  const uint64_t want = 0x347820fff760869bULL;
  const CampaignConfig cfg = campaign_cfg(/*with_replicas=*/true);
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    const std::string path = "/tmp/ge_test_determinism_resume.gec";
    {
      Fixture f;
      CampaignRunOptions opts;
      opts.checkpoint_every = 3;
      opts.checkpoint_path = path;
      opts.abort_after = 8;
      run_campaign_trials(*f.model, f.batch, cfg, opts);
    }
    Fixture f;
    const CampaignProgress saved = io::load_campaign_progress(path);
    EXPECT_GT(saved.completed_trials(), 0);
    EXPECT_LT(saved.completed_trials(), saved.total_trials());
    CampaignRunOptions opts;
    opts.resume_from = &saved;
    const CampaignResult r =
        finalize_campaign(run_campaign_trials(*f.model, f.batch, cfg, opts));
    EXPECT_EQ(campaign_digest(r), want) << "threads=" << threads;
    std::remove(path.c_str());
  }
}

TEST(Determinism, PinnedDigestUnchangedWithFullAnalyticsOn) {
  // The PR-5 analytics surface all at once — per-trial RunLog stream,
  // heartbeat records, histograms, and a live /metrics endpoint — with the
  // same acceptance bar as --trace: the pinned digest must not move by a
  // single bit, at either thread count.
  const uint64_t want = 0x347820fff760869bULL;
  const CampaignConfig cfg = campaign_cfg(/*with_replicas=*/true);
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    Fixture f;
    parallel::set_num_threads(threads);
    obs::TelemetryScope scope(/*tracing=*/true, /*metrics=*/true);
    obs::reset_all();
    obs::MetricsServer server(/*port=*/0);
    ASSERT_TRUE(server.ok()) << server.last_error();
    std::ostringstream report;
    obs::RunLog log(report);
    CampaignRunOptions opts;
    opts.run_log = &log;
    const CampaignResult r =
        finalize_campaign(run_campaign_trials(*f.model, f.batch, cfg, opts));
    EXPECT_EQ(campaign_digest(r), want) << "threads=" << threads;
    // and the stream actually carried the v2 analytics records
    const std::string text = report.str();
    EXPECT_NE(text.find("\"type\":\"trial\""), std::string::npos);
    EXPECT_NE(text.find("\"type\":\"heartbeat\""), std::string::npos);
    EXPECT_NE(text.find("\"class\":"), std::string::npos);
    obs::reset_all();
  }
}

TEST(Determinism, PinnedDigestUnchangedWithProfilingOn) {
  // The profiler aggregates span statistics, samples hardware counters
  // and memory watermarks — but, like every other obs surface, only
  // *reads* program state: each pinned digest must reproduce bit-for-bit
  // with profiling on, at 1 and 4 threads, for all three injection sites.
  struct Pinned {
    const char* spec;
    InjectionSite site;
    uint64_t want;
  };
  const Pinned pins[] = {
      {"fp_e5m10", InjectionSite::kActivationValue, 0x347820fff760869bULL},
      {"bfp_e5m5_b16", InjectionSite::kMetadata, 0xa6871332fe0e0fbcULL},
      {"int8", InjectionSite::kWeightValue, 0x05ebde590ffab9b7ULL},
  };
  ThreadGuard guard;
  for (const Pinned& pin : pins) {
    CampaignConfig cfg = campaign_cfg(/*with_replicas=*/true);
    cfg.format_spec = pin.spec;
    cfg.site = pin.site;
    for (int threads : {1, 4}) {
      Fixture f;
      parallel::set_num_threads(threads);
      obs::TelemetryScope scope(/*tracing=*/false, /*metrics=*/true);
      obs::ProfilingScope prof(true);
      obs::reset_all();
      const CampaignResult r = run_campaign(*f.model, f.batch, cfg);
      EXPECT_EQ(campaign_digest(r), pin.want)
          << pin.spec << " threads=" << threads;
      // and the aggregate actually saw the campaign's trial spans, keyed
      // by the campaign's format attribution
      bool saw_trial = false;
      for (const auto& s : obs::profile_snapshot()) {
        if (s.category == "campaign" && s.name == "trial" &&
            s.format == pin.spec) {
          saw_trial = true;
        }
      }
      EXPECT_TRUE(saw_trial) << pin.spec << " threads=" << threads;
      obs::reset_all();
    }
  }
}

TEST(Determinism, RepeatedCampaignOnSameModelIsStable) {
  // run_campaign must fully restore the model: a second identical campaign
  // sees the same weights and produces the same statistics.
  ThreadGuard guard;
  Fixture f;
  parallel::set_num_threads(4);
  const CampaignConfig cfg = campaign_cfg(/*with_replicas=*/true);
  const CampaignResult first = run_campaign(*f.model, f.batch, cfg);
  const CampaignResult second = run_campaign(*f.model, f.batch, cfg);
  expect_same_result(first, second);
}

}  // namespace
}  // namespace ge::core
