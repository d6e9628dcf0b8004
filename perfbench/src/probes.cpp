// The per-layer probe battery of a traced run: direct, repeated, timed calls
// into each layer's public functions at fixed inputs, reported as medians.
// Workload-attributed numbers (measured by the workload's own traced loop)
// win over these; the probes fill in every layer the workload left idle, so
// each traced run reports the full per-layer set.
#include <functional>

#include "bench.hpp"
#include "core/injector.hpp"
#include "formats/format_registry.hpp"
#include "io/model_io.hpp"
#include "models/model_factory.hpp"
#include "obs/run_log.hpp"
#include "obs/telemetry.hpp"

namespace perfbench {

namespace {

using ge::core::ErrorModel;
using ge::core::InjectionSite;

constexpr int kReps = 5;
/// Trials per layer of the campaign probes; >= the pool size, so every
/// replica gets work.
constexpr int64_t kProbeInjections = 8;

volatile float g_sink = 0.0f;  // keeps scalar probe results observable

double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_since(t0));
  }
  return median(t);
}

ge::Tensor deep_copy(const ge::Tensor& t) {
  return ge::Tensor(t.shape(),
                    std::vector<float>(t.cdata(), t.cdata() + t.numel()));
}

void probe_model_load(const Context& ctx, Metrics& out) {
  for (const std::string& model : kInferModels) {
    auto net = ge::models::make_model(model, ge::data::SyntheticVisionConfig{},
                                      42);
    const std::string path = checkpoint_path(ctx.opt.cache_dir, model);
    put(out, "io.model_load_ms." + model,
        median_ms(kReps, [&] { ge::io::load_model(path, *net); }), "ms");
  }
}

/// Native and emulated forwards, emulator attach, and one profiled pass
/// over the whole inference matrix.
void probe_matrix(const Context& ctx, const ge::data::SyntheticVision& data,
                  Metrics& out) {
  const ge::data::Batch batch = ge::data::take(data.test(), 0, kInferBatch);
  std::map<std::string, double> attach, overhead;
  ge::obs::reset_profile();
  for (const std::string& model : kInferModels) {
    auto net = load_trained(ctx.opt.cache_dir, model);
    auto forward = [&] { (void)(*net)(batch.images); };
    forward();
    const double native = median_ms(kReps, forward);
    put(out, "nn.native_forward_ms." + model, native, "ms");
    {
      ge::obs::ProfilingScope prof(true);
      forward();
    }
    for (const std::string& spec : kSpecs) {
      ge::core::EmulatorConfig cfg;
      cfg.format_spec = spec;
      std::unique_ptr<ge::core::Emulator> emu;
      std::vector<double> at;
      for (int i = 0; i < 3; ++i) {
        emu.reset();  // detach is not part of the attach time
        const auto t0 = Clock::now();
        emu = std::make_unique<ge::core::Emulator>(*net, cfg);
        at.push_back(ms_since(t0));
      }
      attach[spec] += median(at);
      forward();
      overhead[spec] += median_ms(kReps, forward) - native;
      ge::obs::ProfilingScope prof(true);
      forward();
    }
  }
  for (const std::string& spec : kSpecs) {
    put(out, "emulator.attach_ms." + spec, attach[spec], "ms");
    put(out, "emulator.overhead_ms." + spec, overhead[spec], "ms");
  }
  const double forwards =
      double(kInferModels.size() * (kSpecs.size() + 1));
  attribute_forward_profile(ge::obs::profile_snapshot(), forwards,
                            double(kInferModels.size()), out);
  ge::obs::reset_profile();
}

void probe_formats(Metrics& out) {
  ge::Rng rng(7);
  const ge::Tensor x = rng.normal_tensor({32, 16, 16, 16}, 0.0f, 2.0f);
  const double n = double(x.numel());
  constexpr int64_t kScalar = 4096;
  for (const std::string& spec : kSpecs) {
    auto f = ge::fmt::make_format(spec);
    std::vector<double> q;
    ge::Tensor t;
    for (int i = 0; i < kReps; ++i) {
      t = deep_copy(x);
      const auto t0 = Clock::now();
      f->quantize_tensor_inplace(t);
      q.push_back(ms_since(t0));
    }
    put(out, "formats.quantize_ns_per_elem." + spec, median(q) * 1e6 / n,
        "ns");
    float sink = 0.0f;
    const double rt = median_ms(kReps, [&] {
      for (int64_t i = 0; i < kScalar; ++i) {
        sink += f->format_to_real_at(f->real_to_format_at(x[i], i), i);
      }
    });
    g_sink = sink;
    put(out, "formats.scalar_roundtrip_ns." + spec,
        rt * 1e6 / double(kScalar), "ns");
  }
  const std::pair<const char*, const char*> decoders[] = {
      {"int8", "int8"}, {"bfp", "bfp_e8m7_b16"}, {"afp", "afp_e4m3"}};
  for (const auto& [label, spec] : decoders) {
    auto f = ge::fmt::make_format(spec);
    ge::Tensor t = deep_copy(x);
    f->quantize_tensor_inplace(t);
    const double ms = median_ms(kReps, [&] { (void)f->decode_last_tensor(); });
    put(out, std::string("formats.decode_ns_per_elem.") + label,
        ms * 1e6 / n, "ns");
  }
}

/// Suffix replay from the first, middle and last site, and the cost of
/// firing each fault kind at the middle site (armed minus unarmed replay).
void probe_replay_and_injector(const Context& ctx,
                               const ge::data::Batch& batch, Metrics& out) {
  for (const std::string model : {"tiny_resnet", "tiny_deit"}) {
    auto net = load_trained(ctx.opt.cache_dir, model);
    ge::core::EmulatorConfig cfg;
    cfg.format_spec = "fp_e5m10";
    ge::core::Emulator emu(*net, cfg);
    ge::nn::ReplayPlan plan;
    (void)net->record_forward(plan, batch.images);
    const auto& sites = emu.sites();
    const std::pair<const char*, size_t> where[] = {
        {"first", 0}, {"mid", sites.size() / 2}, {"last", sites.size() - 1}};
    for (const auto& [pos, idx] : where) {
      const ge::nn::Module& site = *sites[idx].module;
      auto replay = [&] { (void)net->forward_from(plan, site, batch.images); };
      replay();
      put(out, "nn.forward_from_ms." + std::string(model) + "." + pos,
          median_ms(7, replay), "ms");
    }
  }

  // Injector fire cost on tiny_resnet's middle site.
  auto net = load_trained(ctx.opt.cache_dir, "tiny_resnet");
  const std::pair<const char*, ErrorModel> kinds[] = {
      {"flip", ErrorModel::kBitFlip},
      {"ber", ErrorModel::kBerUniform},
      {"channel", ErrorModel::kChannel},
      {"metadata", ErrorModel::kBitFlip}};
  for (const auto& [label, em] : kinds) {
    const bool metadata = std::string(label) == "metadata";
    ge::core::EmulatorConfig cfg;
    cfg.format_spec = metadata ? "bfp_e8m7_b16" : "fp_e5m10";
    ge::core::Emulator emu(*net, cfg);
    ge::nn::ReplayPlan plan;
    (void)net->record_forward(plan, batch.images);
    ge::core::LayerSite& mid = emu.sites()[emu.sites().size() / 2];
    ge::core::Injector inj(emu, 1);
    ge::core::InjectionSpec spec;
    spec.layer_path = mid.path;
    spec.site = metadata ? InjectionSite::kMetadata
                         : InjectionSite::kActivationValue;
    spec.model = em;
    spec.ber = em == ErrorModel::kBerUniform ? 1e-3 : 0.0;
    std::vector<double> plain, armed;
    for (int i = 0; i < 9; ++i) {
      auto t0 = Clock::now();
      (void)net->forward_from(plan, *mid.module, batch.images);
      plain.push_back(ms_since(t0));
      inj.arm(spec, ge::Rng(5));
      t0 = Clock::now();
      (void)net->forward_from(plan, *mid.module, batch.images);
      armed.push_back(ms_since(t0));
      inj.disarm();
    }
    put(out, std::string("injector.fire_us.") + label,
        (median(armed) - median(plain)) * 1e3, "us");
  }
}

/// Campaign fixed cost, per-layer trial cost, finalize and merge, plus the
/// replay and injector counts of one small complete campaign per model.
void probe_campaigns(const Context& ctx, const ge::data::Batch& batch,
                     Metrics& out, Tally& tally) {
  using ge::obs::Counter;
  for (const std::string model : {"tiny_resnet", "tiny_deit"}) {
    auto net = load_trained(ctx.opt.cache_dir, model);
    const CampaignCase c =
        make_case(model, "fp_e5m10", InjectionSite::kActivationValue,
                  ErrorModel::kBitFlip, kProbeInjections,
                  kCampaignSeedBase + static_cast<uint64_t>(ctx.variant));
    const int64_t nT = kProbeInjections;
    auto window = [&](int64_t lo, int64_t hi) {
      ge::core::CampaignRunOptions ropts;
      ropts.lease_lo = lo;
      ropts.lease_hi = hi;
      return ge::core::run_campaign_trials(*net, batch, c.cfg, ropts);
    };
    const double fixed = median_ms(3, [&] { (void)window(0, 0); });
    put(out, "campaign.fixed_ms." + model, fixed, "ms");
    const int64_t layers =
        ge::core::count_campaign_layers(*net, c.cfg);
    const std::pair<const char*, int64_t> where[] = {
        {"first", 0}, {"mid", layers / 2}, {"last", layers - 1}};
    for (const auto& [pos, l] : where) {
      const double ms =
          median_ms(3, [&] { (void)window(l * nT, (l + 1) * nT); });
      put(out, "campaign.trial_ms." + model + "." + pos,
          (ms - fixed) / double(nT), "ms");
    }

    // One complete campaign with counters and a report stream on.
    ge::obs::reset_counters();
    ge::nn::ReplayPlan plan;
    int64_t modules = 0;
    {
      ge::core::EmulatorConfig ecfg;
      ecfg.format_spec = c.cfg.format_spec;
      ge::core::Emulator emu(*net, ecfg);
      (void)net->record_forward(plan, batch.images);
      modules = static_cast<int64_t>(plan.modules_recorded());
    }
    RowStream rows;
    ge::core::CampaignProgress full;
    {
      ge::obs::TelemetryScope metrics(false, true);
      ge::obs::RunLog log(rows);
      ge::core::CampaignRunOptions ropts;
      ropts.run_log = &log;
      full = ge::core::run_campaign_trials(*net, batch, c.cfg, ropts);
    }
    const double trials = double(full.completed_trials());
    if (model == "tiny_resnet") {
      put(out, "campaign.replay_skip_frac",
          double(ge::obs::counter_value(Counter::kSuffixLayersSkipped)) /
              (trials * double(modules)),
          "frac");
      put(out, "campaign.prefix_cache_mb",
          double(ge::obs::counter_value(Counter::kPrefixCacheBytes)) /
              (1024.0 * 1024.0),
          "MB");
    }
    int64_t affected = 0;
    for (const auto& [layer, t] : rows.stats().per_layer) affected += t.second;
    put(out, "injector.affected_per_trial." + model,
        double(affected) / trials, "count");

    if (model != "tiny_resnet") continue;
    // Two lease halves merged and finalized must equal the single run.
    const int64_t total = layers * nT;
    std::vector<ge::core::CampaignProgress> parts = {window(0, total / 2),
                                                     window(total / 2, total)};
    parts[1].shard_index = 1;
    ge::core::CampaignProgress merged;
    put(out, "campaign.merge_ms", median_ms(kReps, [&] {
          merged = ge::core::merge_campaign_progress(parts);
        }),
        "ms");
    ge::core::CampaignResult result;
    put(out, "campaign.finalize_ms", median_ms(kReps, [&] {
          result = ge::core::finalize_campaign(merged);
        }),
        "ms");
    const bool same = ge::core::campaign_digest(result) ==
                      ge::core::campaign_digest(
                          ge::core::finalize_campaign(full));
    tally.record(total, same, "merged lease halves != single campaign");
  }
}

/// A small served campaign (served wall vs offline wall, and the net
/// counters of a traced repeat).
void probe_net(const Context& ctx, const ge::data::Batch& batch, Metrics& out,
               Tally& tally) {
  const CampaignCase c =
      make_case("tiny_resnet", "fp_e5m10", InjectionSite::kActivationValue,
                ErrorModel::kBitFlip, 2,
                kCampaignSeedBase + static_cast<uint64_t>(ctx.variant));
  auto net = load_trained(ctx.opt.cache_dir, c.model);
  const double offline_ms = median_ms(1, [&] {
    (void)ge::core::run_campaign_trials(*net, batch, c.cfg, {});
  });
  const ServedRun plain = run_served(ctx, c, 0.0, 1).front();
  tally.record(1, plain.ok, plain.error);
  put(out, "net.served_overhead_x", plain.latency_ms / offline_ms, "x");
  ge::obs::reset_all();
  ServedRun traced;
  {
    ge::obs::TelemetryScope telemetry(true, true);
    traced = run_served(ctx, c, 0.0, 1).front();
    net_attribution(1, traced.rows, out);
  }
  ge::obs::clear_trace();
  tally.record(1, traced.ok, traced.error);
}

}  // namespace

void run_probes(const Context& ctx, Metrics& out, Tally& tally) {
  const ge::data::SyntheticVision data{ge::data::SyntheticVisionConfig{}};
  const ge::data::Batch batch = campaign_batch(data);
  const std::pair<const char*, std::function<void()>> probes[] = {
      {"model load", [&] { probe_model_load(ctx, out); }},
      {"matrix", [&] { probe_matrix(ctx, data, out); }},
      {"formats", [&] { probe_formats(out); }},
      {"replay/injector",
       [&] { probe_replay_and_injector(ctx, batch, out); }},
      {"campaign", [&] { probe_campaigns(ctx, batch, out, tally); }},
      {"net", [&] { probe_net(ctx, batch, out, tally); }},
  };
  for (const auto& [name, fn] : probes) {
    try {
      fn();
    } catch (const std::exception& e) {
      tally.record(1, false, std::string("probe ") + name + ": " + e.what());
    }
  }
}

}  // namespace perfbench
