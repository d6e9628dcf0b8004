// Campaign workloads: offline fault-injection campaigns (campaign_flip,
// campaign_ber) and the same campaign served over loopback (served_flip).
//
// Each request is one whole campaign through core::run_campaign_trials with
// a report stream attached, as `goldeneye campaign --report` runs it, so the
// first trial row is observable and every row can be checked.
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "formats/format_registry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/run_log.hpp"

namespace perfbench {

namespace {

using ge::core::ErrorModel;
using ge::core::InjectionSite;

// Campaign sizes (injections per layer, a multiple of the pool size). A
// round of each workload's request mix takes about 3 s at three threads,
// so a 15 s run holds five or more whole rounds to take medians over.
constexpr int64_t kFlipInjections = 9;
constexpr int64_t kMetadataInjections = 9;
constexpr int64_t kBerInjections = 6;
constexpr int64_t kChannelInjections = 6;
/// A served campaign takes about 4 s, so a 15 s run holds three or four.
constexpr int64_t kServedInjections = 24;
constexpr double kBer = 1e-3;
/// Cache-on == cache-off sample: this many trials on the first and last
/// campaigned layer of every case.
constexpr int64_t kSampleInjections = 4;

uint64_t campaign_seed(int variant) {
  return kCampaignSeedBase + static_cast<uint64_t>(variant);
}

std::vector<CampaignCase> flip_cases(int variant) {
  const uint64_t s = campaign_seed(variant);
  return {
      make_case("tiny_resnet", "fp_e5m10", InjectionSite::kActivationValue,
                ErrorModel::kBitFlip, kFlipInjections, s),
      make_case("tiny_deit", "fp_e5m10", InjectionSite::kActivationValue,
                ErrorModel::kBitFlip, kFlipInjections, s),
      make_case("tiny_resnet", "bfp_e8m7_b16", InjectionSite::kMetadata,
                ErrorModel::kBitFlip, kMetadataInjections, s),
  };
}

std::vector<CampaignCase> ber_cases(int variant) {
  const uint64_t s = campaign_seed(variant);
  return {
      make_case("tiny_resnet", "fp_e5m10", InjectionSite::kActivationValue,
                ErrorModel::kBerUniform, kBerInjections, s, kBer),
      make_case("tiny_deit", "fp_e5m10", InjectionSite::kActivationValue,
                ErrorModel::kBerUniform, kBerInjections, s, kBer),
      make_case("tiny_resnet", "fp_e5m10", InjectionSite::kActivationValue,
                ErrorModel::kChannel, kChannelInjections, s),
      make_case("tiny_deit", "fp_e5m10", InjectionSite::kActivationValue,
                ErrorModel::kChannel, kChannelInjections, s),
  };
}

CampaignCase served_case(int variant) {
  return make_case("tiny_resnet", "fp_e5m10", InjectionSite::kActivationValue,
                   ErrorModel::kBitFlip, kServedInjections,
                   campaign_seed(variant));
}

/// Classic single-fault campaigns are pinned; the ber draw order is due to
/// change, so ber and channel campaigns are checked statistically instead.
bool pinned_model(ErrorModel m) { return !ge::core::is_zoo_model(m); }

std::string golden_key(const std::string& model, const std::string& spec) {
  return "golden " + model + ' ' + spec + " samples" +
         std::to_string(kCampaignSamples);
}

/// A loaded campaign model and what its golden pass revealed.
struct ModelState {
  std::unique_ptr<ge::nn::Module> net;
  std::vector<std::string> sites;               ///< instrumented, in order
  std::map<std::string, int64_t> site_numel;    ///< activation elements
  int64_t modules_per_forward = 0;              ///< invocations per forward
};

struct CampaignOutcome {
  bool ok = false;
  std::string why;
  uint64_t digest = 0;
  int64_t trials = 0;
};

/// Run one campaign with a report stream. Does not throw.
CampaignOutcome run_offline(ge::nn::Module& net, const ge::data::Batch& batch,
                            const CampaignCase& c, RowStream* rows) {
  CampaignOutcome out;
  try {
    std::optional<ge::obs::RunLog> log;
    if (rows != nullptr) log.emplace(*rows);
    ge::core::CampaignRunOptions ropts;
    ropts.model_name = c.model;
    ropts.eval_samples = kCampaignSamples;
    ropts.run_log = log ? &*log : nullptr;
    const auto prog = ge::core::run_campaign_trials(net, batch, c.cfg, ropts);
    out.trials = prog.completed_trials();
    out.digest =
        ge::core::campaign_digest(ge::core::finalize_campaign(prog));
    out.ok = true;
  } catch (const std::exception& e) {
    out.why = c.key() + ": " + e.what();
  }
  return out;
}

/// Binomial check of the ber sampler: the elements a trial perturbs are
/// Binomial(numel, q) with q = 1 - (1 - ber)^width. The summed count over a
/// campaign must lie within 6 standard deviations of its expectation,
/// widened by the gap between that and numel x width x ber (the expected
/// flip count), so a sampler that reports flips instead of elements passes
/// too.
bool ber_within_tolerance(const RowStats& rows, const ModelState& ms,
                          double ber, int width, std::string* why) {
  const double q = 1.0 - std::pow(1.0 - ber, width);
  double expect = 0.0, var = 0.0, expect_flips = 0.0, seen = 0.0;
  for (const auto& [layer, tally] : rows.per_layer) {
    const auto it = ms.site_numel.find(layer);
    if (it == ms.site_numel.end()) {
      *why = "ber row for unknown layer '" + layer + "'";
      return false;
    }
    const double n = double(tally.first) * double(it->second);
    expect += n * q;
    var += n * q * (1.0 - q);
    expect_flips += n * width * ber;
    seen += double(tally.second);
  }
  const double tol = 6.0 * std::sqrt(var) + std::fabs(expect_flips - expect);
  if (std::fabs(seen - expect) <= tol) return true;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "ber affected %.0f outside %.0f +- %.0f", seen, expect, tol);
  *why = buf;
  return false;
}

class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(const Context& ctx, std::vector<CampaignCase> cases)
      : ctx_(ctx), cases_(std::move(cases)) {}

  void setup(Tally& tally) override {
    const auto t0 = Clock::now();
    data_ = std::make_unique<ge::data::SyntheticVision>(
        ge::data::SyntheticVisionConfig{});
    dataset_ms = ms_since(t0);
    batch_ = campaign_batch(*data_);
    models_.clear();
    std::map<std::string, bool> golden_done;
    for (const CampaignCase& c : cases_) {
      ModelState& ms = models_[c.model];
      if (!ms.net) ms.net = load_trained(ctx_.opt.cache_dir, c.model);
      const std::string gkey = golden_key(c.model, c.cfg.format_spec);
      if (golden_done[gkey]) continue;
      golden_done[gkey] = true;
      golden_pass(c, ms, gkey, tally);
    }
    states_.assign(cases_.size(), CaseState{});
    for (size_t i = 0; i < cases_.size(); ++i) {
      if (pinned_model(cases_[i].cfg.model)) {
        states_[i].pin = ctx_.pins.find(cases_[i].key());
      }
      states_[i].width =
          ge::fmt::make_format(cases_[i].cfg.format_spec)->bit_width();
    }
  }

  void prepare_run(Tally& tally) override {
    for (const CampaignCase& c : cases_) {
      ModelState& ms = models_.at(c.model);
      // Warm-up: one short campaign per case, discarded.
      CampaignCase warm = c;
      warm.cfg.layers = {ms.sites.front()};
      warm.cfg.injections_per_layer = ctx_.opt.threads;
      const CampaignOutcome w = run_offline(*ms.net, batch_, warm, nullptr);
      tally.record(std::max<int64_t>(w.trials, 1), w.ok, w.why);
      // Suffix replay must be bitwise exact: a small sample with the
      // prefix cache on and off, outside the timed region.
      CampaignCase on = c;
      on.cfg.layers = {ms.sites.front(), ms.sites.back()};
      on.cfg.injections_per_layer = kSampleInjections;
      CampaignCase off = on;
      off.cfg.use_prefix_cache = false;
      const CampaignOutcome a = run_offline(*ms.net, batch_, on, nullptr);
      const CampaignOutcome b = run_offline(*ms.net, batch_, off, nullptr);
      const bool same = a.ok && b.ok && a.digest == b.digest;
      tally.record(std::max<int64_t>(a.trials + b.trials, 1), same,
                   a.ok && b.ok ? c.key() + ": prefix cache on != off"
                                : a.why + b.why);
    }
  }

  LoopResult run(double seconds, int64_t rounds, Tally& tally) override {
    acc_ = Accumulators{};
    LoopResult r;
    const auto t0 = Clock::now();
    for (int64_t p = 0;; ++p) {
      if (rounds > 0 ? p >= rounds : p > 0 && ms_since(t0) >= seconds * 1e3) {
        break;
      }
      RoundStats& round = r.per_round.emplace_back();
      const auto round_t0 = Clock::now();
      for (size_t i = 0; i < cases_.size(); ++i) r.ops += request(i, round, tally);
      round.wall_s = ms_since(round_t0) / 1e3;
    }
    r.wall_s = ms_since(t0) / 1e3;
    return r;
  }

  void attribute(const LoopResult& /*plain*/, const LoopResult& /*traced*/,
                 Metrics& out) override {
    campaign_attribution(out);
  }

 protected:
  struct CaseState {
    std::optional<uint64_t> pin;
    std::optional<uint64_t> first_digest;
    int width = 0;
  };
  /// Traced-loop tallies behind the campaign.* / injector.* attribution.
  struct Accumulators {
    int64_t requests = 0;
    double full_invocations = 0.0;  ///< trials x modules per forward
    std::map<std::string, std::pair<int64_t, int64_t>> affected;  ///< model
  };

  void golden_pass(const CampaignCase& c, ModelState& ms,
                   const std::string& gkey, Tally& tally) {
    try {
      ge::core::EmulatorConfig ecfg;
      ecfg.format_spec = c.cfg.format_spec;
      ge::core::Emulator emu(*ms.net, ecfg);
      std::vector<std::pair<ge::nn::Module*, ge::nn::Module::HookHandle>> hooks;
      ms.sites.clear();
      for (ge::core::LayerSite& site : emu.sites()) {
        ms.sites.push_back(site.path);
        const std::string path = site.path;
        hooks.emplace_back(site.module,
                           site.module->add_forward_hook(
                               [&ms, path](ge::nn::Module&, ge::Tensor& y) {
                                 ms.site_numel[path] = y.numel();
                               }));
      }
      ge::nn::ReplayPlan plan;
      const ge::Tensor logits = ms.net->record_forward(plan, batch_.images);
      for (auto& [mod, h] : hooks) mod->remove_hook(h);
      ms.modules_per_forward = static_cast<int64_t>(plan.modules_recorded());
      const auto pin = ctx_.pins.find(gkey);
      tally.record(1, pin && *pin == logits_digest(logits),
                   "golden digest mismatch: " + gkey);
    } catch (const std::exception& e) {
      tally.record(1, false, gkey + ": " + e.what());
    }
  }

  /// One campaign request of the timed loop, with its output checks.
  /// Returns the trials completed.
  int64_t request(size_t i, RoundStats& round, Tally& tally) {
    const CampaignCase& c = cases_[i];
    CaseState& st = states_[i];
    ModelState& ms = models_.at(c.model);
    RowStream rows;
    const auto t0 = Clock::now();
    CampaignOutcome o = run_offline(*ms.net, batch_, c, &rows);
    const double latency = ms_since(t0);
    const int64_t expected =
        static_cast<int64_t>(ms.sites.size()) * c.cfg.injections_per_layer;
    if (o.ok) check_outcome(c, st, ms, rows.stats(), expected, o);
    tally.record(expected, o.ok, o.why);
    round.latency_ms.push_back(latency);
    const RowStats& rs = rows.stats();
    round.first_row_ms.push_back(rs.have_first ? ms_between(t0, rs.first_row)
                                               : latency);
    round.items += static_cast<double>(o.trials);
    note_rows(c.model, ms, o.trials, rs);
    return o.trials;
  }

  void check_outcome(const CampaignCase& c, CaseState& st,
                     const ModelState& ms, const RowStats& rows,
                     int64_t expected, CampaignOutcome& o) {
    if (o.trials != expected || rows.trials != expected) {
      o.ok = false;
      o.why = c.key() + ": trial count or streamed row count short";
    } else if (st.first_digest && *st.first_digest != o.digest) {
      o.ok = false;
      o.why = c.key() + ": digest differs between identical requests";
    } else if (pinned_model(c.cfg.model) && (!st.pin || *st.pin != o.digest)) {
      o.ok = false;
      o.why = c.key() + (st.pin ? ": digest mismatch" : ": digest not pinned");
    } else if (c.cfg.model == ErrorModel::kBerUniform &&
               !ber_within_tolerance(rows, ms, c.cfg.ber, st.width, &o.why)) {
      o.ok = false;
      o.why = c.key() + ": " + o.why;
    }
    if (!st.first_digest) st.first_digest = o.digest;
  }

  void note_rows(const std::string& model, const ModelState& ms,
                 int64_t trials, const RowStats& rows) {
    ++acc_.requests;
    acc_.full_invocations +=
        double(trials) * double(ms.modules_per_forward);
    auto& a = acc_.affected[model];
    for (const auto& [layer, t] : rows.per_layer) {
      a.first += t.first;
      a.second += t.second;
    }
  }

  void campaign_attribution(Metrics& out) {
    using ge::obs::Counter;
    const double skipped =
        double(ge::obs::counter_value(Counter::kSuffixLayersSkipped));
    if (acc_.full_invocations > 0) {
      put(out, "campaign.replay_skip_frac", skipped / acc_.full_invocations,
          "frac");
    }
    for (const auto& [model, a] : acc_.affected) {
      if (a.first > 0) {
        put(out, "injector.affected_per_trial." + model,
            double(a.second) / double(a.first), "count");
      }
    }
  }

  const Context& ctx_;
  std::vector<CampaignCase> cases_;
  std::vector<CaseState> states_;
  std::unique_ptr<ge::data::SyntheticVision> data_;
  ge::data::Batch batch_;
  std::map<std::string, ModelState> models_;
  Accumulators acc_;
};

class OfflineCampaigns final : public CampaignWorkload {
 public:
  using CampaignWorkload::CampaignWorkload;

  void attribute(const LoopResult& plain, const LoopResult& traced,
                 Metrics& out) override {
    CampaignWorkload::attribute(plain, traced, out);
    if (acc_.requests > 0) {
      put(out, "campaign.prefix_cache_mb",
          double(ge::obs::counter_value(
              ge::obs::Counter::kPrefixCacheBytes)) /
              double(acc_.requests) / (1024.0 * 1024.0),
          "MB");
    }
  }
};

ge::net::CampaignSpecMsg spec_of(const CampaignCase& c) {
  ge::net::CampaignSpecMsg s;
  s.model_name = c.model;
  s.epochs = 6;
  s.samples = kCampaignSamples;
  s.format_spec = c.cfg.format_spec;
  s.site = static_cast<uint8_t>(c.cfg.site);
  s.error_model = static_cast<uint8_t>(c.cfg.model);
  s.injections_per_layer = c.cfg.injections_per_layer;
  s.seed = c.cfg.seed;
  s.ber = c.cfg.ber;
  s.prefix_cache = c.cfg.use_prefix_cache ? 1 : 0;
  return s;
}

std::optional<uint64_t> parse_digest(const std::string& text) {
  static constexpr char kTag[] = "campaign digest: 0x";
  const size_t p = text.rfind(kTag);
  if (p == std::string::npos) return std::nullopt;
  return std::strtoull(text.c_str() + p + sizeof(kTag) - 1, nullptr, 16);
}

/// served_flip: the tiny_resnet flip campaign through an in-process
/// net::Server with one in-process worker, submitted again and again by one
/// closed-loop caller. Exactly two loopback connections are open at any
/// time: the worker's, and the current campaign's submit connection.
class ServedFlip final : public CampaignWorkload {
 public:
  explicit ServedFlip(const Context& ctx)
      : CampaignWorkload(ctx, {served_case(ctx.variant)}) {}

  void prepare_run(Tally& tally) override {
    CampaignWorkload::prepare_run(tally);
    // served == offline: the offline digest is pinned; without a pin it is
    // computed here, outside the timed region.
    offline_ = states_[0].pin;
    if (!offline_) {
      const CampaignOutcome o = run_offline(
          *models_.at(cases_[0].model).net, batch_, cases_[0], nullptr);
      if (o.ok) offline_ = o.digest;
    }
  }

  LoopResult run(double seconds, int64_t rounds, Tally& tally) override {
    acc_ = Accumulators{};
    rows_ = RowStats{};
    LoopResult r;
    const CampaignCase& c = cases_[0];
    const ModelState& ms = models_.at(c.model);
    const int64_t expected =
        static_cast<int64_t>(ms.sites.size()) * c.cfg.injections_per_layer;
    const auto t0 = Clock::now();
    for (const ServedRun& s : run_served(ctx_, c, seconds, rounds)) {
      bool ok = s.ok;
      std::string why = s.error;
      if (ok && s.rows.trials != expected) {
        ok = false;
        why = "served: streamed " + std::to_string(s.rows.trials) + " of " +
              std::to_string(expected) + " trial rows";
      } else if (ok && (!offline_ || *offline_ != s.digest)) {
        ok = false;
        why = "served digest " + hex(s.digest) + " != offline digest";
      }
      tally.record(expected, ok, why);
      const int64_t done = ok ? expected : s.rows.trials;
      r.ops += done;
      RoundStats& round = r.per_round.emplace_back();
      round.wall_s = s.latency_ms / 1e3;
      round.items = static_cast<double>(done);
      round.latency_ms.push_back(s.latency_ms);
      round.first_row_ms.push_back(s.first_row_ms);
      note_rows(c.model, ms, s.rows.trials, s.rows);
      rows_.trials += s.rows.trials;
      rows_.bytes += s.rows.bytes;
    }
    r.wall_s = ms_since(t0) / 1e3;
    return r;
  }

  void attribute(const LoopResult& plain, const LoopResult& traced,
                 Metrics& out) override {
    campaign_attribution(out);
    // Counters first: the offline comparison below records its own.
    net_attribution(traced.rounds(), rows_, out);
    const CampaignCase& c = cases_[0];
    const auto t0 = Clock::now();
    run_offline(*models_.at(c.model).net, batch_, c, nullptr);
    const double offline_ms = ms_since(t0);
    std::vector<double> served_ms;
    for (const RoundStats& round : plain.per_round) {
      served_ms.push_back(round.latency_ms.front());
    }
    put(out, "net.served_overhead_x", median(served_ms) / offline_ms, "x");
  }

 private:
  std::optional<uint64_t> offline_;
  RowStats rows_;  ///< trial rows and bytes of the last loop's campaigns
};

}  // namespace

void net_attribution(int64_t campaigns, const RowStats& rows, Metrics& out) {
  using ge::obs::Counter;
  const double n = double(std::max<int64_t>(campaigns, 1));
  put(out, "net.frames_per_campaign",
      double(ge::obs::counter_value(Counter::kNetFramesSent)) / n, "count");
  put(out, "net.bytes_per_trial",
      rows.trials > 0 ? double(rows.bytes) / double(rows.trials) : 0.0, "B");
  put(out, "net.leases_granted",
      double(ge::obs::counter_value(Counter::kNetLeasesGranted)) / n, "count");
  put(out, "net.lease_reclaims",
      double(ge::obs::counter_value(Counter::kNetLeaseReclaims)), "count");
  double wait_ns = 0.0;
  int64_t waits = 0;
  for (const auto& ev : ge::obs::collect_trace()) {
    if (ev.name == "queue_wait") {
      wait_ns += double(ev.dur_ns);
      ++waits;
    }
  }
  put(out, "net.queue_wait_ms", waits > 0 ? wait_ns / 1e6 / double(waits) : 0.0,
      "ms");
}

std::vector<ServedRun> run_served(const Context& ctx, const CampaignCase& c,
                                  double seconds, int64_t campaigns) {
  std::vector<ServedRun> runs;
  ge::net::ServeOptions so;
  so.cache_dir = ctx.opt.cache_dir;
  so.checkpoint_dir = ctx.opt.scratch_dir;
  // The worker starts heartbeating only once it has prepared its model,
  // which on the shared in-process pool can take longer than the 5 s
  // default; a reclaim there would re-run the range, not measure it.
  so.lease_timeout_ms = 30000;
  ge::net::Server server(so, nullptr);
  if (!server.ok()) {
    runs.emplace_back().error = "serve: " + server.last_error();
    return runs;
  }
  std::string server_error, worker_error;
  std::thread srv([&] {
    try {
      server.run();
    } catch (const std::exception& e) {
      server_error = e.what();
    }
  });
  std::thread wrk([&] {
    ge::net::WorkerOptions wo;
    wo.port = server.port();
    wo.cache_dir = ctx.opt.cache_dir;
    wo.client_name = "perfbench-worker";
    // Poll often, so when the worker joins a campaign does not depend on
    // the phase of a 200 ms poll.
    wo.poll_ms = 20;
    std::ostringstream wout, werr;
    try {
      if (ge::net::run_worker(wo, wout, werr) != 0) worker_error = werr.str();
    } catch (const std::exception& e) {
      worker_error = e.what();
    }
  });

  ge::net::SubmitOptions sub;
  sub.port = server.port();
  sub.spec = spec_of(c);
  sub.client_name = "perfbench-submit";
  const auto start = Clock::now();
  for (int64_t k = 0;; ++k) {
    if (campaigns > 0 ? k >= campaigns
                      : k > 0 && ms_since(start) >= seconds * 1e3) {
      break;
    }
    ServedRun& out = runs.emplace_back();
    RowStream rows;
    ge::obs::RunLog report(rows);
    std::ostringstream sout, serr;
    const auto t0 = Clock::now();
    int rc = 1;
    try {
      rc = ge::net::run_submit(sub, &report, sout, serr);
    } catch (const std::exception& e) {
      serr << e.what();
    }
    out.latency_ms = ms_since(t0);
    out.rows = rows.stats();
    out.first_row_ms = out.rows.have_first
                           ? ms_between(t0, out.rows.first_row)
                           : out.latency_ms;
    const auto digest = parse_digest(sout.str());
    out.ok = rc == 0 && digest.has_value();
    out.digest = digest.value_or(0);
    if (!out.ok) out.error = "served campaign failed: " + serr.str();
    if (!out.ok) break;
  }
  server.request_stop();
  wrk.join();
  srv.join();
  if (!worker_error.empty() || !server_error.empty()) {
    for (ServedRun& r : runs) {
      r.ok = false;
      r.error += worker_error + server_error;
    }
  }
  return runs;
}

std::unique_ptr<Workload> make_campaign_flip(const Context& ctx) {
  return std::make_unique<OfflineCampaigns>(ctx, flip_cases(ctx.variant));
}

std::unique_ptr<Workload> make_campaign_ber(const Context& ctx) {
  return std::make_unique<OfflineCampaigns>(ctx, ber_cases(ctx.variant));
}

std::unique_ptr<Workload> make_served_flip(const Context& ctx) {
  return std::make_unique<ServedFlip>(ctx);
}

void print_pins(const Context& ctx) {
  print_fig3_pins(ctx);
  const ge::data::SyntheticVision data{ge::data::SyntheticVisionConfig{}};
  const ge::data::Batch batch = campaign_batch(data);
  std::map<std::string, std::unique_ptr<ge::nn::Module>> nets;
  std::map<std::string, bool> golden_done;
  for (int v = 0; v < kVariants; ++v) {
    std::vector<CampaignCase> cases = flip_cases(v);
    cases.push_back(served_case(v));
    for (const CampaignCase& c : ber_cases(v)) cases.push_back(c);
    for (const CampaignCase& c : cases) {
      auto& net = nets[c.model];
      if (!net) net = load_trained(ctx.opt.cache_dir, c.model);
      const std::string gkey = golden_key(c.model, c.cfg.format_spec);
      if (!golden_done[gkey]) {
        golden_done[gkey] = true;
        ge::core::EmulatorConfig ecfg;
        ecfg.format_spec = c.cfg.format_spec;
        ge::core::Emulator emu(*net, ecfg);
        std::printf("%s %s\n", gkey.c_str(),
                    hex(logits_digest((*net)(batch.images))).c_str());
      }
      if (!pinned_model(c.cfg.model)) continue;
      const CampaignOutcome o = run_offline(*net, batch, c, nullptr);
      if (!o.ok) throw std::runtime_error(o.why);
      std::printf("%s %s\n", c.key().c_str(), hex(o.digest).c_str());
      std::fflush(stdout);
    }
  }
}

}  // namespace perfbench
