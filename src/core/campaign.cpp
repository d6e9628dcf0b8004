#include "core/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "formats/format_registry.hpp"
#include "io/campaign_state.hpp"
#include "nn/loss.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/run_log.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/tensor_ops.hpp"

namespace ge::core {

double CampaignResult::network_mean_delta_loss() const {
  if (layers.empty()) return 0.0;
  double s = 0.0;
  for (const auto& l : layers) s += l.mean_delta_loss;
  return s / static_cast<double>(layers.size());
}

int64_t CampaignProgress::completed_trials() const {
  int64_t n = 0;
  for (const auto& l : layers) {
    for (uint8_t d : l.done) n += d;
  }
  return n;
}

int64_t CampaignProgress::total_trials() const {
  int64_t n = 0;
  for (const auto& l : layers) n += static_cast<int64_t>(l.done.size());
  return n;
}

namespace {

/// One instrumented model a worker slot runs trials on. Slot 0 wraps the
/// caller's model; other slots own a replica.
struct WorkerCtx {
  std::unique_ptr<nn::Module> owned;  ///< replicas only; null for slot 0
  nn::Module* model = nullptr;
  std::unique_ptr<Emulator> emu;
  std::unique_ptr<Injector> inj;
  /// This slot's golden-prefix replay plan (keyed to its own module tree);
  /// null when the cache is off or unusable.
  const nn::ReplayPlan* plan = nullptr;
  /// This slot's copy of the module where sliced replays widen back to
  /// the full batch; null when they never do.
  const nn::Module* widen_at = nullptr;
};

/// Copy parameter and buffer values from `src` into `dst` positionally
/// (both trees enumerate depth-first in registration order).
void copy_state(nn::Module& src, nn::Module& dst) {
  const auto sp = src.parameters();
  const auto dp = dst.parameters();
  const auto sb = src.buffers();
  const auto db = dst.buffers();
  if (sp.size() != dp.size() || sb.size() != db.size()) {
    throw std::invalid_argument(
        "run_campaign: make_replica produced a model with a different "
        "parameter/buffer count than the primary");
  }
  for (size_t i = 0; i < sp.size(); ++i) {
    if (sp[i]->value.shape() != dp[i]->value.shape()) {
      throw std::invalid_argument(
          "run_campaign: replica parameter shape mismatch at '" +
          sp[i]->name + "'");
    }
    dp[i]->value = sp[i]->value;
  }
  for (size_t i = 0; i < sb.size(); ++i) {
    db[i]->value = sb[i]->value;
  }
}

/// Whether a campaign over `cfg` injects at `site`: the layer filter, and
/// no metadata campaign on a value-only format.
bool campaigned(const LayerSite& site, const CampaignConfig& cfg) {
  if (!cfg.layers.empty() &&
      std::find(cfg.layers.begin(), cfg.layers.end(), site.path) ==
          cfg.layers.end()) {
    return false;
  }
  return cfg.site != InjectionSite::kMetadata ||
         site.act_format->has_metadata();
}

/// Per-trial observations captured by the worker that ran the trial.
/// Workers write disjoint slots; the sequential post-block section turns
/// them into "trial" records and histogram samples in ascending trial
/// order, so the analytics stream is deterministic at any thread count.
struct TrialMeta {
  int64_t element = -1;
  int bit = -1;  ///< first perturbed bit position (LSB = 0)
  int64_t affected = 0;  ///< elements the primary fault perturbed
  std::string metadata_field;
  int64_t metadata_index = -1;
  float value_before = 0.0f;
  float value_after = 0.0f;
  int64_t sample = 0;  ///< first sample whose top-1 moved, else sample 0
  int64_t golden_top1 = -1;
  int64_t faulty_top1 = -1;
  int64_t latency_ns = 0;  ///< arm -> disarm, one full faulty inference
  bool fired = false;
};

/// Whether every trial of `cfg` is one fault that reaches a single sample
/// wherever its registers do: one activation element (flip, stuck-at,
/// burst), one row, or one metadata register (flip, stuck-at).
bool single_sample_faults(const CampaignConfig& cfg) {
  if (cfg.site == InjectionSite::kWeightValue || cfg.sites_per_trial != 1) {
    return false;
  }
  switch (cfg.model) {
    case ErrorModel::kBitFlip:
    case ErrorModel::kStuckAt0:
    case ErrorModel::kStuckAt1: return true;
    case ErrorModel::kBurst:
    case ErrorModel::kRowBurst:
      return cfg.site == InjectionSite::kActivationValue;
    default: return false;
  }
}

/// The first instrumented site, in execution order, where one metadata
/// register of its recorded output covers elements of two samples: the
/// register span does not divide the per-sample element count. Null when
/// no site couples samples (always so under value-only formats).
const LayerSite* coupling_site(const std::vector<LayerSite>& sites,
                               const nn::ReplayPlan& plan, int64_t batch) {
  const LayerSite* first = nullptr;
  for (const LayerSite& site : sites) {
    const Tensor* y = plan.recorded_output(*site.module);
    if (y == nullptr || y->numel() == 0) continue;
    const int64_t n = y->numel();
    if (n % batch == 0 &&
        (n / batch) % site.act_format->register_span(n) == 0) {
      continue;
    }
    // Distinct sites never nest, so one completes before the other enters.
    if (first == nullptr || plan.skipped_for(*first->module, *site.module)) {
      first = &site;
    }
  }
  return first;
}

/// Whether an unarmed replay from `site` of the last sample, widened as
/// `slice` says, reproduces `golden` (the recorded logits) bitwise. A
/// replay that throws — a batch-1 tensor meeting a full-batch one in the
/// glue of a module that contains the widen point — does not.
bool widened_replay_exact(nn::Module& model, const nn::ReplayPlan& plan,
                          const nn::Module& site, const Tensor& images,
                          const nn::SampleSlice& slice, const Tensor& golden) {
  Tensor y;
  try {
    y = model.forward_from(plan, site, images, nullptr, slice);
  } catch (const std::exception&) {
    return false;
  }
  return y.shape() == golden.shape() &&
         std::memcmp(y.cdata(), golden.cdata(),
                     static_cast<size_t>(y.numel()) * sizeof(float)) == 0;
}

/// Whether `model` keeps the samples of `images` apart up to `widen_at`
/// (the whole forward when null): in a golden forward of the last sample
/// alone, every module that completes before widen_at enters must output,
/// bitwise and in shape, that sample's rows of the module's record in
/// `plan`, which recorded the whole batch. A record whose first extent is
/// not a multiple of the batch fails. Nothing is armed, so this is the
/// golden forward at batch 1. Outputs are compared as they are produced,
/// by a forward hook on each compared module, so the check never holds a
/// second set of activations next to the golden plan.
bool separable_by_sample(nn::Module& model, const nn::ReplayPlan& plan,
                         const Tensor& images, const nn::Module* widen_at) {
  const int64_t batch = images.size(0);
  int64_t compared = 0;
  bool same = true;
  struct Hooks {
    std::vector<std::pair<nn::Module*, nn::Module::HookHandle>> list;
    ~Hooks() {
      for (const auto& [m, handle] : list) m->remove_hook(handle);
    }
  } hooks;
  for (const auto& [path, m] : model.named_modules()) {
    const Tensor* full = plan.recorded_output(*m);
    if (full == nullptr ||
        (widen_at != nullptr && !plan.skipped_for(*widen_at, *m))) {
      continue;
    }
    hooks.list.emplace_back(
        m, m->add_forward_hook([&, full](nn::Module&, Tensor& row) {
          ++compared;
          Shape cut = full->shape();
          if (cut.empty() || cut[0] % batch != 0) {
            same = false;
            return;
          }
          cut[0] /= batch;
          const int64_t n = row.numel();
          if (row.shape() != cut ||
              (n > 0 &&
               std::memcmp(full->cdata() + (batch - 1) * n, row.cdata(),
                           static_cast<size_t>(n) * sizeof(float)) != 0)) {
            same = false;
          }
        }));
  }
  (void)model(nn::sample_rows(images, batch - 1, batch));
  return same && compared == static_cast<int64_t>(hooks.list.size());
}

/// A sliced trial's full-batch logits: `golden` with row `sample` replaced
/// by the replay's batch-1 `row`. The rows the fault cannot reach are the
/// golden rows bitwise, so these are the logits a full-batch replay gives.
Tensor splice_sample(const Tensor& golden, const Tensor& row, int64_t sample) {
  Tensor out = golden;
  std::copy_n(row.cdata(), row.numel(), out.data() + sample * row.numel());
  return out;
}

/// Validate a loaded checkpoint against the state a fresh run of this
/// campaign would produce, then splice its completed trials into `fresh`.
/// Any disagreement means the file belongs to a different campaign (or a
/// different model/batch) and resuming would silently mix statistics, so
/// it is a hard IoError.
void apply_resume(CampaignProgress& fresh, const CampaignProgress& saved) {
  const auto fail = [](const std::string& what) {
    throw io::IoError(
        "resume: checkpoint does not match this campaign (different " +
        what + ")");
  };
  if (saved.format_spec != fresh.format_spec) fail("format");
  if (saved.site != fresh.site) fail("injection site");
  if (saved.model != fresh.model) fail("error model");
  if (saved.injections_per_layer != fresh.injections_per_layer) {
    fail("injections per layer");
  }
  if (saved.num_bits != fresh.num_bits) fail("bits per injection");
  if (saved.seed != fresh.seed) fail("seed");
  if (saved.shards != fresh.shards || saved.shard_index != fresh.shard_index) {
    fail("shard partition");
  }
  if (saved.sites_per_trial != fresh.sites_per_trial) {
    fail("sites per trial");
  }
  if (!(saved.ber == fresh.ber)) fail("bit error rate");
  if (saved.burst_len != fresh.burst_len) fail("burst length");
  if (uses_ber_sampler(fresh.model, fresh.ber) &&
      saved.ber_sampler != fresh.ber_sampler) {
    fail("ber draw order");
  }
  if (saved.model_name != fresh.model_name) fail("model");
  if (saved.eval_samples != fresh.eval_samples) fail("sample count");
  // Bitwise: any change to weights, batch, or kernels shows up here. The
  // logit digest is the real tripwire — accuracy over a small batch is
  // quantised coarsely enough for two different models to tie.
  if (!(saved.golden_accuracy == fresh.golden_accuracy) ||
      saved.golden_digest != fresh.golden_digest) {
    fail("golden reference — model weights or evaluation batch changed");
  }
  if (saved.layers.size() != fresh.layers.size()) fail("layer set");
  for (size_t i = 0; i < fresh.layers.size(); ++i) {
    const LayerProgress& sl = saved.layers[i];
    LayerProgress& fl = fresh.layers[i];
    if (sl.site_index != fl.site_index || sl.path != fl.path ||
        sl.done.size() != fl.done.size() ||
        sl.outcomes.size() != sl.done.size()) {
      fail("layer '" + fl.path + "'");
    }
    fl.done = sl.done;
    fl.outcomes = sl.outcomes;
  }
  obs::add(obs::Counter::kCampaignResumes);
  obs::log(1, "campaign: resumed from checkpoint with " +
                  std::to_string(fresh.completed_trials()) + "/" +
                  std::to_string(fresh.total_trials()) + " trials done");
}

}  // namespace

/// Everything a CampaignSession prepares once. Declaration order is
/// teardown order reversed: the plans (which key on replica modules) go
/// before the worker contexts, whose emulators restore the models.
struct CampaignSession::State {
  data::Batch batch;  ///< O(1) share of the caller's batch
  CampaignConfig cfg;
  std::vector<WorkerCtx> ctxs;
  nn::ReplayPlan plan0;
  GoldenRun golden;
  std::vector<nn::ReplayPlan> rplans;
  bool cache_on = false;
  /// Sample-sliced replay (DESIGN.md §10): a trial at a site that
  /// completes before `widen_at` enters (any site when it is null) replays
  /// only the sample its fault reaches.
  bool sliced = false;
  /// The primary model's widen point, where sliced replays return to the
  /// full batch (null: they never do), and its golden input.
  const nn::Module* widen_at = nullptr;
  Tensor widen_input;
  /// Campaigned layers, as indices into the primary emulator's sites().
  std::vector<size_t> layer_sites;

  void prepare_slicing(nn::Module& model);
};

/// Decide which trials replay one sample. A single-sample fault leaves
/// every other sample's rows golden up to the first site W whose metadata
/// registers couple two samples. The widen point A is W, or the innermost
/// module containing W whose glue accepts a widened input: an unarmed
/// replay of the last sample that widens at A must give the golden logits
/// bitwise. Every module completing before A enters must also keep the
/// samples apart, which one batch-1 golden forward checks. With no W, the
/// replay stays at batch 1 to the end.
void CampaignSession::State::prepare_slicing(nn::Module& model) {
  const std::vector<LayerSite>& sites = ctxs[0].emu->sites();
  const Tensor& images = batch.images;
  const int64_t bsz = images.size(0);
  std::string a_path;
  Tensor a_input;
  if (const LayerSite* w = coupling_site(sites, plan0, bsz)) {
    // Candidates from W outward; the root never qualifies, as nothing
    // completes before it enters.
    for (std::string path = w->path;;) {
      const nn::Module& cand = *model.find_module(path);
      // The check replays from a campaigned site that completes before
      // cand enters; with none, no trial would slice.
      const auto site = std::find_if(
          layer_sites.begin(), layer_sites.end(), [&](size_t li) {
            return plan0.skipped_for(cand, *sites[li].module);
          });
      if (site == layer_sites.end()) return;
      obs::Span check_span("campaign", "slice_check");
      Tensor input = model.replay_input(plan0, cand, images);
      if (widened_replay_exact(model, plan0, *sites[*site].module, images,
                               {bsz - 1, bsz, &cand, input}, golden.logits)) {
        a_path = path;
        a_input = std::move(input);
        break;
      }
      const size_t dot = path.rfind('.');
      if (dot == std::string::npos) {
        obs::log(1, "campaign: no module containing '" + w->path +
                        "' takes a widened sample; replaying every trial at "
                        "full batch");
        return;
      }
      path.resize(dot);
    }
  }

  obs::Span check_span("campaign", "slice_check");
  const nn::Module* a = a_path.empty() ? nullptr : model.find_module(a_path);
  sliced = separable_by_sample(model, plan0, images, a);
  if (!sliced) {
    obs::log(1,
             "campaign: a batch-1 golden forward differs from its rows of "
             "the batch; replaying every trial at full batch");
    return;
  }
  if (a == nullptr) return;
  widen_at = a;
  widen_input = std::move(a_input);
  // Replicas share module paths with the primary (ReplayPlan::translate
  // checked), so each finds its own copy of A by path.
  for (WorkerCtx& ctx : ctxs) ctx.widen_at = ctx.model->find_module(a_path);
  obs::log(1, "campaign: sliced replays widen to the full batch at '" +
                  a_path + "'");
}

CampaignSession::CampaignSession(nn::Module& model, const data::Batch& batch,
                                 const CampaignConfig& cfg)
    : state_(std::make_unique<State>()) {
  obs::AttrScope campaign_attr(cfg.format_spec, "");
  if (cfg.injections_per_layer < 1) {
    throw std::invalid_argument(
        "CampaignSession: injections_per_layer must be >= 1");
  }
  if (cfg.sites_per_trial < 1) {
    throw std::invalid_argument(
        "CampaignSession: sites_per_trial must be >= 1");
  }
  State& s = *state_;
  s.batch = batch;
  s.cfg = cfg;
  model.eval();
  EmulatorConfig ecfg;
  ecfg.format_spec = cfg.format_spec;

  // Worker contexts. Replicas must be built and given the primary's weights
  // BEFORE the primary is instrumented: quantisation is not idempotent (an
  // int8 scale recomputed from already-quantised data differs), so copying
  // after attach would double-quantise the replicas.
  int nctx = 1;
  if (cfg.make_replica) {
    nctx = std::clamp<int64_t>(
        std::min<int64_t>(parallel::num_threads(), cfg.injections_per_layer),
        1, 64);
  }
  std::vector<WorkerCtx>& ctxs = s.ctxs;
  ctxs.resize(static_cast<size_t>(nctx));
  ctxs[0].model = &model;
  for (int w = 1; w < nctx; ++w) {
    ctxs[static_cast<size_t>(w)].owned = cfg.make_replica();
    ctxs[static_cast<size_t>(w)].model =
        ctxs[static_cast<size_t>(w)].owned.get();
    ctxs[static_cast<size_t>(w)].model->eval();
    copy_state(model, *ctxs[static_cast<size_t>(w)].model);
  }
  ctxs[0].emu = std::make_unique<Emulator>(*ctxs[0].model, ecfg);
  ctxs[0].inj = std::make_unique<Injector>(*ctxs[0].emu, cfg.seed);
  // Replicas share the primary's post-quantisation weight tensors instead
  // of re-quantising their own copies: attach becomes O(1) per parameter
  // and the quantised weights exist once, however many workers run. A
  // trial that corrupts a weight detaches a private copy via COW.
  EmulatorConfig rcfg = ecfg;
  rcfg.weight_source = &model;
  for (int w = 1; w < nctx; ++w) {
    ctxs[static_cast<size_t>(w)].emu =
        std::make_unique<Emulator>(*ctxs[static_cast<size_t>(w)].model, rcfg);
    ctxs[static_cast<size_t>(w)].inj =
        std::make_unique<Injector>(*ctxs[static_cast<size_t>(w)].emu,
                                   cfg.seed);
  }

  // Golden reference *under emulation* (fault-free but format-quantised):
  // faults are measured against the format's own clean behaviour. The
  // replicas share it — identical weights and deterministic kernels make
  // their fault-free logits bitwise equal to the primary's.
  //
  // With the prefix cache on, the same pass also records every module's
  // post-hook output into a ReplayPlan (O(1) COW shares — the plan adds no
  // forward cost), so trials can replay only the suffix from their
  // injection site. The cached tensors are golden state: any in-place
  // write during a trial detaches via copy-on-write because the plan holds
  // a share, so the cache can never be corrupted — nor can a run leave
  // anything behind for the session's next run.
  {
    obs::Span golden_span("campaign", "golden_run");
    s.golden = run_golden(model, s.batch,
                          cfg.use_prefix_cache ? &s.plan0 : nullptr);
  }
  s.cache_on = cfg.use_prefix_cache && s.plan0.usable();
  if (cfg.use_prefix_cache && !s.cache_on) {
    obs::log(1,
             "campaign: prefix cache unusable (a module ran more than once "
             "in the golden forward); falling back to full forwards");
  }
  if (s.cache_on) {
    obs::add(obs::Counter::kPrefixCacheBytes,
             static_cast<uint64_t>(s.plan0.cache_bytes()));
    ctxs[0].plan = &s.plan0;
    // Replica plans re-key the primary's records onto each replica's
    // module tree; the cached tensors themselves are shared, not copied.
    s.rplans.reserve(static_cast<size_t>(nctx - 1));
    for (int w = 1; w < nctx; ++w) {
      s.rplans.push_back(
          s.plan0.translate(model, *ctxs[static_cast<size_t>(w)].model));
    }
    for (int w = 1; w < nctx; ++w) {
      ctxs[static_cast<size_t>(w)].plan =
          &s.rplans[static_cast<size_t>(w - 1)];
    }
  }

  // Enumerate the campaigned sites. Skipped sites still advance the site
  // index, keeping each layer's RNG streams stable under cfg.layers
  // filtering — and stable across save/resume/shard boundaries, since the
  // index is persisted per layer.
  const std::vector<LayerSite>& sites = ctxs[0].emu->sites();
  for (size_t li = 0; li < sites.size(); ++li) {
    if (campaigned(sites[li], cfg)) s.layer_sites.push_back(li);
  }

  if (s.cache_on && single_sample_faults(cfg) && s.batch.images.size(0) > 1) {
    s.prepare_slicing(model);
  }
}

CampaignSession::~CampaignSession() = default;

int64_t CampaignSession::layer_count() const {
  return static_cast<int64_t>(state_->layer_sites.size());
}

CampaignProgress CampaignSession::run(const CampaignRunOptions& opts) {
  const CampaignConfig& cfg = state_->cfg;
  const data::Batch& batch = state_->batch;
  std::vector<WorkerCtx>& ctxs = state_->ctxs;
  const int nctx = static_cast<int>(ctxs.size());
  const nn::ReplayPlan& plan0 = state_->plan0;
  const GoldenRun& golden = state_->golden;
  const bool cache_on = state_->cache_on;
  Emulator& emu = *ctxs[0].emu;
  obs::AttrScope campaign_attr(cfg.format_spec, "");
  if (opts.shards < 1 || opts.shard_index < 0 ||
      opts.shard_index >= opts.shards) {
    throw std::invalid_argument(
        "CampaignSession::run: shard_index must be in [0, shards)");
  }
  if (opts.checkpoint_every < 0 || opts.abort_after < 0) {
    throw std::invalid_argument(
        "CampaignSession::run: checkpoint_every/abort_after must be >= 0");
  }
  if ((opts.checkpoint_every > 0 || opts.abort_after > 0) &&
      opts.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "CampaignSession::run: checkpointing requires a checkpoint_path");
  }
  if (opts.lease_hi >= 0 && (opts.lease_lo < 0 || opts.lease_lo > opts.lease_hi)) {
    throw std::invalid_argument(
        "CampaignSession::run: lease range must satisfy 0 <= lease_lo <= "
        "lease_hi");
  }
  const int64_t nT = cfg.injections_per_layer;

  CampaignProgress prog;
  prog.format_spec = cfg.format_spec;
  prog.site = cfg.site;
  prog.model = cfg.model;
  prog.injections_per_layer = nT;
  prog.num_bits = cfg.num_bits;
  prog.seed = cfg.seed;
  prog.shards = opts.shards;
  prog.shard_index = opts.shard_index;
  prog.sites_per_trial = cfg.sites_per_trial;
  prog.ber = cfg.ber;
  prog.burst_len = cfg.burst_len;
  prog.model_name = opts.model_name;
  prog.eval_samples = opts.eval_samples;
  prog.golden_accuracy = nn::accuracy(golden.logits, batch.labels);
  prog.golden_digest =
      fnv1a(kFnv1aBasis, golden.logits.cdata(),
            static_cast<size_t>(golden.logits.numel()) * sizeof(float));
  prog.layers.reserve(state_->layer_sites.size());
  for (size_t li : state_->layer_sites) {
    LayerProgress lp;
    lp.site_index = li;
    lp.path = emu.sites()[li].path;
    lp.done.assign(static_cast<size_t>(nT), 0);
    lp.outcomes.assign(static_cast<size_t>(nT), FaultOutcome{});
    prog.layers.push_back(std::move(lp));
  }

  if (opts.resume_from != nullptr) apply_resume(prog, *opts.resume_from);

  // A lease ending past the campaign means the lessor sized the trial
  // space against a different model or layer set — reject loudly rather
  // than silently running a truncated lease.
  const bool leased = opts.lease_hi >= 0;
  if (leased &&
      opts.lease_hi > static_cast<int64_t>(prog.layers.size()) * nT) {
    throw std::invalid_argument(
        "CampaignSession::run: lease_hi " + std::to_string(opts.lease_hi) +
        " exceeds the campaign's " +
        std::to_string(static_cast<int64_t>(prog.layers.size()) * nT) +
        " trials");
  }
  // The one trial selection: this run executes trial ti of the layer at
  // campaign position lpos when its shard owns ti, its lease holds the
  // global index lpos * nT + ti, and no resumed progress has done it.
  // One scan builds every layer's pending list.
  std::vector<std::vector<int64_t>> selected(prog.layers.size());
  int64_t hb_total = 0;
  for (size_t lpos = 0; lpos < prog.layers.size(); ++lpos) {
    const std::vector<uint8_t>& done = prog.layers[lpos].done;
    for (int64_t ti = 0; ti < nT; ++ti) {
      const int64_t g = static_cast<int64_t>(lpos) * nT + ti;
      if ((opts.shards <= 1 || ti % opts.shards == opts.shard_index) &&
          (!leased || (g >= opts.lease_lo && g < opts.lease_hi)) &&
          done[static_cast<size_t>(ti)] == 0) {
        selected[lpos].push_back(ti);
      }
    }
    hb_total += static_cast<int64_t>(selected[lpos].size());
  }

  // Analytics are capture-gated: with no report stream and metrics off the
  // trial loop does no clock reads, no meta copies, and no histogram
  // lookups. When on, workers record into disjoint TrialMeta slots and the
  // sequential post-block section emits everything in ascending trial
  // order — observation only, never an input to any trial.
  const bool capture = opts.run_log != nullptr || obs::metrics_enabled();
  const bool heartbeat_on =
      opts.run_log != nullptr || obs::metrics_enabled() || obs::log_level() >= 1;
  const int64_t run_t0 = heartbeat_on ? obs::now_ns() : 0;
  obs::Histogram* h_latency = nullptr;
  obs::Histogram* h_delta = nullptr;
  obs::Histogram* h_bits = nullptr;
  obs::Histogram* h_bit_sdc = nullptr;
  if (capture) {
    h_latency = &obs::histogram("campaign.trial_latency_us");
    h_delta = &obs::histogram("campaign.trial_delta_loss");
    h_bits = &obs::histogram("campaign.bit_flips");
    h_bit_sdc = &obs::histogram("campaign.bit_sdc");
  }

  // Every random choice of trial ti at site li draws from the child stream
  // (seed, li * nT + ti): outcomes are a pure function of the trial id, so
  // any worker may run any trial in any order — across threads, process
  // restarts, and shards — and the aggregate matches the serial path
  // bitwise.
  const Rng base(cfg.seed);
  int64_t executed = 0;
  bool aborted = false;

  for (LayerProgress& lp : prog.layers) {
    const std::vector<int64_t>& pending = selected[&lp - prog.layers.data()];
    if (pending.empty()) continue;
    LayerSite& site = emu.sites()[static_cast<size_t>(lp.site_index)];

    // Companion pool for multi-point trials: instrumented sites strictly
    // after the campaigned one (disjoint suffix segments — a companion
    // never perturbs state the primary fault's own layer consumes).
    // Metadata campaigns keep only metadata-capable formats, mirroring the
    // primary-site filter above.
    std::vector<size_t> companions;
    if (cfg.sites_per_trial > 1) {
      companions.reserve(emu.sites().size());
      for (size_t lj = static_cast<size_t>(lp.site_index) + 1;
           lj < emu.sites().size(); ++lj) {
        if (cfg.site == InjectionSite::kMetadata &&
            !emu.sites()[lj].act_format->has_metadata()) {
          continue;
        }
        companions.push_back(lj);
      }
    }
    const int64_t want_comp = std::min<int64_t>(
        cfg.sites_per_trial - 1, static_cast<int64_t>(companions.size()));

    // Suffix replay is exact only if every fault of the trial re-executes:
    // a companion the plan would serve from cache (possible only if
    // site-registration order diverges from execution order) silently
    // drops its fault, so such layers run full forwards instead. The
    // companion pool itself never depends on the cache mode — cache on and
    // off stay bitwise identical.
    bool layer_cache_on = cache_on;
    if (layer_cache_on) {
      for (size_t lj : companions) {
        if (plan0.skipped_for(*site.module, *emu.sites()[lj].module)) {
          layer_cache_on = false;
          break;
        }
      }
    }

    InjectionSpec layer_spec;
    layer_spec.layer_path = site.path;
    layer_spec.site = cfg.site;
    layer_spec.model = cfg.model;
    layer_spec.num_bits = cfg.num_bits;
    layer_spec.ber = cfg.ber;
    layer_spec.burst_len = cfg.burst_len;

    // A sliced layer — its site completes before the widen point, if any —
    // maps each trial's target (element, row or register of the site's
    // golden output) to the sample holding it: `per_sample` targets each,
    // sample_numel elements each. 0 = full-batch replays.
    const int64_t batch_size = batch.images.size(0);
    const bool layer_sliced =
        state_->sliced && (state_->widen_at == nullptr ||
                           plan0.skipped_for(*state_->widen_at, *site.module));
    const Tensor* site_golden =
        layer_sliced ? plan0.recorded_output(*site.module) : nullptr;
    const int64_t targets =
        site_golden != nullptr
            ? target_count(layer_spec, *site_golden, *site.act_format)
            : 0;
    const int64_t per_sample =
        targets % batch_size == 0 ? targets / batch_size : 0;
    const int64_t sample_numel =
        site_golden != nullptr ? site_golden->numel() / batch_size : 0;

    obs::Span layer_span("campaign", "layer", site.path);
    const int64_t layer_t0 = obs::metrics_enabled() ? obs::now_ns() : 0;
    int64_t layer_done = 0;

    const int64_t block = opts.checkpoint_every > 0
                              ? opts.checkpoint_every
                              : static_cast<int64_t>(pending.size());
    for (size_t start = 0; start < pending.size() && !aborted;
         start += static_cast<size_t>(block)) {
      const int64_t cnt = std::min<int64_t>(
          block, static_cast<int64_t>(pending.size() - start));
      std::vector<TrialMeta> metas;
      if (capture) metas.assign(static_cast<size_t>(cnt), TrialMeta{});
      parallel::parallel_for_workers(
          0, cnt, /*grain=*/1, nctx, [&](int slot, int64_t lo, int64_t hi) {
            WorkerCtx& ctx = ctxs[static_cast<size_t>(slot)];
            for (int64_t k = lo; k < hi; ++k) {
              const int64_t ti = pending[start + static_cast<size_t>(k)];
              // Worker threads don't inherit the campaign's AttrScope
              // (attribution is thread-local): re-establish it per trial.
              obs::AttrScope trial_attr(cfg.format_spec, site.path);
              obs::Span trial_span("campaign", "trial");
              const int64_t trial_t0 = capture ? obs::now_ns() : 0;
              InjectionSpec spec = layer_spec;
              Rng trial_rng =
                  base.child(lp.site_index * static_cast<uint64_t>(nT) +
                             static_cast<uint64_t>(ti));
              // A sliced trial draws its target ahead of the hook, from
              // the same stream and the full-batch shape, and arms the
              // rest of the fault with the advanced stream.
              nn::SampleSlice slice;
              if (per_sample > 0) {
                const int64_t target = draw_target(spec, *site_golden,
                                                   *site.act_format, trial_rng);
                slice = {target / per_sample, batch_size, ctx.widen_at,
                         state_->widen_input};
                if (cfg.site == InjectionSite::kMetadata) {
                  spec.metadata_index = target % per_sample;
                } else {
                  spec.element = target % per_sample;
                }
              }
              if (want_comp == 0) {
                ctx.inj->arm(spec, trial_rng);
              } else {
                // Companion selection draws from the trial stream before
                // the injector copies it, so every random choice of the
                // trial — selection included — is a pure function of
                // (seed, site index, trial index).
                std::vector<size_t> chosen;
                chosen.reserve(static_cast<size_t>(want_comp));
                while (static_cast<int64_t>(chosen.size()) < want_comp) {
                  const size_t pick = companions[static_cast<size_t>(
                      trial_rng.randint(
                          0, static_cast<int64_t>(companions.size()) - 1))];
                  if (std::find(chosen.begin(), chosen.end(), pick) ==
                      chosen.end()) {
                    chosen.push_back(pick);
                  }
                }
                std::sort(chosen.begin(), chosen.end());
                std::vector<InjectionSpec> specs;
                specs.reserve(1 + static_cast<size_t>(want_comp));
                specs.push_back(spec);
                for (size_t lj : chosen) {
                  InjectionSpec cspec = spec;
                  cspec.layer_path = emu.sites()[lj].path;
                  specs.push_back(std::move(cspec));
                }
                ctx.inj->arm_multi(specs, trial_rng);
              }
              Tensor logits;
              if (layer_cache_on) {
                // Suffix replay: the prefix is served from the recorded
                // golden activations; only the site, its ancestors, and
                // the layers after it recompute.
                obs::Span replay_span("campaign", "suffix_replay");
                int64_t served = 0;
                logits = ctx.model->forward_from(
                    *ctx.plan,
                    *ctx.emu->sites()[static_cast<size_t>(lp.site_index)]
                         .module,
                    batch.images, &served, slice);
                obs::add(obs::Counter::kPrefixCacheHits);
                obs::add(obs::Counter::kSuffixLayersSkipped,
                         static_cast<uint64_t>(served));
                if (slice.batch > 1) {
                  // A widened replay already returns the full batch.
                  if (slice.widen_at == nullptr) {
                    logits = splice_sample(golden.logits, logits, slice.index);
                  }
                  obs::add(obs::Counter::kSlicedReplays);
                }
              } else {
                logits = (*ctx.model)(batch.images);
              }
              lp.outcomes[static_cast<size_t>(ti)] =
                  compare_to_golden(golden, logits, batch.labels);
              ctx.inj->disarm();
              if (capture) {
                // disarm() keeps last_record(): read the resolved random
                // choices after timing the full arm -> disarm trial.
                TrialMeta& m = metas[static_cast<size_t>(k)];
                m.latency_ns = obs::now_ns() - trial_t0;
                if (const auto& rec = ctx.inj->last_record()) {
                  m.fired = true;
                  m.element = rec->element;
                  m.bit = rec->bits.empty() ? -1 : rec->bits.front();
                  m.affected = rec->affected;
                  m.metadata_field = rec->metadata_field;
                  m.metadata_index = rec->metadata_index;
                  // Report a sliced trial as the full batch sees it.
                  if (slice.batch > 1 && m.element >= 0) {
                    m.element += slice.index * sample_numel;
                  }
                  if (slice.batch > 1 && m.metadata_index >= 0) {
                    m.metadata_index += slice.index * per_sample;
                    m.affected = site_golden->numel();  // the re-decode
                  }
                  m.value_before = rec->value_before;
                  m.value_after = rec->value_after;
                }
                const std::vector<int64_t> top1 = ops::argmax_rows(logits);
                const auto moved = std::mismatch(top1.begin(), top1.end(),
                                                 golden.predictions.begin());
                if (moved.first != top1.end()) {
                  m.sample = moved.first - top1.begin();
                }
                m.golden_top1 =
                    golden.predictions[static_cast<size_t>(m.sample)];
                m.faulty_top1 = top1[static_cast<size_t>(m.sample)];
              }
            }
          });
      for (int64_t k = 0; k < cnt; ++k) {
        lp.done[static_cast<size_t>(pending[start + static_cast<size_t>(k)])] =
            1;
      }
      executed += cnt;
      layer_done += cnt;
      obs::add(obs::Counter::kTrials, static_cast<uint64_t>(cnt));
      if (capture) {
        for (int64_t k = 0; k < cnt; ++k) {
          const int64_t ti = pending[start + static_cast<size_t>(k)];
          const FaultOutcome& o = lp.outcomes[static_cast<size_t>(ti)];
          const TrialMeta& m = metas[static_cast<size_t>(k)];
          h_latency->record(static_cast<double>(m.latency_ns) / 1000.0);
          h_delta->record(static_cast<double>(o.delta_loss));
          if (m.bit >= 0) {
            h_bits->record(static_cast<double>(m.bit));
            if (o.sdc) h_bit_sdc->record(static_cast<double>(m.bit));
          }
          if (opts.run_log != nullptr) {
            obs::JsonObject row;
            row.str("layer", lp.path)
                .num("site_index", lp.site_index)
                .num("trial", ti)
                .str("site", to_string(cfg.site))
                .str("error_model", to_string(cfg.model))
                .num("element", m.element)
                .num("bit", static_cast<int64_t>(m.bit))
                .num("affected", m.affected);
            if (!m.metadata_field.empty()) {
              row.str("metadata_field", m.metadata_field)
                  .num("metadata_index", m.metadata_index);
            }
            row.num("value_before", static_cast<double>(m.value_before))
                .num("value_after", static_cast<double>(m.value_after))
                .num("sample", m.sample)
                .num("golden_top1", m.golden_top1)
                .num("faulty_top1", m.faulty_top1)
                .num("mismatched", o.mismatched_samples)
                .num("mismatch_rate", static_cast<double>(o.mismatch_rate))
                .num("delta_loss", static_cast<double>(o.delta_loss))
                .num("max_delta_loss",
                     static_cast<double>(o.max_delta_loss))
                .str("class", outcome_class(o));
            opts.run_log->event("trial", row);
          }
        }
      }
      if (heartbeat_on) {
        const double secs =
            static_cast<double>(obs::now_ns() - run_t0) / 1e9;
        const double rate =
            secs > 0.0 ? static_cast<double>(executed) / secs : 0.0;
        const double eta =
            rate > 0.0 ? static_cast<double>(hb_total - executed) / rate
                       : 0.0;
        obs::set_gauge("campaign.trials_done",
                       static_cast<double>(executed));
        obs::set_gauge("campaign.trials_total",
                       static_cast<double>(hb_total));
        obs::set_gauge("campaign.eta_seconds", eta);
        // Memory watermarks ride the heartbeat: a pure read of allocator
        // and /proc state (never a perturbation), published as mem.*
        // gauges and as additive schema-v2 heartbeat fields the report
        // scanner tolerates being absent.
        const obs::MemoryWatermarks mem = obs::sample_memory();
        char hb[160];
        std::snprintf(hb, sizeof(hb),
                      "campaign: %lld/%lld trials, %.1f trials/s, eta %.1fs",
                      static_cast<long long>(executed),
                      static_cast<long long>(hb_total), rate, eta);
        obs::log(1, hb);
        if (opts.run_log != nullptr) {
          obs::JsonObject row;
          row.num("done", executed)
              .num("total", hb_total)
              .num("trials_per_sec", rate)
              .num("eta_seconds", eta)
              .num("rss_bytes", mem.rss_bytes)
              .num("arena_bytes", mem.arena_live_bytes);
          opts.run_log->event("heartbeat", row);
        }
      }
      if (opts.checkpoint_every > 0) {
        io::save_campaign_progress(opts.checkpoint_path, prog);
      }
      if (opts.abort_after > 0 && executed >= opts.abort_after) {
        aborted = true;
      }
    }

    if (obs::metrics_enabled()) {
      const double secs =
          static_cast<double>(obs::now_ns() - layer_t0) / 1e9;
      const double rate =
          secs > 0.0 ? static_cast<double>(layer_done) / secs : 0.0;
      obs::set_gauge("campaign.trials_per_sec", rate);
      obs::log(1, "campaign layer " + site.path + ": " +
                      std::to_string(layer_done) + " trials, " +
                      std::to_string(rate) + " trials/s");
    }
    if (aborted) break;
  }

  if (aborted && !opts.checkpoint_path.empty()) {
    // Final checkpoint at the abort point, so the drill behaves exactly
    // like a kill right after the last periodic write.
    io::save_campaign_progress(opts.checkpoint_path, prog);
  }
  return prog;
}

CampaignProgress run_campaign_trials(nn::Module& model,
                                     const data::Batch& batch,
                                     const CampaignConfig& cfg,
                                     const CampaignRunOptions& opts) {
  obs::AttrScope campaign_attr(cfg.format_spec, "");
  obs::Span campaign_span("campaign", "run_campaign", cfg.format_spec);
  return CampaignSession(model, batch, cfg).run(opts);
}

int64_t count_campaign_layers(nn::Module& model, const CampaignConfig& cfg) {
  model.eval();
  EmulatorConfig ecfg;
  ecfg.format_spec = cfg.format_spec;
  // Same enumeration filter as CampaignSession; the Emulator restores the
  // model on destruction, so this is a read-only probe.
  Emulator emu(model, ecfg);
  return std::count_if(
      emu.sites().begin(), emu.sites().end(),
      [&](const LayerSite& site) { return campaigned(site, cfg); });
}

std::string no_layer_reason(const std::string& format_spec,
                            InjectionSite site) {
  if (site != InjectionSite::kMetadata ||
      fmt::make_format(format_spec)->has_metadata()) {
    return "";
  }
  return "format '" + format_spec +
         "' has no metadata register: --site metadata needs an int, bfp or "
         "afp format";
}

CampaignResult finalize_campaign(const CampaignProgress& progress) {
  if (!progress.complete()) {
    throw std::invalid_argument(
        "finalize_campaign: campaign progress is incomplete (" +
        std::to_string(progress.completed_trials()) + "/" +
        std::to_string(progress.total_trials()) + " trials done)");
  }
  CampaignResult result;
  result.golden_accuracy = progress.golden_accuracy;
  // Serial aggregation in trial order keeps the statistics (and their
  // floating-point rounding) independent of how the trials were scheduled,
  // sharded, or resumed.
  for (const LayerProgress& lp : progress.layers) {
    LayerCampaignResult lr;
    lr.layer = lp.path;
    // One exact reservation per vector: the trial count is known up front,
    // so the per-trial push_backs below never reallocate.
    lr.delta_losses.reserve(lp.outcomes.size());
    lr.sdc_flags.reserve(lp.outcomes.size());
    ConvergenceTracker tracker;
    for (const FaultOutcome& out : lp.outcomes) {
      ++lr.injections;
      if (out.sdc) ++lr.sdc_count;
      lr.mean_mismatch_rate += out.mismatch_rate;
      lr.max_delta_loss =
          std::max(lr.max_delta_loss, double(out.max_delta_loss));
      lr.delta_losses.push_back(out.delta_loss);
      lr.sdc_flags.push_back(out.sdc ? 1 : 0);
      tracker.add(out.delta_loss);
    }
    if (lr.injections > 0) {
      lr.mean_mismatch_rate /= static_cast<double>(lr.injections);
      lr.mean_delta_loss = tracker.mean();
      lr.ci95_delta_loss = tracker.ci95_halfwidth();
    }
    result.layers.push_back(std::move(lr));
  }
  return result;
}

CampaignProgress merge_campaign_progress(
    const std::vector<CampaignProgress>& parts) {
  if (parts.empty()) {
    throw std::invalid_argument("merge_campaign_progress: no inputs");
  }
  CampaignProgress merged = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    const CampaignProgress& p = parts[i];
    const auto fail = [i](const std::string& what) {
      throw io::IoError("merge: input " + std::to_string(i) +
                        " does not match input 0 (different " + what + ")");
    };
    if (p.format_spec != merged.format_spec) fail("format");
    if (p.site != merged.site) fail("injection site");
    if (p.model != merged.model) fail("error model");
    if (p.injections_per_layer != merged.injections_per_layer) {
      fail("injections per layer");
    }
    if (p.num_bits != merged.num_bits) fail("bits per injection");
    if (p.seed != merged.seed) fail("seed");
    if (p.shards != parts[0].shards) fail("shard count");
    if (p.sites_per_trial != merged.sites_per_trial) {
      fail("sites per trial");
    }
    if (!(p.ber == merged.ber)) fail("bit error rate");
    if (p.burst_len != merged.burst_len) fail("burst length");
    if (uses_ber_sampler(merged.model, merged.ber) &&
        p.ber_sampler != merged.ber_sampler) {
      fail("ber draw order");
    }
    if (p.model_name != merged.model_name) fail("model");
    if (p.eval_samples != merged.eval_samples) fail("sample count");
    if (!(p.golden_accuracy == merged.golden_accuracy) ||
        p.golden_digest != merged.golden_digest) {
      fail("golden reference — shards ran different models or batches");
    }
    if (p.layers.size() != merged.layers.size()) fail("layer set");
    for (size_t j = 0; j < merged.layers.size(); ++j) {
      const LayerProgress& pl = p.layers[j];
      LayerProgress& ml = merged.layers[j];
      if (pl.site_index != ml.site_index || pl.path != ml.path ||
          pl.done.size() != ml.done.size()) {
        fail("layer '" + ml.path + "'");
      }
      for (size_t ti = 0; ti < pl.done.size(); ++ti) {
        if (!pl.done[ti]) continue;
        if (ml.done[ti]) {
          throw io::IoError("merge: trial " + std::to_string(ti) +
                            " of layer '" + ml.path +
                            "' appears in more than one input");
        }
        ml.done[ti] = 1;
        ml.outcomes[ti] = pl.outcomes[ti];
      }
    }
  }
  // The merged state represents the whole campaign again: re-label it
  // unsharded so it can be finalized — or resumed, if shards are missing.
  merged.shards = 1;
  merged.shard_index = 0;
  return merged;
}

uint64_t campaign_digest(const CampaignResult& r) {
  uint64_t h = kFnv1aBasis;
  h = fnv1a(h, &r.golden_accuracy, sizeof(r.golden_accuracy));
  for (const auto& l : r.layers) {
    h = fnv1a(h, l.layer.data(), l.layer.size());
    h = fnv1a(h, &l.injections, sizeof(l.injections));
    h = fnv1a(h, &l.sdc_count, sizeof(l.sdc_count));
    h = fnv1a(h, &l.mean_mismatch_rate, sizeof(l.mean_mismatch_rate));
    h = fnv1a(h, &l.mean_delta_loss, sizeof(l.mean_delta_loss));
    h = fnv1a(h, &l.max_delta_loss, sizeof(l.max_delta_loss));
    h = fnv1a(h, &l.ci95_delta_loss, sizeof(l.ci95_delta_loss));
    if (!l.delta_losses.empty()) {
      h = fnv1a(h, l.delta_losses.data(),
                l.delta_losses.size() * sizeof(float));
    }
    if (!l.sdc_flags.empty()) {
      h = fnv1a(h, l.sdc_flags.data(), l.sdc_flags.size());
    }
  }
  return h;
}

CampaignResult run_campaign(nn::Module& model, const data::Batch& batch,
                            const CampaignConfig& cfg) {
  return finalize_campaign(run_campaign_trials(model, batch, cfg, {}));
}

}  // namespace ge::core
