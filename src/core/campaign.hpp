// Campaign: per-layer error-injection campaigns (§IV-C / Fig. 7).
//
// For every instrumented layer, run N independent single-bit injections
// (value or metadata site), each against the same evaluation batch, and
// aggregate mismatch and ΔLoss statistics per layer. Weights are restored
// and hooks removed between campaigns; a campaign never perturbs the
// persistent model.
// Trials parallelize across pool workers when CampaignConfig::make_replica
// is set: each worker instruments its own replica model, and every trial
// draws from a child RNG stream derived solely from (seed, layer index,
// trial index). Results are therefore bitwise identical to the serial
// path at any GE_NUM_THREADS.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/emulator.hpp"
#include "core/injector.hpp"
#include "core/metrics.hpp"

namespace ge::obs {
class RunLog;
}  // namespace ge::obs

namespace ge::core {

struct CampaignConfig {
  std::string format_spec;  ///< e.g. "bfp_e5m5_b16"
  InjectionSite site = InjectionSite::kActivationValue;
  ErrorModel model = ErrorModel::kBitFlip;
  int64_t injections_per_layer = 100;
  int num_bits = 1;
  uint64_t seed = 1234;
  /// Restrict to these layer paths (empty = all instrumented layers).
  std::vector<std::string> layers;
  /// Optional factory for architecturally-identical fresh models. When set,
  /// run_campaign builds one replica per pool worker (weights are copied
  /// from the primary model before instrumentation, so the factory's own
  /// init seed is irrelevant) and fans trials out across workers. When
  /// null, trials run serially on the primary model. Either way the
  /// results are bitwise identical — parallelism only changes wall-clock.
  std::function<std::unique_ptr<nn::Module>()> make_replica;
  /// Golden-prefix cache (DESIGN.md §10): record the golden forward's
  /// activations and run each trial as a suffix replay from its injection
  /// site, skipping every layer that completed before the site entered.
  /// Bitwise identical to full forwards — a fault cannot perturb state
  /// that was computed before it fired — so this is purely a speed knob.
  /// Ignored (full forwards) when the model reuses a module instance
  /// within one forward, or when a trial's companion faults land outside
  /// the replayed suffix.
  bool use_prefix_cache = true;
  /// Multi-point trials (MRFI-style): each trial arms the campaigned site
  /// plus (sites_per_trial - 1) companion faults at distinct strictly
  /// later instrumented sites, drawn from the trial's own RNG stream, all
  /// carried by one forward. 1 = classic single-fault campaigns (bitwise
  /// unchanged). Layers with fewer later sites arm as many as exist.
  int sites_per_trial = 1;
  /// Error-model-zoo knobs, forwarded into every trial's InjectionSpec
  /// (see ErrorModel / InjectionSpec docs). Ignored by classic models.
  double ber = 0.0;
  int burst_len = 2;
};

struct LayerCampaignResult {
  std::string layer;
  int64_t injections = 0;
  int64_t sdc_count = 0;           ///< injections causing any mismatch
  double mean_mismatch_rate = 0.0; ///< mean fraction of batch mismatched
  double mean_delta_loss = 0.0;
  double max_delta_loss = 0.0;
  double ci95_delta_loss = 0.0;    ///< 95% CI half-width of mean ΔLoss
  std::vector<float> delta_losses; ///< per-injection (convergence studies)
  std::vector<uint8_t> sdc_flags;  ///< per-injection mismatch outcome
};

struct CampaignResult {
  std::vector<LayerCampaignResult> layers;
  float golden_accuracy = 0.0f;    ///< emulated-but-fault-free accuracy
  /// Mean ΔLoss over all layers (the paper's Fig. 9 resilience summary).
  double network_mean_delta_loss() const;
};

/// Run a campaign on `model` over `batch`. The model is instrumented with
/// `cfg.format_spec` for the duration and restored afterwards.
CampaignResult run_campaign(nn::Module& model, const data::Batch& batch,
                            const CampaignConfig& cfg);

// --- persistent / sharded campaigns (ge::io, DESIGN.md §9) -----------------
//
// Every trial outcome is a pure function of (seed, site index, trial
// index), so the trial index space can be cut up arbitrarily — across
// checkpoint/resume boundaries, shards, or both — and the reassembled
// outcome set aggregates to statistics bitwise identical to one
// uninterrupted single-process run.

/// Per-trial outcomes of one campaigned layer, resumable mid-layer.
struct LayerProgress {
  uint64_t site_index = 0;  ///< index into Emulator::sites() — the RNG
                            ///< stream base, stable under layer filtering
  std::string path;
  std::vector<uint8_t> done;        ///< 1 = outcome computed, per trial
  std::vector<FaultOutcome> outcomes;  ///< size = injections; valid if done
};

/// The campaign's full persistent state: a config echo (validated on
/// resume and merge), the golden accuracy, and per-layer partial outcome
/// accumulators. ge::io serialises this into "CAMP" container sections.
struct CampaignProgress {
  std::string format_spec;
  InjectionSite site = InjectionSite::kActivationValue;
  ErrorModel model = ErrorModel::kBitFlip;
  int64_t injections_per_layer = 0;
  int num_bits = 1;
  uint64_t seed = 0;
  int shards = 1;       ///< trial-space partition this state was run under
  int shard_index = 0;  ///< which partition slice (0 when unsharded)
  int sites_per_trial = 1;  ///< faults armed per trial (config echo)
  double ber = 0.0;         ///< zoo config echo (0 for classic models)
  int burst_len = 2;        ///< zoo config echo
  /// Bernoulli sampler generation the trials were drawn with
  /// (kBerSamplerGeneration; 1 in checkpoints that predate the field).
  /// Resume/merge refuse a mismatch when uses_ber_sampler(model, ber).
  int ber_sampler = kBerSamplerGeneration;
  std::string model_name;    ///< CLI echo (empty for library callers)
  int64_t eval_samples = 0;  ///< CLI echo of the evaluation batch size
  float golden_accuracy = 0.0f;
  /// FNV-1a over the golden (fault-free emulated) logit bytes: the bitwise
  /// tripwire that resume/merge see the same model, batch, and kernels.
  /// Accuracy alone is too coarse — two different models can tie on a
  /// small batch.
  uint64_t golden_digest = 0;
  std::vector<LayerProgress> layers;

  int64_t completed_trials() const;
  int64_t total_trials() const;
  /// True when every trial of every layer is done (merge of all shards,
  /// or an unsharded run that ran to the end).
  bool complete() const { return completed_trials() == total_trials(); }
};

/// Execution options for CampaignSession::run and run_campaign_trials.
struct CampaignRunOptions {
  /// Write a checkpoint to `checkpoint_path` after every this-many newly
  /// executed trials (0 = never checkpoint).
  int64_t checkpoint_every = 0;
  std::string checkpoint_path;
  /// Continue from previously saved progress (validated against the
  /// config; a mismatch throws io::IoError). Borrowed, may be null.
  const CampaignProgress* resume_from = nullptr;
  /// Deterministic trial-space partition: this run executes only trials
  /// with trial_index % shards == shard_index.
  int shards = 1;
  int shard_index = 0;
  /// Echoed into CampaignProgress (and so into the checkpoint's config
  /// block) for resume/merge validation. Empty/0 for library callers.
  std::string model_name;
  int64_t eval_samples = 0;
  /// Fault-tolerance drill: stop (after writing a final checkpoint) once
  /// this many trials were executed in this run (0 = run to completion).
  /// The returned progress is simply incomplete, exactly as if the
  /// process had been killed after the last checkpoint.
  int64_t abort_after = 0;
  /// Work-stealing lease (the service daemon's partition): execute only
  /// trials whose global index — campaign position order, i.e.
  /// layer_position_in_campaign * injections_per_layer + trial_index —
  /// falls in [lease_lo, lease_hi). lease_hi < 0 disables leasing. Shard,
  /// lease and resume form one selection rule over the pure (seed, site,
  /// trial) function space, so parts from disjoint leases merge
  /// bitwise-identically via merge_campaign_progress, as they are: their
  /// done sets are disjoint.
  int64_t lease_lo = 0;
  int64_t lease_hi = -1;
  /// Stream a schema-v2 "trial" record per executed trial (plus periodic
  /// "heartbeat" records) into this report. Borrowed, may be null. Records
  /// are emitted from the sequential post-block section in ascending trial
  /// order, so the stream is deterministic at any thread count; telemetry
  /// only reads outcomes and never perturbs them (DESIGN.md §8).
  obs::RunLog* run_log = nullptr;
};

/// One campaign, prepared once and run any number of times. Construction
/// does everything a run does not select: the worker replicas (given the
/// model's weights before anything is instrumented), their emulators and
/// injectors, the golden run, the golden-prefix ReplayPlan and its
/// per-replica translations, and the list of campaigned layers. Each run()
/// then executes the trials its options select — a shard, a lease range,
/// what a resume left — exactly as a fresh run_campaign_trials call
/// would, so runs over disjoint selections merge bitwise-identically to
/// one uninterrupted run. The service daemon's executor and every worker
/// hold one session per campaign and run each lease through it.
///
/// `model` stays instrumented (and the caller must not use it) until the
/// session is destroyed, which restores it. The session keeps its own O(1)
/// share of `batch` and a copy of `cfg`. Throws std::invalid_argument when
/// cfg.injections_per_layer or cfg.sites_per_trial is below 1.
class CampaignSession {
 public:
  CampaignSession(nn::Module& model, const data::Batch& batch,
                  const CampaignConfig& cfg);
  ~CampaignSession();

  CampaignSession(const CampaignSession&) = delete;
  CampaignSession& operator=(const CampaignSession&) = delete;

  /// Validate `opts`, then build a fresh progress (config echo, golden
  /// accuracy and digest), apply any resume, and run the selected trials.
  /// Not reentrant.
  CampaignProgress run(const CampaignRunOptions& opts);

  /// Campaigned layers: the trial space holds
  /// layer_count() * injections_per_layer trials.
  int64_t layer_count() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Run (part of) a campaign and return its persistent state: one
/// CampaignSession(model, batch, cfg).run(opts). Covers the whole
/// checkpoint/resume/shard/lease space; run_campaign is the simple
/// wrapper `finalize_campaign(run_campaign_trials(m, b, cfg, {}))`.
CampaignProgress run_campaign_trials(nn::Module& model,
                                     const data::Batch& batch,
                                     const CampaignConfig& cfg,
                                     const CampaignRunOptions& opts);

/// Number of layers a campaign over (model, cfg) would run: instruments
/// the model (restored on return, like run_campaign) and applies the same
/// site-enumeration filters, without a golden run. A CampaignSession
/// already knows its count (layer_count()).
int64_t count_campaign_layers(nn::Module& model, const CampaignConfig& cfg);

/// Why a `site` campaign under `format_spec` (a valid registry spec)
/// would select no layer, or "" when it selects some: the metadata site
/// needs a format with metadata registers. net::campaign_spec_reason,
/// the one spec check of the CLI and the server, refuses such a spec
/// instead of running zero trials.
std::string no_layer_reason(const std::string& format_spec,
                            InjectionSite site);

/// Aggregate a complete progress into per-layer statistics. The
/// aggregation order is trial order, so the result is bitwise identical
/// no matter how the trials were scheduled, sharded, or resumed. Throws
/// std::invalid_argument when progress is incomplete.
CampaignResult finalize_campaign(const CampaignProgress& progress);

/// Fold partial results (shards, lease parts) into one progress. All parts
/// must carry the same config echo, golden digest, shard count and layer
/// structure, and disjoint done sets (io::IoError otherwise); these make
/// the merge exact, so a part's shard_index is not consulted. The merged
/// progress is re-labelled shards=1 so it can be finalized or even
/// resumed.
CampaignProgress merge_campaign_progress(
    const std::vector<CampaignProgress>& parts);

/// FNV-1a digest over the full campaign statistics — the cross-process
/// bitwise-equality check pinned in tests/test_determinism.cpp and
/// printed by the CLI. Do not change the field order.
uint64_t campaign_digest(const CampaignResult& result);

}  // namespace ge::core
