// Injector: single- and multi-bit fault injection into a format-emulated
// model — GoldenEye's dependability engine (§III-B, §IV-C).
//
// Three injection sites:
//  - ActivationValue: flip bit(s) of one activation element's format-domain
//    bit pattern at a chosen layer (encode -> flip -> decode, the paper's
//    Method 3 / flip / Method 4 routine), applied through the emulator's
//    post-quantisation callback during the next forward pass;
//  - WeightValue: the same routine on one (already format-quantised)
//    weight element, applied offline when armed and undone on disarm;
//  - Metadata: flip bit(s) inside a hardware metadata register (INT scale,
//    BFP shared exponent, AFP exponent bias) and re-decode the layer's
//    whole activation tensor under the corrupted register — the paper's
//    headline hardware-aware capability.
#pragma once

#include <optional>
#include <string>

#include "core/emulator.hpp"
#include "tensor/rng.hpp"

namespace ge::core {

enum class InjectionSite { kActivationValue, kWeightValue, kMetadata };

/// Fault model applied to each selected bit (§IV-C "different error
/// models"). The first three are the classic single-element models:
/// transient flip, or a stuck-at fault pinning the bit. The rest form the
/// error-model zoo — activation-site only, all perturbations are flips:
///  - kBerUniform: every bit of every element of the layer's activation
///    tensor flips independently with probability `ber`;
///  - kBurst: a contiguous run of `burst_len` bits flips inside one
///    element's word (SEU upsetting adjacent cells);
///  - kRowBurst / kChannel: every element of one randomly drawn row /
///    channel slice is hit with the same chosen bits (a shared bus or
///    channel-wide datapath fault), optionally thinned per element by
///    `ber` when it is > 0.
/// Enum order is persisted in campaign checkpoints — append only.
enum class ErrorModel {
  kBitFlip,
  kStuckAt0,
  kStuckAt1,
  kBerUniform,
  kBurst,
  kRowBurst,
  kChannel,
};

/// True for the zoo models (everything past the classic stuck-at trio).
constexpr bool is_zoo_model(ErrorModel m) {
  return m >= ErrorModel::kBerUniform;
}

/// Generation of the Bernoulli-hit sampler that draws kBerUniform's flips
/// and the kRowBurst/kChannel thinning. Its draw order fixes those models'
/// results, so campaign checkpoints record it and resume/merge refuse a
/// mismatch. 1: one uniform draw per slot; 2: geometric gaps, one draw
/// per hit.
constexpr int kBerSamplerGeneration = 2;

/// True when a campaign of `model` at rate `ber` draws from that sampler.
constexpr bool uses_ber_sampler(ErrorModel model, double ber) {
  return model == ErrorModel::kBerUniform ||
         ((model == ErrorModel::kRowBurst || model == ErrorModel::kChannel) &&
          ber > 0.0);
}

const char* to_string(InjectionSite site);
const char* to_string(ErrorModel model);

struct InjectionSpec {
  std::string layer_path;  ///< instrumented layer to target
  InjectionSite site = InjectionSite::kActivationValue;
  ErrorModel model = ErrorModel::kBitFlip;
  /// Flat tensor index; -1 = uniform random. For kRowBurst/kChannel this
  /// selects the row/channel index instead of an element.
  int64_t element = -1;
  int bit = -1;                ///< bit position (0 = LSB); -1 = random
  int num_bits = 1;            ///< >1 perturbs several distinct random bits
  std::string metadata_field;  ///< empty = the format's first field
  int64_t metadata_index = -1; ///< register index; -1 = random
  /// kBerUniform: per-bit flip probability, required in (0, 1].
  /// kRowBurst/kChannel: optional per-element thinning probability in
  /// [0, 1]; 0 hits every element of the region. Ignored otherwise.
  double ber = 0.0;
  int burst_len = 2;           ///< kBurst: contiguous bits flipped
};

/// What a single-site fault of `spec` picks first in the layer output `y`
/// quantised under `f`: an element (classic models, kBurst), a row/channel
/// index (kRowBurst, kChannel), or, at the metadata site, a register (one
/// per f.register_span(y.numel()) elements). target_count is the number of
/// choices. draw_target returns the spec's explicit index (spec.element,
/// or spec.metadata_index at the metadata site) when it is set, else one
/// uniform draw from `rng`; an explicit index outside [0, target_count)
/// throws std::invalid_argument. The injector's hook draws the target this
/// way at fire time; a campaign replaying one sample draws it before
/// arming, from the same trial stream, and arms the rest of the fault with
/// the advanced stream, so every later draw of the trial stays where it
/// was.
int64_t target_count(const InjectionSpec& spec, const Tensor& y,
                     const fmt::NumberFormat& f);
int64_t draw_target(const InjectionSpec& spec, const Tensor& y,
                    const fmt::NumberFormat& f, Rng& rng);

/// The storage indices a kRowBurst or kChannel fault hits: element i of the
/// region (i < size) is y's element first + (i / run) * stride + i % run.
struct Region {
  int64_t first = 0;
  int64_t run = 1;
  int64_t stride = 0;
  int64_t size = 0;

  int64_t at(int64_t i) const { return first + (i / run) * stride + i % run; }
};

/// Region `r` of `y` for spec.model (kChannel; anything else reads as a
/// row), per activation rank:
///   rank 4 (N,C,H,W): channel c = feature map c across the batch, N runs
///                     of H*W; row = one contiguous W run (fixed n, c, h).
///   rank 3 (B,T,D):   channel d = embedding lane d of every token;
///                     row = one token's D-vector.
///   rank 2 (B,F):     channel f = feature f of every sample;
///                     row = one sample's F-vector.
///   rank <= 1:        one region, the whole tensor.
/// A channel of rank >= 5 is the whole tensor too; a row of any rank >= 2
/// is one last-dimension run.
/// `r` must lie in [0, target_count(spec, y)), as draw_target ensures.
Region region_of(const InjectionSpec& spec, const Tensor& y, int64_t r);

/// What an armed injection actually did (resolved random choices).
struct InjectionRecord {
  std::string layer_path;
  InjectionSite site = InjectionSite::kActivationValue;
  ErrorModel model = ErrorModel::kBitFlip;
  std::string error_model;    ///< to_string(model), ready for run logs
  int64_t element = -1;       ///< first affected element (storage index)
  std::vector<int> bits;      ///< bits perturbed on the first element
  std::string metadata_field;
  int64_t metadata_index = -1;
  float value_before = 0.0f;  ///< corrupted element / register decode
  float value_after = 0.0f;
  int64_t affected = 0;       ///< elements whose value was perturbed
};

class Injector {
 public:
  /// Owns the emulator's post-quant slot while alive.
  Injector(Emulator& emulator, uint64_t seed);
  ~Injector();

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Schedule one injection: activation/metadata specs fire during the
  /// next forward pass through the target layer; weight specs are applied
  /// immediately. Throws if the layer is not instrumented or the spec is
  /// inconsistent (e.g. metadata on a metadata-less format).
  void arm(const InjectionSpec& spec);

  /// Like arm(), but every random choice this injection makes (element,
  /// bit positions, register index) draws from `trial_rng` instead of the
  /// injector's own stream. Campaigns pass Rng::child(trial_id) here so a
  /// trial's outcome depends only on its id, not on how many trials ran
  /// before it — the property that lets trials run on any thread in any
  /// order and still reproduce the serial results bitwise.
  void arm(const InjectionSpec& spec, const Rng& trial_rng);

  /// Multi-point trial (multi-site batched campaigns): arm `specs[0]` as
  /// the primary fault plus the rest as companions, all drawing their
  /// random choices from `trial_rng` in arming order at fire time. One
  /// forward pass then carries every fault; activation/metadata specs fire
  /// as their layers are reached (network order), weight specs apply
  /// immediately and are all undone on disarm. Specs must target distinct
  /// layers. fired()/last_record() describe the primary; records() lists
  /// every fault applied so far in firing order.
  void arm_multi(const std::vector<InjectionSpec>& specs,
                 const Rng& trial_rng);

  /// Cancel pending injections and undo any weight corruption.
  void disarm();

  /// True once the armed primary injection has been applied.
  bool fired() const noexcept { return !faults_.empty() && faults_[0].fired; }

  /// Details of the last applied primary injection.
  const std::optional<InjectionRecord>& last_record() const noexcept {
    return record_;
  }

  /// Every fault the current arming has applied, in firing order (weight
  /// faults first — they fire at arm time — then hook faults in network
  /// order). Cleared by the next arm()/arm_multi().
  const std::vector<InjectionRecord>& records() const noexcept {
    return records_;
  }

 private:
  /// One armed fault: its spec and whether it has been applied yet.
  struct ArmedFault {
    InjectionSpec spec;
    bool fired = false;
  };

  void arm_impl(std::vector<InjectionSpec> specs);
  InjectionRecord apply_activation(const InjectionSpec& spec,
                                   LayerSite& site, Tensor& y);
  InjectionRecord apply_ber(const InjectionSpec& spec, LayerSite& site,
                            Tensor& y);
  InjectionRecord apply_burst(const InjectionSpec& spec, LayerSite& site,
                              Tensor& y);
  InjectionRecord apply_region(const InjectionSpec& spec, LayerSite& site,
                               Tensor& y);
  InjectionRecord apply_metadata(const InjectionSpec& spec, LayerSite& site,
                                 Tensor& y);
  InjectionRecord apply_weight(const InjectionSpec& spec, LayerSite& site);
  /// Apply one armed fault (y may be null for weight faults, which never
  /// touch an activation tensor) and append its record.
  void fire(ArmedFault& fault, size_t index, LayerSite& site, Tensor* y);
  std::vector<int> choose_bits(int width, int requested_bit, int count);
  /// Apply `model` to the chosen bits of `bits`.
  void perturb(fmt::BitString& bits, ErrorModel model,
               const std::vector<int>& chosen) const;
  /// The stream random choices draw from: the per-trial override when one
  /// was armed, the injector's own stream otherwise.
  Rng& draw_rng() { return trial_rng_ ? *trial_rng_ : rng_; }

  Emulator* emulator_;
  Rng rng_;
  std::optional<Rng> trial_rng_;
  std::vector<ArmedFault> faults_;  ///< [0] is the primary
  std::optional<InjectionRecord> record_;
  std::vector<InjectionRecord> records_;
  std::vector<std::string> corrupted_weight_paths_;
};

}  // namespace ge::core
