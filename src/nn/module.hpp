// Module: base class of the NN framework — this repo's stand-in for
// torch.nn.Module.
//
// The feature GoldenEye actually depends on is the *forward hook*: a
// callback that observes (and may rewrite, in place) a layer's output
// tensor after `forward` runs. Number-format emulation and fault injection
// are implemented entirely as hooks (src/core/emulator.*), keeping every
// layer format-agnostic — the paper's central design (§III-A).
//
// Invariants:
//  - composite modules must invoke children through operator() (never
//    child.forward() directly) so hooks fire at every layer;
//  - backward() implements the gradient of forward() w.r.t. its input and
//    accumulates parameter gradients; quantisation applied by hooks is
//    intentionally invisible to backward (straight-through estimator, the
//    standard choice for quantised training and what QPyTorch does).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace ge::nn {

class Module;

/// Record of one forward pass through a module tree: for every submodule
/// invocation, its nesting interval in execution order and its post-hook
/// output tensor (an O(1) copy-on-write share of the activation buffer
/// that forward pass produced — recording copies nothing).
///
/// This is the golden-prefix cache behind campaign suffix-replay
/// (DESIGN.md §10): a fault injected at site S can only perturb state from
/// S onwards, so Module::forward_from serves every invocation that
/// completed strictly before S entered straight from the plan and
/// recomputes only the suffix. Interval comparison — rather than a linear
/// "seed the chain at S" view — is what keeps the skip rule exact for
/// non-sequential graphs: a residual branch or attention side-path that
/// finished before S is served from cache, while any ancestor whose
/// interval contains S (and therefore stitches cached and recomputed
/// tensors together) re-executes its own glue code.
class ReplayPlan {
 public:
  /// True once a record_forward pass filled this plan.
  bool recorded() const noexcept { return next_seq_ > 0; }
  /// False when some module ran more than once in the recorded forward
  /// (weight sharing / module reuse): intervals are then ambiguous and
  /// forward_from refuses the plan. Callers fall back to full forwards.
  bool usable() const noexcept { return recorded() && !reentered_; }
  size_t modules_recorded() const noexcept { return records_.size(); }
  bool contains(const Module& m) const {
    return records_.count(&m) != 0;
  }
  /// m's recorded post-hook output, or nullptr when m was not recorded.
  const Tensor* recorded_output(const Module& m) const {
    const auto it = records_.find(&m);
    return it != records_.end() ? &it->second.output : nullptr;
  }
  /// Bytes of activation storage the cached outputs keep alive. Nested
  /// shares (a Sequential returning its last child's tensor) count once.
  int64_t cache_bytes() const;
  /// True when forward_from(site) would serve `m` from the cache — i.e. m's
  /// recorded invocation completed strictly before site first entered.
  /// False for unrecorded modules, for site itself, its subtree, its
  /// ancestors, and everything executing after it. Campaigns use this to
  /// check that a companion fault site re-executes during a suffix replay.
  bool skipped_for(const Module& site, const Module& m) const;
  /// Re-key this plan onto a structurally identical module tree (campaign
  /// worker replicas): module pointers map positionally via
  /// named_modules(), cached tensors are shared, not copied. Throws
  /// std::invalid_argument when the trees disagree.
  ReplayPlan translate(Module& from_root, Module& to_root) const;
  void clear();

 private:
  friend class Module;
  struct Record {
    int64_t enter = -1;  ///< pre-order event index at operator() entry
    int64_t exit = -1;   ///< event index after post-hooks ran
    Tensor output;       ///< operator() return value (COW share)
  };
  std::unordered_map<const Module*, Record> records_;
  int64_t next_seq_ = 0;
  bool reentered_ = false;
};

/// The rows of sample `index` in a tensor holding `batch` samples
/// batch-major: the contiguous 1/batch of its storage, with the first
/// extent divided by `batch` ([B, C, H, W] -> [1, C, H, W], [B*T, D] ->
/// [T, D]). Copies. Throws std::invalid_argument when the first extent is
/// not a multiple of `batch` or `index` is outside [0, batch).
Tensor sample_rows(const Tensor& t, int64_t index, int64_t batch);

/// Which sample a sliced Module::forward_from replays. batch = 1 (the
/// default) replays the recorded batch whole.
struct SampleSlice {
  SampleSlice() = default;
  SampleSlice(int64_t index_, int64_t batch_,
              const Module* widen_at_ = nullptr, Tensor widen_input_ = {})
      : index(index_),
        batch(batch_),
        widen_at(widen_at_),
        widen_input(std::move(widen_input_)) {}

  int64_t index = 0;
  int64_t batch = 1;
  /// Widen point: when set, the replay returns to the full batch at this
  /// module. Its input becomes `widen_input` (the module's recorded-batch
  /// input, see Module::replay_input) with sample `index`'s rows
  /// overwritten by the sliced replay's rows, and everything from there on
  /// computes at full batch.
  const Module* widen_at = nullptr;
  Tensor widen_input;
};

/// A learnable tensor with its gradient accumulator.
struct Parameter {
  std::string name;  ///< local name, e.g. "weight"
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
  void zero_grad() { grad.fill(0.0f); }
};

class Module {
 public:
  /// Callback invoked around forward; may mutate the tensor in place.
  using Hook = std::function<void(Module&, Tensor&)>;
  /// Opaque handle for removing a previously added hook.
  using HookHandle = int64_t;

  explicit Module(std::string kind) : kind_(std::move(kind)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Layer kind, e.g. "Conv2d", "Linear", "ReLU" (used by the emulator to
  /// pick default instrumentation targets, as the paper defaults to CONV
  /// and LINEAR layers).
  const std::string& kind() const noexcept { return kind_; }

  /// --- computation --------------------------------------------------------
  /// The layer function itself. Call through operator() so hooks fire.
  virtual Tensor forward(const Tensor& input) = 0;
  /// Gradient of forward w.r.t. input; accumulates parameter grads.
  /// Layers that do not need training may keep the default (throws).
  virtual Tensor backward(const Tensor& grad_out);

  /// Run pre-hooks, forward, then post-hooks. This is how parents (and
  /// users) invoke a module.
  Tensor operator()(const Tensor& input);

  /// --- golden-prefix record / replay -------------------------------------
  /// Run this tree's forward while recording every submodule invocation
  /// into `plan` (cleared first). Identical computation and hook firing to
  /// a plain call — recording only takes O(1) output shares on the way.
  /// Must not nest inside another record/replay pass (std::logic_error).
  Tensor record_forward(ReplayPlan& plan, const Tensor& input);

  /// Replay `plan`'s forward with a fault at `site`: every invocation
  /// whose recorded interval completed strictly before `site` entered
  /// returns its recorded output in O(1) — pre-hooks, forward and
  /// post-hooks all skipped — while `site` itself, its subtree, every
  /// ancestor, and everything after re-execute normally (hooks included).
  /// Bitwise identical to a full forward whose state differs from the
  /// recorded pass only at/after `site` (quantisation hooks recompute all
  /// metadata per call, so skipped sites leave no stale state behind; see
  /// DESIGN.md §10). Inference-only: skipped modules do not refresh any
  /// backward caches. `served_from_cache`, when non-null, receives the
  /// number of invocations served from the plan.
  ///
  /// With slice.batch > 1 the replay runs one sample of the recorded
  /// batch: `input` (the recorded batch) and every served output are cut
  /// to sample_rows(·, slice.index, slice.batch), so the suffix computes
  /// at batch 1 and the result holds that sample's rows only. Exact only
  /// for a model whose forward never mixes samples; campaigns check that
  /// before they slice (DESIGN.md §10). With slice.widen_at set, the
  /// replay widens back to the full batch when it reaches that module, and
  /// the result is full-batch logits; `site` must complete before
  /// widen_at enters.
  ///
  /// Throws std::invalid_argument when the plan is unusable, `site` or
  /// widen_at was never recorded, widen_at does not follow `site`, the
  /// slice is out of range, or the widened rows do not fit widen_input;
  /// std::logic_error when nested in another record/replay or when the
  /// forward never reached widen_at.
  Tensor forward_from(const ReplayPlan& plan, const Module& site,
                      const Tensor& input,
                      int64_t* served_from_cache = nullptr,
                      const SampleSlice& slice = {});

  /// The input `m` receives in `plan`'s recorded forward — what its
  /// operator() is given, before any pre-hook runs — as an O(1) share.
  /// Found by one full-batch forward_from(plan, m, input), which serves
  /// everything that completed before m entered and recomputes the rest.
  /// Throws like forward_from, and std::logic_error when that forward
  /// never reaches m.
  Tensor replay_input(const ReplayPlan& plan, const Module& m,
                      const Tensor& input);

  /// --- hooks ---------------------------------------------------------------
  HookHandle add_forward_hook(Hook h);
  HookHandle add_forward_pre_hook(Hook h);
  /// Remove one hook by handle; unknown handles are ignored (idempotent).
  void remove_hook(HookHandle handle);
  void clear_hooks();
  int64_t hook_count() const noexcept {
    return static_cast<int64_t>(pre_hooks_.size() + post_hooks_.size());
  }

  /// --- parameters ------------------------------------------------------------
  /// Parameters owned directly by this module (not children).
  virtual std::vector<Parameter*> local_parameters() { return {}; }
  /// Non-learnable persistent state (e.g. BatchNorm running statistics):
  /// saved/loaded with the weights but never touched by optimizers.
  virtual std::vector<Parameter*> local_buffers() { return {}; }
  /// All buffers in the subtree, depth-first.
  std::vector<Parameter*> buffers();
  /// All parameters in the subtree, depth-first, deterministic order.
  std::vector<Parameter*> parameters();
  /// Subtree parameters with dotted names ("stage1.0.conv1.weight").
  std::vector<std::pair<std::string, Parameter*>> named_parameters();
  /// Subtree buffers with dotted names ("bn1.running_mean"); the name-keyed
  /// counterpart ge::io state dicts round-trip through.
  std::vector<std::pair<std::string, Parameter*>> named_buffers();
  void zero_grad();
  /// Total scalar parameter count of the subtree.
  int64_t parameter_count();

  /// --- module tree -------------------------------------------------------------
  /// Direct children in registration order.
  const std::vector<std::pair<std::string, Module*>>& children() const {
    return children_;
  }
  /// This module plus all descendants with dotted path names; the root's
  /// own path is "".
  std::vector<std::pair<std::string, Module*>> named_modules();
  /// Find a descendant by dotted path; nullptr if absent.
  Module* find_module(const std::string& path);

  /// --- train / eval mode ----------------------------------------------------
  void train(bool on = true);
  void eval() { train(false); }
  bool is_training() const noexcept { return training_; }

  /// --- weight persistence ----------------------------------------------------
  /// Serialise all parameters to a flat binary file (shape-checked load).
  void save_weights(const std::string& path);
  /// Throws std::runtime_error on missing file or shape mismatch.
  void load_weights(const std::string& path);

 protected:
  /// Register a child (held by the derived class; base stores a non-owning
  /// pointer for traversal). Call in construction order.
  void register_child(std::string name, Module& child);

 private:
  /// The plain invocation body (pre-hooks, forward, post-hooks) with no
  /// record/replay bookkeeping; operator() dispatches here.
  Tensor run_forward(const Tensor& input);

  /// forward_from's body; `site_input`, when non-null, receives the input
  /// operator() is given at `site` (replay_input).
  Tensor replay(const ReplayPlan& plan, const Module& site,
                const Tensor& input, int64_t* served_from_cache,
                const SampleSlice& slice, std::optional<Tensor>* site_input);

  void collect_named_modules(const std::string& prefix,
                             std::vector<std::pair<std::string, Module*>>& out);

  std::string kind_;
  bool training_ = false;
  std::vector<std::pair<std::string, Module*>> children_;
  std::vector<std::pair<HookHandle, Hook>> pre_hooks_;
  std::vector<std::pair<HookHandle, Hook>> post_hooks_;
  HookHandle next_handle_ = 1;
};

}  // namespace ge::nn
