#include "nn/module.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "obs/telemetry.hpp"

namespace ge::nn {

namespace {

/// Active record/replay pass on this thread (campaign trials run one
/// forward per worker thread, so a thread-local needs no plumbing through
/// every composite forward). Null outside record_forward/forward_from.
struct ReplayCtx {
  ReplayPlan* rec = nullptr;        ///< record target (record mode)
  const ReplayPlan* plan = nullptr; ///< replay source (replay mode)
  int64_t fire_enter = 0;  ///< enter index of the fault site's invocation
  int64_t served = 0;      ///< invocations returned from the cache
  SampleSlice slice;       ///< sliced replay: served outputs are cut to it
  const Module* site = nullptr;  ///< the fault site (replay mode)
  /// Receives the site's input as operator() is given it, when set.
  std::optional<Tensor>* site_input = nullptr;
};

thread_local ReplayCtx* tl_replay = nullptr;

/// RAII (de)activation, exception-safe.
struct ReplayScope {
  explicit ReplayScope(ReplayCtx& ctx) { tl_replay = &ctx; }
  ~ReplayScope() { tl_replay = nullptr; }
};

/// `full` (a recorded batch of `batch` samples) with sample `index`'s
/// rows replaced by `rows`. Copies.
Tensor widen_rows(const Tensor& full, const Tensor& rows, int64_t index,
                  int64_t batch) {
  Shape cut = full.shape();
  if (!cut.empty() && cut[0] % batch == 0) cut[0] /= batch;
  if (cut.empty() || rows.shape() != cut) {
    throw std::invalid_argument("forward_from: cannot widen rows of shape " +
                                shape_to_string(rows.shape()) +
                                " into shape " +
                                shape_to_string(full.shape()));
  }
  Tensor out = full;  // O(1) share; the write below detaches a copy
  std::copy_n(rows.cdata(), rows.numel(),
              out.data() + index * rows.numel());
  return out;
}

}  // namespace

Tensor sample_rows(const Tensor& t, int64_t index, int64_t batch) {
  if (batch < 1 || index < 0 || index >= batch || t.dim() < 1 ||
      t.size(0) % batch != 0) {
    throw std::invalid_argument("sample_rows: cannot cut sample " +
                                std::to_string(index) + " of " +
                                std::to_string(batch) + " from shape " +
                                shape_to_string(t.shape()));
  }
  Shape shape = t.shape();
  shape[0] /= batch;
  Tensor out(std::move(shape));
  const int64_t n = out.numel();
  std::copy_n(t.cdata() + index * n, n, out.data());
  return out;
}

int64_t ReplayPlan::cache_bytes() const {
  std::unordered_set<const void*> seen;
  int64_t bytes = 0;
  for (const auto& [mod, rec] : records_) {
    const void* key = rec.output.storage_key();
    if (key == nullptr || !seen.insert(key).second) continue;
    bytes += rec.output.numel() * static_cast<int64_t>(sizeof(float));
  }
  return bytes;
}

bool ReplayPlan::skipped_for(const Module& site, const Module& m) const {
  const auto si = records_.find(&site);
  const auto mi = records_.find(&m);
  if (si == records_.end() || mi == records_.end()) return false;
  return mi->second.exit < si->second.enter;
}

ReplayPlan ReplayPlan::translate(Module& from_root, Module& to_root) const {
  const auto from = from_root.named_modules();
  const auto to = to_root.named_modules();
  if (from.size() != to.size()) {
    throw std::invalid_argument(
        "ReplayPlan::translate: module trees differ in size");
  }
  std::unordered_map<const Module*, Module*> map;
  map.reserve(from.size());
  for (size_t i = 0; i < from.size(); ++i) {
    if (from[i].first != to[i].first) {
      throw std::invalid_argument(
          "ReplayPlan::translate: module path mismatch at '" +
          from[i].first + "' vs '" + to[i].first + "'");
    }
    map.emplace(from[i].second, to[i].second);
  }
  ReplayPlan out;
  out.next_seq_ = next_seq_;
  out.reentered_ = reentered_;
  out.records_.reserve(records_.size());
  for (const auto& [mod, rec] : records_) {
    const auto it = map.find(mod);
    if (it == map.end()) {
      throw std::invalid_argument(
          "ReplayPlan::translate: recorded module is not in the source tree");
    }
    out.records_.emplace(it->second, rec);  // tensor share, O(1)
  }
  return out;
}

void ReplayPlan::clear() {
  records_.clear();
  next_seq_ = 0;
  reentered_ = false;
}

Tensor Module::backward(const Tensor& /*grad_out*/) {
  throw std::logic_error("backward not implemented for layer kind '" + kind_ +
                         "'");
}

Tensor Module::run_forward(const Tensor& input) {
  // Per-module spans exist for the profiler's attribution table (where
  // does an emulated forward spend its time, by layer kind). They are
  // profiling-only: under plain --trace the nullptr name keeps them
  // inert, so trace volume is unchanged from pre-profiler builds.
  obs::Span span("nn", obs::profiling_enabled() ? kind_.c_str() : nullptr);
  Tensor x = input;
  for (auto& [handle, hook] : pre_hooks_) hook(*this, x);
  Tensor y = forward(x);
  for (auto& [handle, hook] : post_hooks_) hook(*this, y);
  return y;
}

Tensor Module::operator()(const Tensor& input) {
  ReplayCtx* rc = tl_replay;
  if (rc == nullptr) return run_forward(input);

  if (rc->plan != nullptr) {
    if (this == rc->slice.widen_at) {
      // Widen: the replayed sample's rows rejoin the recorded batch, and
      // from here on nothing is cut.
      const Tensor x = widen_rows(rc->slice.widen_input, input,
                                  rc->slice.index, rc->slice.batch);
      rc->slice = {};
      return run_forward(x);
    }
    if (this == rc->site && rc->site_input != nullptr) {
      *rc->site_input = input;  // O(1) share
    }
    // Replay: serve any invocation that completed strictly before the
    // fault site entered. Everything else (the site, its subtree, its
    // ancestors, and the whole suffix) recomputes normally.
    const auto it = rc->plan->records_.find(this);
    if (it != rc->plan->records_.end() &&
        it->second.exit < rc->fire_enter) {
      ++rc->served;
      if (rc->slice.batch > 1) {
        return sample_rows(it->second.output, rc->slice.index,
                           rc->slice.batch);
      }
      return it->second.output;  // O(1) COW share of the golden buffer
    }
    return run_forward(input);
  }

  // Record: assign this invocation its nesting interval, run normally
  // (children record recursively), then keep an O(1) share of the output.
  ReplayPlan& plan = *rc->rec;
  if (!plan.records_.try_emplace(this).second) {
    // Module ran twice (weight sharing): intervals are ambiguous, so the
    // whole plan is refused by usable(). Keep executing normally.
    plan.reentered_ = true;
  }
  const int64_t enter = plan.next_seq_++;
  Tensor y = run_forward(input);
  // Re-find: child insertions may have rehashed the map since try_emplace.
  ReplayPlan::Record& rec = plan.records_[this];
  rec.enter = enter;
  rec.exit = plan.next_seq_++;
  rec.output = y;
  return y;
}

Tensor Module::record_forward(ReplayPlan& plan, const Tensor& input) {
  if (tl_replay != nullptr) {
    throw std::logic_error(
        "record_forward: a record/replay pass is already active");
  }
  plan.clear();
  ReplayCtx ctx;
  ctx.rec = &plan;
  ReplayScope scope(ctx);
  return (*this)(input);
}

Tensor Module::forward_from(const ReplayPlan& plan, const Module& site,
                            const Tensor& input, int64_t* served_from_cache,
                            const SampleSlice& slice) {
  return replay(plan, site, input, served_from_cache, slice, nullptr);
}

Tensor Module::replay_input(const ReplayPlan& plan, const Module& m,
                            const Tensor& input) {
  std::optional<Tensor> received;
  (void)replay(plan, m, input, nullptr, {}, &received);
  if (!received) {
    throw std::logic_error("replay_input: the replay never reached the module");
  }
  return *received;
}

Tensor Module::replay(const ReplayPlan& plan, const Module& site,
                      const Tensor& input, int64_t* served_from_cache,
                      const SampleSlice& slice,
                      std::optional<Tensor>* site_input) {
  if (tl_replay != nullptr) {
    throw std::logic_error(
        "forward_from: a record/replay pass is already active");
  }
  if (!plan.usable()) {
    throw std::invalid_argument(
        "forward_from: plan is unusable (nothing recorded, or a module ran "
        "more than once)");
  }
  const auto it = plan.records_.find(&site);
  if (it == plan.records_.end()) {
    throw std::invalid_argument(
        "forward_from: site was not recorded in this plan");
  }
  if (slice.batch < 1 || slice.index < 0 || slice.index >= slice.batch) {
    throw std::invalid_argument("forward_from: sample slice out of range");
  }
  if (slice.widen_at != nullptr && !plan.skipped_for(*slice.widen_at, site)) {
    throw std::invalid_argument(
        "forward_from: the widen point must be recorded and enter after the "
        "site completes");
  }
  ReplayCtx ctx;
  ctx.plan = &plan;
  ctx.fire_enter = it->second.enter;
  ctx.slice = slice;
  ctx.site = &site;
  ctx.site_input = site_input;
  Tensor y;
  {
    ReplayScope scope(ctx);
    y = (*this)(slice.batch > 1
                    ? sample_rows(input, slice.index, slice.batch)
                    : input);
  }
  if (ctx.slice.widen_at != nullptr) {
    throw std::logic_error("forward_from: the replay never reached the widen "
                           "point");
  }
  if (served_from_cache != nullptr) *served_from_cache = ctx.served;
  return y;
}

Module::HookHandle Module::add_forward_hook(Hook h) {
  const HookHandle handle = next_handle_++;
  post_hooks_.emplace_back(handle, std::move(h));
  return handle;
}

Module::HookHandle Module::add_forward_pre_hook(Hook h) {
  const HookHandle handle = next_handle_++;
  pre_hooks_.emplace_back(handle, std::move(h));
  return handle;
}

void Module::remove_hook(HookHandle handle) {
  auto drop = [handle](auto& vec) {
    std::erase_if(vec, [handle](const auto& p) { return p.first == handle; });
  };
  drop(pre_hooks_);
  drop(post_hooks_);
}

void Module::clear_hooks() {
  pre_hooks_.clear();
  post_hooks_.clear();
}

std::vector<Parameter*> Module::parameters() {
  std::vector<Parameter*> out;
  for (Parameter* p : local_parameters()) out.push_back(p);
  for (auto& [name, child] : children_) {
    for (Parameter* p : child->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<std::pair<std::string, Parameter*>> Module::named_parameters() {
  std::vector<std::pair<std::string, Parameter*>> out;
  for (auto& [path, mod] : named_modules()) {
    for (Parameter* p : mod->local_parameters()) {
      out.emplace_back(path.empty() ? p->name : path + "." + p->name, p);
    }
  }
  return out;
}

std::vector<std::pair<std::string, Parameter*>> Module::named_buffers() {
  std::vector<std::pair<std::string, Parameter*>> out;
  for (auto& [path, mod] : named_modules()) {
    for (Parameter* p : mod->local_buffers()) {
      out.emplace_back(path.empty() ? p->name : path + "." + p->name, p);
    }
  }
  return out;
}

std::vector<Parameter*> Module::buffers() {
  std::vector<Parameter*> out;
  for (Parameter* p : local_buffers()) out.push_back(p);
  for (auto& [name, child] : children_) {
    for (Parameter* p : child->buffers()) out.push_back(p);
  }
  return out;
}

void Module::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

int64_t Module::parameter_count() {
  int64_t n = 0;
  for (Parameter* p : parameters()) n += p->value.numel();
  return n;
}

void Module::collect_named_modules(
    const std::string& prefix,
    std::vector<std::pair<std::string, Module*>>& out) {
  out.emplace_back(prefix, this);
  for (auto& [name, child] : children_) {
    child->collect_named_modules(prefix.empty() ? name : prefix + "." + name,
                                 out);
  }
}

std::vector<std::pair<std::string, Module*>> Module::named_modules() {
  std::vector<std::pair<std::string, Module*>> out;
  collect_named_modules("", out);
  return out;
}

Module* Module::find_module(const std::string& path) {
  for (auto& [p, m] : named_modules()) {
    if (p == path) return m;
  }
  return nullptr;
}

void Module::train(bool on) {
  training_ = on;
  for (auto& [name, child] : children_) child->train(on);
}

void Module::register_child(std::string name, Module& child) {
  children_.emplace_back(std::move(name), &child);
}

namespace {
constexpr uint32_t kWeightFileMagic = 0x47455731;  // "GEW1"
}

void Module::save_weights(const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("save_weights: cannot open " + path);
  auto params = parameters();
  for (Parameter* b : buffers()) params.push_back(b);
  const auto count = static_cast<uint64_t>(params.size());
  f.write(reinterpret_cast<const char*>(&kWeightFileMagic), sizeof(uint32_t));
  f.write(reinterpret_cast<const char*>(&count), sizeof(uint64_t));
  for (Parameter* p : params) {
    const auto n = static_cast<uint64_t>(p->value.numel());
    f.write(reinterpret_cast<const char*>(&n), sizeof(uint64_t));
    f.write(reinterpret_cast<const char*>(p->value.cdata()),
            static_cast<std::streamsize>(n * sizeof(float)));
  }
  if (!f) throw std::runtime_error("save_weights: write failed for " + path);
}

void Module::load_weights(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_weights: cannot open " + path);
  uint32_t magic = 0;
  uint64_t count = 0;
  f.read(reinterpret_cast<char*>(&magic), sizeof(uint32_t));
  f.read(reinterpret_cast<char*>(&count), sizeof(uint64_t));
  auto params = parameters();
  for (Parameter* b : buffers()) params.push_back(b);
  if (!f || magic != kWeightFileMagic ||
      count != static_cast<uint64_t>(params.size())) {
    throw std::runtime_error("load_weights: " + path +
                             " is not a weight file for this model");
  }
  for (Parameter* p : params) {
    uint64_t n = 0;
    f.read(reinterpret_cast<char*>(&n), sizeof(uint64_t));
    if (!f || n != static_cast<uint64_t>(p->value.numel())) {
      throw std::runtime_error("load_weights: shape mismatch for parameter '" +
                               p->name + "'");
    }
    f.read(reinterpret_cast<char*>(p->value.data()),
           static_cast<std::streamsize>(n * sizeof(float)));
  }
  if (!f) throw std::runtime_error("load_weights: truncated file " + path);
}

}  // namespace ge::nn
