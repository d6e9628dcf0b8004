#include "core/emulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "formats/format_registry.hpp"
#include "nn/loss.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"

namespace ge::core {

Emulator::Emulator(nn::Module& model, EmulatorConfig cfg)
    : model_(&model), cfg_(std::move(cfg)) {
  if (!fmt::is_valid_spec(cfg_.format_spec)) {
    throw std::invalid_argument("Emulator: unknown format spec '" +
                                cfg_.format_spec + "'");
  }
  for (const auto& [path, spec] : cfg_.per_layer_specs) {
    if (!fmt::is_valid_spec(spec)) {
      throw std::invalid_argument("Emulator: unknown per-layer spec '" +
                                  spec + "' for layer '" + path + "'");
    }
  }
  attach();
}

namespace {
const std::string& spec_for(const EmulatorConfig& cfg,
                            const std::string& path) {
  const auto it = cfg.per_layer_specs.find(path);
  return it != cfg.per_layer_specs.end() ? it->second : cfg.format_spec;
}
}  // namespace

Emulator::~Emulator() { detach(); }

void Emulator::attach() {
  obs::Span span("emulator", "attach", cfg_.format_spec);
  // Path-indexed view of the weight-source tree, built once: find_module
  // walks the whole tree per call, which made sharing-attach O(sites x
  // modules) — campaigns construct one replica emulator per worker.
  std::unordered_map<std::string, nn::Module*> src_by_path;
  if (cfg_.weight_source != nullptr) {
    for (auto& [path, mod] : cfg_.weight_source->named_modules()) {
      src_by_path.emplace(path, mod);
    }
  }
  for (auto& [path, mod] : model_->named_modules()) {
    const bool selected =
        std::find(cfg_.layer_kinds.begin(), cfg_.layer_kinds.end(),
                  mod->kind()) != cfg_.layer_kinds.end();
    if (!selected) continue;

    LayerSite site;
    site.path = path;
    site.module = mod;
    site.act_format = fmt::make_format(spec_for(cfg_, path));

    if (cfg_.quantize_weights) {
      // Offline weight conversion: each parameter gets a fresh format
      // instance (its metadata belongs to that tensor). With a
      // weight_source, the source model's already-quantised tensors are
      // shared instead (O(1) — all replicas then reference one frozen
      // copy of the quantised weights).
      nn::Module* src_mod = nullptr;
      if (cfg_.weight_source != nullptr) {
        const auto it = src_by_path.find(path);
        src_mod = it != src_by_path.end() ? it->second : nullptr;
      }
      for (nn::Parameter* p : mod->local_parameters()) {
        if (p->name == "weight") {
          weight_saved_index_[path] = saved_weights_.size();
        }
        saved_weights_.emplace_back(p, p->value);
        if (src_mod != nullptr) {
          nn::Parameter* src = nullptr;
          for (nn::Parameter* q : src_mod->local_parameters()) {
            if (q->name == p->name) src = q;
          }
          if (src == nullptr || src->value.shape() != p->value.shape()) {
            throw std::invalid_argument(
                "Emulator: weight_source has no matching parameter '" +
                p->name + "' at '" + path + "'");
          }
          p->value = src->value;
        } else {
          // The saved FP32 share above forces the in-place quantiser to
          // detach onto a fresh buffer, so the original stays pristine.
          auto wfmt = fmt::make_format(spec_for(cfg_, path));
          wfmt->quantize_tensor_inplace(p->value);
        }
        frozen_quantized_.push_back(p->value);
      }
    }
    if (cfg_.quantize_activations) {
      // The GoldenEye hook: convert this layer's output tensor in place.
      // Index-based site lookup stays valid across the vector's growth.
      const size_t site_index = sites_.size();
      site.hook = mod->add_forward_hook(
          [this, site_index](nn::Module&, Tensor& y) {
            LayerSite& s = sites_[site_index];
            // Attribution before the span (reverse destruction order keeps
            // it live when the span ends): profiled time inside the hook
            // lands under (format, layer) in the attribution table.
            obs::AttrScope attr(cfg_.format_spec, s.path);
            obs::Span hook_span("emulator", "site", s.path);
            if (obs::metrics_enabled()) {
              // Metrics path: an O(1) shared snapshot keeps the
              // pre-quantisation activations (the in-place write detaches
              // via copy-on-write) so the per-layer error summary can
              // compare. The copy exists only while metrics are on; values
              // are never altered, so results match the plain path bitwise.
              const Tensor before = y;
              s.act_format->quantize_tensor_inplace(y);
              obs::record_layer_quant_error(s.path, before.cdata(),
                                            y.cdata(), y.numel(),
                                            s.act_format->abs_max());
            } else {
              s.act_format->quantize_tensor_inplace(y);
            }
            if (post_quant_) post_quant_(s, y);
          });
    }
    site_index_[path] = sites_.size();
    sites_.push_back(std::move(site));
  }
}

void Emulator::detach() {
  obs::Span span("emulator", "detach", cfg_.format_spec);
  for (auto& s : sites_) {
    if (s.hook != 0 && s.module != nullptr) s.module->remove_hook(s.hook);
  }
  for (auto& [param, original] : saved_weights_) {
    param->value = original;
  }
  saved_weights_.clear();
  frozen_quantized_.clear();
  sites_.clear();
  site_index_.clear();
  weight_saved_index_.clear();
}

LayerSite* Emulator::site(const std::string& path) {
  const auto it = site_index_.find(path);
  return it != site_index_.end() ? &sites_[it->second] : nullptr;
}

const Tensor* Emulator::original_weight(const std::string& path) const {
  const auto it = weight_saved_index_.find(path);
  return it != weight_saved_index_.end() ? &saved_weights_[it->second].second
                                         : nullptr;
}

void Emulator::restore_weights(const std::string& path) {
  const auto it = weight_saved_index_.find(path);
  if (it == weight_saved_index_.end()) {
    throw std::invalid_argument("Emulator::restore_weights: no weight at '" +
                                path + "'");
  }
  // Re-share the frozen post-quantisation snapshot taken at attach time:
  // O(1), and bitwise identical to re-quantising the FP32 original (the
  // corrupting write detached onto a private copy, leaving it pristine).
  saved_weights_[it->second].first->value = frozen_quantized_[it->second];
}

float emulated_accuracy(nn::Module& model, const Tensor& images,
                        const std::vector<int64_t>& labels,
                        const std::string& format_spec) {
  model.eval();
  if (format_spec == "native") {
    return nn::accuracy(model(images), labels);
  }
  EmulatorConfig cfg;
  cfg.format_spec = format_spec;
  Emulator emu(model, cfg);
  return nn::accuracy(model(images), labels);
}

}  // namespace ge::core
