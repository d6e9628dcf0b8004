#include "core/injector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "obs/telemetry.hpp"

namespace ge::core {

namespace {

/// The Bernoulli-hit primitive behind ber_uniform and region thinning:
/// calls hit(slot) in ascending order for each slot of [0, slots) that a
/// Bernoulli(p) trial selects. Geometric gap sampling: the run of misses
/// before the next hit is floor(ln u / ln(1 - p)), u a 53-bit double in
/// (0, 1] from `engine`, so a sweep costs (hits + 1) draws, not one per
/// slot. p >= 1 hits every slot without drawing.
template <class Hit>
void for_each_bernoulli_hit(std::mt19937_64& engine, int64_t slots,
                            double p, Hit&& hit) {
  if (p >= 1.0) {
    for (int64_t s = 0; s < slots; ++s) hit(s);
    return;
  }
  const double log_miss = std::log1p(-p);  // < 0; exact for tiny p
  for (int64_t s = 0; s < slots; ++s) {
    // Never 0: ln 0 = -inf would read as "no more hits".
    const double u = static_cast<double>((engine() >> 11) + 1) * 0x1p-53;
    const double gap = std::floor(std::log(u) / log_miss);
    // Compared in double, so a gap past the end (up to +inf when p is
    // tiny) never reaches the int64 conversion.
    if (!(gap < static_cast<double>(slots - s))) return;
    s += static_cast<int64_t>(gap);
    hit(s);
  }
}

/// y's storage as (outer, count, inner) blocks for a row or channel fault:
/// region r is the inner-element run at position r of each outer block.
struct RegionAxes {
  int64_t outer, count, inner;
};

RegionAxes region_axes(ErrorModel model, const Tensor& y) {
  const int64_t n = y.numel();
  if (model == ErrorModel::kChannel) {
    switch (y.dim()) {
      case 4: return {y.size(0), y.size(1), y.size(2) * y.size(3)};
      case 3: return {y.size(0) * y.size(1), y.size(2), 1};
      case 2: return {y.size(0), y.size(1), 1};
      default: break;
    }
  } else if (y.dim() >= 2) {
    const int64_t w = y.size(-1);
    return {1, w > 0 ? n / w : 0, w};
  }
  return {1, n > 0 ? 1 : 0, n};
}

}  // namespace

const char* to_string(InjectionSite site) {
  switch (site) {
    case InjectionSite::kActivationValue: return "activation_value";
    case InjectionSite::kWeightValue: return "weight_value";
    case InjectionSite::kMetadata: return "metadata";
  }
  return "?";
}

const char* to_string(ErrorModel model) {
  switch (model) {
    case ErrorModel::kBitFlip: return "bit_flip";
    case ErrorModel::kStuckAt0: return "stuck_at_0";
    case ErrorModel::kStuckAt1: return "stuck_at_1";
    case ErrorModel::kBerUniform: return "ber_uniform";
    case ErrorModel::kBurst: return "burst";
    case ErrorModel::kRowBurst: return "row_burst";
    case ErrorModel::kChannel: return "channel";
  }
  return "?";
}

int64_t target_count(const InjectionSpec& spec, const Tensor& y,
                     const fmt::NumberFormat& f) {
  if (spec.site == InjectionSite::kMetadata) {
    const int64_t span = f.register_span(y.numel());
    return span > 0 ? (y.numel() + span - 1) / span : 0;
  }
  switch (spec.model) {
    case ErrorModel::kRowBurst:
    case ErrorModel::kChannel: return region_axes(spec.model, y).count;
    default: return y.numel();
  }
}

int64_t draw_target(const InjectionSpec& spec, const Tensor& y,
                    const fmt::NumberFormat& f, Rng& rng) {
  const int64_t n = target_count(spec, y, f);
  const int64_t fixed = spec.site == InjectionSite::kMetadata
                            ? spec.metadata_index
                            : spec.element;
  if (fixed < 0) return rng.randint(0, n - 1);
  if (fixed >= n) {
    throw std::invalid_argument("Injector: target index " +
                                std::to_string(fixed) + " out of range [0, " +
                                std::to_string(n) + ")");
  }
  return fixed;
}

Region region_of(const InjectionSpec& spec, const Tensor& y, int64_t r) {
  const RegionAxes a = region_axes(spec.model, y);
  return {r * a.inner, a.inner, a.count * a.inner, a.outer * a.inner};
}

Injector::Injector(Emulator& emulator, uint64_t seed)
    : emulator_(&emulator), rng_(seed) {
  emulator_->set_post_quant([this](LayerSite& site, Tensor& y) {
    for (size_t i = 0; i < faults_.size(); ++i) {
      ArmedFault& fault = faults_[i];
      if (fault.fired || site.path != fault.spec.layer_path) continue;
      fire(fault, i, site, &y);
    }
  });
}

Injector::~Injector() {
  disarm();
  emulator_->clear_post_quant();
}

std::vector<int> Injector::choose_bits(int width, int requested_bit,
                                       int count) {
  std::vector<int> bits;
  if (requested_bit >= 0) {
    if (requested_bit >= width) {
      throw std::invalid_argument("Injector: bit " +
                                  std::to_string(requested_bit) +
                                  " out of range for width " +
                                  std::to_string(width));
    }
    bits.push_back(requested_bit);
    --count;
  }
  while (count > 0) {
    const int b = static_cast<int>(draw_rng().randint(0, width - 1));
    if (std::find(bits.begin(), bits.end(), b) == bits.end()) {
      bits.push_back(b);
      --count;
    }
  }
  return bits;
}

void Injector::perturb(fmt::BitString& bits, ErrorModel model,
                       const std::vector<int>& chosen) const {
  for (int b : chosen) {
    switch (model) {
      case ErrorModel::kStuckAt0:
        bits.set_bit(b, false);
        break;
      case ErrorModel::kStuckAt1:
        bits.set_bit(b, true);
        break;
      default:
        // kBitFlip and every zoo model perturb by flipping.
        bits.flip_bit(b);
        break;
    }
  }
}

void Injector::arm(const InjectionSpec& spec) {
  disarm();
  arm_impl({spec});
}

void Injector::arm(const InjectionSpec& spec, const Rng& trial_rng) {
  disarm();
  trial_rng_ = trial_rng;  // after disarm(), which clears any old override
  try {
    arm_impl({spec});
  } catch (...) {
    trial_rng_.reset();
    throw;
  }
}

void Injector::arm_multi(const std::vector<InjectionSpec>& specs,
                         const Rng& trial_rng) {
  disarm();
  trial_rng_ = trial_rng;
  try {
    arm_impl(specs);
  } catch (...) {
    trial_rng_.reset();
    throw;
  }
}

void Injector::arm_impl(std::vector<InjectionSpec> specs) {
  if (specs.empty()) {
    throw std::invalid_argument("Injector: no injection specs");
  }
  std::unordered_set<std::string> layers;
  for (const InjectionSpec& spec : specs) {
    LayerSite* site = emulator_->site(spec.layer_path);
    if (site == nullptr) {
      throw std::invalid_argument("Injector: layer '" + spec.layer_path +
                                  "' is not instrumented");
    }
    if (spec.site == InjectionSite::kMetadata &&
        !site->act_format->has_metadata()) {
      throw std::invalid_argument("Injector: format '" +
                                  site->act_format->name() +
                                  "' exposes no metadata");
    }
    if (spec.num_bits < 1) {
      throw std::invalid_argument("Injector: num_bits must be >= 1");
    }
    if (is_zoo_model(spec.model) &&
        spec.site != InjectionSite::kActivationValue) {
      throw std::invalid_argument(
          std::string("Injector: error model '") + to_string(spec.model) +
          "' applies to the activation site only");
    }
    if (spec.model == ErrorModel::kBerUniform &&
        !(spec.ber > 0.0 && spec.ber <= 1.0)) {
      throw std::invalid_argument(
          "Injector: ber_uniform needs ber in (0, 1]");
    }
    if ((spec.model == ErrorModel::kRowBurst ||
         spec.model == ErrorModel::kChannel) &&
        !(spec.ber >= 0.0 && spec.ber <= 1.0)) {
      throw std::invalid_argument("Injector: ber must be in [0, 1]");
    }
    if (spec.model == ErrorModel::kBurst) {
      const int width = site->act_format->bit_width();
      if (spec.burst_len < 1 || spec.burst_len > width) {
        throw std::invalid_argument(
            "Injector: burst_len must be in [1, " + std::to_string(width) +
            "] for format " + site->act_format->name());
      }
      if (spec.bit >= 0 && spec.bit + spec.burst_len > width) {
        throw std::invalid_argument(
            "Injector: burst at bit " + std::to_string(spec.bit) +
            " of length " + std::to_string(spec.burst_len) +
            " overruns width " + std::to_string(width));
      }
    }
    if (!layers.insert(spec.layer_path).second) {
      throw std::invalid_argument(
          "Injector: duplicate target layer '" + spec.layer_path +
          "' in multi-point arming");
    }
  }
  record_.reset();
  records_.clear();
  faults_.reserve(specs.size());
  for (InjectionSpec& spec : specs) {
    faults_.push_back(ArmedFault{std::move(spec), false});
    obs::add(obs::Counter::kInjections);
  }
  // Weight faults apply offline, in arming order, before any forward runs.
  for (size_t i = 0; i < faults_.size(); ++i) {
    ArmedFault& fault = faults_[i];
    if (fault.spec.site != InjectionSite::kWeightValue) continue;
    LayerSite* site = emulator_->site(fault.spec.layer_path);
    fire(fault, i, *site, nullptr);
  }
}

void Injector::disarm() {
  for (const std::string& path : corrupted_weight_paths_) {
    emulator_->restore_weights(path);
  }
  corrupted_weight_paths_.clear();
  faults_.clear();
  trial_rng_.reset();
}

void Injector::fire(ArmedFault& fault, size_t index, LayerSite& site,
                    Tensor* y) {
  InjectionRecord rec;
  switch (fault.spec.site) {
    case InjectionSite::kActivationValue:
      rec = apply_activation(fault.spec, site, *y);
      break;
    case InjectionSite::kMetadata:
      rec = apply_metadata(fault.spec, site, *y);
      break;
    case InjectionSite::kWeightValue:
      rec = apply_weight(fault.spec, site);
      break;
  }
  fault.fired = true;
  if (index == 0) record_ = rec;
  records_.push_back(std::move(rec));
}

InjectionRecord Injector::apply_activation(const InjectionSpec& spec,
                                           LayerSite& site, Tensor& y) {
  switch (spec.model) {
    case ErrorModel::kBerUniform: return apply_ber(spec, site, y);
    case ErrorModel::kBurst: return apply_burst(spec, site, y);
    case ErrorModel::kRowBurst:
    case ErrorModel::kChannel: return apply_region(spec, site, y);
    default: break;  // classic single-element models below
  }
  fmt::NumberFormat& f = *site.act_format;
  const int64_t element = draw_target(spec, y, f, draw_rng());
  InjectionRecord rec;
  rec.layer_path = site.path;
  rec.site = InjectionSite::kActivationValue;
  rec.model = spec.model;
  rec.error_model = to_string(spec.model);
  rec.element = element;
  rec.value_before = y[element];

  fmt::BitString bits = f.real_to_format_at(y[element], element);
  rec.bits = choose_bits(bits.width(), spec.bit, spec.num_bits);
  perturb(bits, spec.model, rec.bits);
  y[element] = f.format_to_real_at(bits, element);
  rec.value_after = y[element];
  rec.affected = 1;
  return rec;
}

InjectionRecord Injector::apply_ber(const InjectionSpec& spec,
                                    LayerSite& site, Tensor& y) {
  fmt::NumberFormat& f = *site.act_format;
  InjectionRecord rec;
  rec.layer_path = site.path;
  rec.site = InjectionSite::kActivationValue;
  rec.model = spec.model;
  rec.error_model = to_string(spec.model);

  // Bernoulli hits over the element-major, bit-minor slot index (slot =
  // element * width + bit), drawn from the trial stream alone, so a trial
  // reproduces bitwise on any thread. Hits arrive in ascending slot order:
  // an element's bits are complete once a later slot is hit, and only hit
  // elements pay the encode/decode round trip.
  const int width = f.bit_width();
  int64_t element = -1;
  std::vector<int> hit;
  const auto perturb_element = [&] {
    fmt::BitString bits = f.real_to_format_at(y[element], element);
    perturb(bits, spec.model, hit);
    const float before = y[element];
    y[element] = f.format_to_real_at(bits, element);
    if (rec.affected == 0) {
      rec.element = element;
      rec.bits = hit;
      rec.value_before = before;
      rec.value_after = y[element];
    }
    ++rec.affected;
  };
  for_each_bernoulli_hit(draw_rng().engine(), y.numel() * width, spec.ber,
                         [&](int64_t slot) {
                           if (slot / width != element) {
                             if (element >= 0) perturb_element();
                             element = slot / width;
                             hit.clear();
                           }
                           hit.push_back(static_cast<int>(slot % width));
                         });
  if (element >= 0) perturb_element();
  return rec;
}

InjectionRecord Injector::apply_burst(const InjectionSpec& spec,
                                      LayerSite& site, Tensor& y) {
  fmt::NumberFormat& f = *site.act_format;
  const int64_t element = draw_target(spec, y, f, draw_rng());
  const int width = f.bit_width();
  const int start = spec.bit >= 0
                        ? spec.bit
                        : static_cast<int>(
                              draw_rng().randint(0, width - spec.burst_len));
  InjectionRecord rec;
  rec.layer_path = site.path;
  rec.site = InjectionSite::kActivationValue;
  rec.model = spec.model;
  rec.error_model = to_string(spec.model);
  rec.element = element;
  rec.value_before = y[element];
  rec.bits.reserve(static_cast<size_t>(spec.burst_len));
  for (int b = start; b < start + spec.burst_len; ++b) rec.bits.push_back(b);

  fmt::BitString bits = f.real_to_format_at(y[element], element);
  perturb(bits, spec.model, rec.bits);
  y[element] = f.format_to_real_at(bits, element);
  rec.value_after = y[element];
  rec.affected = 1;
  return rec;
}

InjectionRecord Injector::apply_region(const InjectionSpec& spec,
                                       LayerSite& site, Tensor& y) {
  fmt::NumberFormat& f = *site.act_format;
  // Writes go through y's own element accessor at true storage indices,
  // so block-context formats (BFP) encode/decode each element inside its
  // dense-capture block.
  const Region region =
      region_of(spec, y, draw_target(spec, y, f, draw_rng()));

  InjectionRecord rec;
  rec.layer_path = site.path;
  rec.site = InjectionSite::kActivationValue;
  rec.model = spec.model;
  rec.error_model = to_string(spec.model);
  // Draw order is fixed: region, then the shared bit set, then the
  // thinning hits over the region's elements in region order — every hit
  // element sees the same perturbed bit positions (a channel-wide datapath
  // fault). ber 0 means no thinning: every element, no draws.
  rec.bits = choose_bits(f.bit_width(), spec.bit, spec.num_bits);
  for_each_bernoulli_hit(
      draw_rng().engine(), region.size, spec.ber > 0.0 ? spec.ber : 1.0,
      [&](int64_t i) {
        const int64_t s = region.at(i);
        fmt::BitString bits = f.real_to_format_at(y[s], s);
        perturb(bits, spec.model, rec.bits);
        const float before = y[s];
        y[s] = f.format_to_real_at(bits, s);
        if (rec.affected == 0) {
          rec.element = s;
          rec.value_before = before;
          rec.value_after = y[s];
        }
        ++rec.affected;
      });
  return rec;
}

InjectionRecord Injector::apply_metadata(const InjectionSpec& spec,
                                         LayerSite& site, Tensor& y) {
  fmt::NumberFormat& f = *site.act_format;
  const auto fields = f.metadata_fields();
  if (fields.empty()) {
    throw std::logic_error("Injector: no metadata fields on format");
  }
  const fmt::MetadataField* field = &fields.front();
  if (!spec.metadata_field.empty()) {
    field = nullptr;
    for (const auto& fd : fields) {
      if (fd.name == spec.metadata_field) field = &fd;
    }
    if (field == nullptr) {
      throw std::invalid_argument("Injector: unknown metadata field '" +
                                  spec.metadata_field + "'");
    }
  }
  const int64_t index = draw_target(spec, y, f, draw_rng());

  InjectionRecord rec;
  rec.layer_path = site.path;
  rec.site = InjectionSite::kMetadata;
  rec.model = spec.model;
  rec.error_model = to_string(spec.model);
  rec.metadata_field = field->name;
  rec.metadata_index = index;

  fmt::BitString bits = f.read_metadata(field->name, index);
  rec.bits = choose_bits(bits.width(), spec.bit, spec.num_bits);
  perturb(bits, spec.model, rec.bits);
  f.write_metadata(field->name, index, bits);
  // Re-decode the whole tensor under the corrupted register: a single
  // metadata bit flip behaves as a multi-bit flip of the data (§II-B).
  y = f.decode_last_tensor();
  rec.affected = y.numel();  // every element re-decodes under the fault
  return rec;
}

InjectionRecord Injector::apply_weight(const InjectionSpec& spec,
                                       LayerSite& site) {
  nn::Parameter* weight = nullptr;
  for (nn::Parameter* p : site.module->local_parameters()) {
    if (p->name == "weight") weight = p;
  }
  if (weight == nullptr) {
    throw std::invalid_argument("Injector: layer '" + site.path +
                                "' has no weight parameter");
  }
  // A cloned format instance re-captures this weight tensor's metadata so
  // the scalar encode/decode is faithful to the quantised weights. The
  // capture runs on a COW scratch share: the parameter tensor (possibly
  // referenced by every campaign replica) is never written through.
  auto wfmt = site.act_format->clone();
  Tensor scratch = weight->value;
  wfmt->quantize_tensor_inplace(scratch);

  const int64_t element =
      spec.element >= 0 ? spec.element
                        : draw_rng().randint(0, weight->value.numel() - 1);
  InjectionRecord rec;
  rec.layer_path = site.path;
  rec.site = InjectionSite::kWeightValue;
  rec.model = spec.model;
  rec.error_model = to_string(spec.model);
  rec.element = element;
  rec.value_before = weight->value[element];

  fmt::BitString bits =
      wfmt->real_to_format_at(weight->value[element], element);
  rec.bits = choose_bits(bits.width(), spec.bit, spec.num_bits);
  perturb(bits, spec.model, rec.bits);
  weight->value[element] = wfmt->format_to_real_at(bits, element);
  rec.value_after = weight->value[element];
  rec.affected = 1;

  corrupted_weight_paths_.push_back(site.path);
  return rec;
}

}  // namespace ge::core
