#include "formats/afp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/tensor_ops.hpp"

namespace ge::fmt {

namespace {
std::string afp_name(int e, int m, const AfpFormat::Options& o) {
  std::string s = "afp_e" + std::to_string(e) + "m" + std::to_string(m);
  if (o.denormals) s += "_dn";
  return s;
}
}  // namespace

AfpFormat::AfpFormat(int exp_bits, int man_bits, Options opt)
    : NumberFormat(afp_name(exp_bits, man_bits, opt), 1 + exp_bits + man_bits),
      exp_bits_(exp_bits),
      man_bits_(man_bits),
      opt_(opt),
      standard_bias_((1 << (exp_bits - 1)) - 1),
      bias_offset_(0),
      rounder_(make_rounder()) {
  if (exp_bits < 2 || exp_bits > 8) {
    throw std::invalid_argument("AfpFormat: exp_bits must be in [2, 8]");
  }
  if (man_bits < 1 || man_bits > 23) {
    throw std::invalid_argument("AfpFormat: man_bits must be in [1, 23]");
  }
}

Float32Rounder AfpFormat::make_rounder() const {
  // AFP has no Inf: overflow saturates.
  return Float32Rounder::minifloat(e_min(), man_bits_, opt_.denormals,
                                   AfpFormat::abs_max(),
                                   /*overflow_to_inf=*/false);
}

void AfpFormat::set_bias_offset(int offset) {
  bias_offset_ = offset;
  rounder_ = make_rounder();
}

void AfpFormat::quantize_tensor_inplace(Tensor& t) {
  // Adaptive step: move the representable range onto the data, as far as
  // the offset register allows.
  const float data_max = ops::max_abs(t);
  if (data_max > 0.0f && std::isfinite(data_max)) {
    const int e_data = floor_log2(data_max);
    const int desired_bias = ((1 << exp_bits_) - 2) - e_data;
    set_bias_offset(std::clamp(desired_bias - standard_bias_, kOffsetMin,
                               kOffsetMax));
  }
  // Persistent-register fault replay needs the pre-quantisation values, so
  // AFP always captures them (capacity reused across captures); the same
  // buffer doubles as the `before` image for record_quantization.
  const int64_t n = t.numel();
  last_shape_ = t.shape();
  const float* cp = t.cdata();
  last_vals_.assign(cp, cp + n);

  // Metadata (the bias offset) is fixed above in a serial pass; the element
  // loop is then pure per-value work and chunks across threads.
  float* p = t.data();
  parallel::parallel_for(0, n, 4096, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) p[i] = quantize_value(p[i]);
  });
  obs::record_quantization(last_vals_.data(), p, n, abs_max());
}

BitString AfpFormat::real_to_format(float value) const {
  const auto q = std::bit_cast<uint32_t>(quantize_value(value));
  const uint64_t sign = q >> 31;
  const uint32_t aq = q & 0x7FFFFFFFu;
  MinifloatFields f;  // NaN (and zero) encode as all-zero fields
  if (aq != 0 && aq < 0x7F800000u) {
    f = minifloat_fields(aq, exp_bias(), man_bits_);
  }
  const uint64_t bits =
      (sign << (exp_bits_ + man_bits_)) | (f.exp << man_bits_) | f.man;
  return BitString(bits, bit_width_);
}

float AfpFormat::format_to_real(const BitString& bits) const {
  if (bits.width() != bit_width_) {
    throw std::invalid_argument("AfpFormat: bitstring width mismatch");
  }
  const uint64_t raw = bits.value();
  const uint64_t man_field = raw & ((uint64_t{1} << man_bits_) - 1);
  const uint64_t exp_field =
      (raw >> man_bits_) & ((uint64_t{1} << exp_bits_) - 1);
  const bool sign = (raw >> (exp_bits_ + man_bits_)) & 1;
  if (exp_field == 0 && !opt_.denormals) return sign ? -0.0f : 0.0f;
  // All non-zero exponent codes decode as normals (no Inf/NaN in AFP);
  // faulty values stay finite, as in a saturating accelerator datapath.
  return minifloat_value(sign, exp_field, man_field, exp_bias(), man_bits_);
}

std::vector<MetadataField> AfpFormat::metadata_fields() const {
  return {MetadataField{"exp_bias", kOffsetBits, 1}};
}

BitString AfpFormat::read_metadata(const std::string& field,
                                   int64_t index) const {
  if (field != "exp_bias" || index != 0) {
    throw std::logic_error("AfpFormat: unknown metadata register '" + field +
                           "[" + std::to_string(index) + "]'");
  }
  const uint64_t mask = (uint64_t{1} << kOffsetBits) - 1;
  return BitString(static_cast<uint64_t>(bias_offset_) & mask, kOffsetBits);
}

void AfpFormat::write_metadata(const std::string& field, int64_t index,
                               const BitString& bits) {
  if (field != "exp_bias" || index != 0 || bits.width() != kOffsetBits) {
    throw std::logic_error("AfpFormat: bad metadata write to '" + field + "'");
  }
  // two's-complement decode of the offset register
  const auto raw = static_cast<int>(bits.value());
  const int sign_bit = 1 << (kOffsetBits - 1);
  set_bias_offset((raw & sign_bit) ? raw - (1 << kOffsetBits) : raw);
}

Tensor AfpFormat::decode_last_tensor() const {
  if (last_vals_.empty()) {
    throw std::logic_error("AfpFormat: no tensor converted yet");
  }
  // Persistent-register fault: the corrupted bias governs both ends of the
  // value lifetime, so the tensor re-materialises as a *re-quantisation*
  // of the original values under the moved representable range (clipping
  // at the new max, flushing below the new min) — see header.
  Tensor out(last_shape_);
  const float* pin = last_vals_.data();
  float* po = out.data();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = quantize_value(pin[i]);
  return out;
}

double AfpFormat::abs_max() const {
  return (2.0 - std::ldexp(1.0, -man_bits_)) * std::ldexp(1.0, e_max());
}

double AfpFormat::abs_min() const {
  return opt_.denormals ? std::ldexp(1.0, e_min() - man_bits_)
                        : std::ldexp(1.0, e_min());
}

std::string AfpFormat::spec() const { return name_; }

std::unique_ptr<NumberFormat> AfpFormat::clone() const {
  return std::make_unique<AfpFormat>(*this);
}

}  // namespace ge::fmt
