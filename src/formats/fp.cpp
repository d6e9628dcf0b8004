#include "formats/fp.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"

namespace ge::fmt {

namespace {
std::string fp_name(int e, int m, const FloatFormat::Options& o) {
  std::string s = "fp_e" + std::to_string(e) + "m" + std::to_string(m);
  if (!o.denormals) s += "_nodn";
  if (o.saturate_overflow) s += "_sat";
  return s;
}

double fp_abs_max(int man_bits, int e_max) {
  return (2.0 - std::ldexp(1.0, -man_bits)) * std::ldexp(1.0, e_max);
}
}  // namespace

FloatFormat::FloatFormat(int exp_bits, int man_bits, Options opt)
    : NumberFormat(fp_name(exp_bits, man_bits, opt), 1 + exp_bits + man_bits),
      exp_bits_(exp_bits),
      man_bits_(man_bits),
      bias_((1 << (exp_bits - 1)) - 1),
      e_min_(1 - bias_),
      e_max_(bias_),
      opt_(opt),
      rounder_(Float32Rounder::minifloat(e_min_, man_bits, opt.denormals,
                                         fp_abs_max(man_bits, e_max_),
                                         !opt.saturate_overflow)) {
  if (exp_bits < 2 || exp_bits > 11) {
    throw std::invalid_argument("FloatFormat: exp_bits must be in [2, 11]");
  }
  if (man_bits < 1 || man_bits > 52) {
    throw std::invalid_argument("FloatFormat: man_bits must be in [1, 52]");
  }
}

void FloatFormat::quantize_tensor_inplace(Tensor& t) {
  // Fast tensorised path: one fused in-place pass, no bitstring
  // materialisation. Value-only format (no tensor-level metadata), so
  // elements quantize independently and the loop chunks across threads.
  elementwise_inplace(t, [this](float x) { return quantize_value(x); });
}

BitString FloatFormat::real_to_format(float value) const {
  const auto q = std::bit_cast<uint32_t>(quantize_value(value));
  const uint64_t sign = q >> 31;
  const uint32_t aq = q & 0x7FFFFFFFu;
  const uint64_t exp_all_ones = (uint64_t{1} << exp_bits_) - 1;
  MinifloatFields f;
  if (aq > 0x7F800000u) {
    f = {exp_all_ones, uint64_t{1} << (man_bits_ - 1)};  // quiet-NaN payload
  } else if (aq == 0x7F800000u) {
    f.exp = exp_all_ones;
  } else if (aq != 0) {
    f = minifloat_fields(aq, bias_, man_bits_);
  }
  const uint64_t bits =
      (sign << (exp_bits_ + man_bits_)) | (f.exp << man_bits_) | f.man;
  return BitString(bits, bit_width_);
}

float FloatFormat::format_to_real(const BitString& bits) const {
  if (bits.width() != bit_width_) {
    throw std::invalid_argument("FloatFormat: bitstring width mismatch");
  }
  const uint64_t raw = bits.value();
  const uint64_t man_mask = (uint64_t{1} << man_bits_) - 1;
  const uint64_t exp_mask = (uint64_t{1} << exp_bits_) - 1;
  const uint64_t man_field = raw & man_mask;
  const uint64_t exp_field = (raw >> man_bits_) & exp_mask;
  const bool sign = (raw >> (exp_bits_ + man_bits_)) & 1;

  if (exp_field == exp_mask) {
    if (man_field != 0) return std::numeric_limits<float>::quiet_NaN();
    return sign ? -std::numeric_limits<float>::infinity()
                : std::numeric_limits<float>::infinity();
  }
  if (exp_field == 0 && !opt_.denormals) {
    return sign ? -0.0f : 0.0f;  // denormals disabled: reads as 0
  }
  return minifloat_value(sign, exp_field, man_field, bias_, man_bits_);
}

double FloatFormat::abs_max() const { return fp_abs_max(man_bits_, e_max_); }

double FloatFormat::abs_min() const {
  return opt_.denormals ? std::ldexp(1.0, e_min_ - man_bits_)
                        : std::ldexp(1.0, e_min_);
}

std::string FloatFormat::spec() const { return name_; }

std::unique_ptr<NumberFormat> FloatFormat::clone() const {
  return std::make_unique<FloatFormat>(*this);
}

}  // namespace ge::fmt
