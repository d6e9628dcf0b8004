#include "formats/fxp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"

namespace ge::fmt {

namespace {
int checked_data_bits(int int_bits, int frac_bits) {
  if (int_bits < 0 || frac_bits < 0 || int_bits + frac_bits < 1 ||
      int_bits + frac_bits > 62) {
    throw std::invalid_argument("FxpFormat: need 1 <= i+f <= 62, i,f >= 0");
  }
  return int_bits + frac_bits;
}
}  // namespace

FxpFormat::FxpFormat(int int_bits, int frac_bits)
    : NumberFormat(
          "fxp_1_" + std::to_string(int_bits) + "_" + std::to_string(frac_bits),
          1 + int_bits + frac_bits),
      int_bits_(int_bits),
      frac_bits_(frac_bits),
      min_code_(-(int64_t{1} << checked_data_bits(int_bits, frac_bits))),
      max_code_((int64_t{1} << (int_bits + frac_bits)) - 1),
      // Every finite float32 lies below 2^128, so the whole range takes the
      // absolute 2^-f step. The positive limit is the top code narrowed to
      // float32, which is 2^i once i + f > 24.
      rounder_(128, 23, -frac_bits,
               narrow_to_float(double(max_code_) * std::ldexp(1.0, -frac_bits)),
               static_cast<float>(std::ldexp(1.0, int_bits)),
               /*overflow_to_inf=*/false) {}

void FxpFormat::quantize_tensor_inplace(Tensor& t) {
  // Value-only format: elements quantize independently (see FloatFormat).
  elementwise_inplace(t, [this](float x) { return quantize_value(x); });
}

BitString FxpFormat::real_to_format(float value) const {
  const double scaled = double(value) * std::ldexp(1.0, frac_bits_);
  double code = std::nearbyint(scaled);
  code = std::clamp(code, double(min_code_), double(max_code_));
  // Two's-complement over bit_width_ bits.
  const auto icode = static_cast<int64_t>(code);
  const uint64_t mask = (bit_width_ >= 64)
                            ? ~uint64_t{0}
                            : ((uint64_t{1} << bit_width_) - 1);
  return BitString(static_cast<uint64_t>(icode) & mask, bit_width_);
}

float FxpFormat::format_to_real(const BitString& bits) const {
  if (bits.width() != bit_width_) {
    throw std::invalid_argument("FxpFormat: bitstring width mismatch");
  }
  uint64_t raw = bits.value();
  // Sign-extend from bit_width_ bits.
  const uint64_t sign_bit = uint64_t{1} << (bit_width_ - 1);
  int64_t code;
  if (raw & sign_bit) {
    code = static_cast<int64_t>(raw | ~((sign_bit << 1) - 1));
  } else {
    code = static_cast<int64_t>(raw);
  }
  return static_cast<float>(double(code) * std::ldexp(1.0, -frac_bits_));
}

double FxpFormat::abs_max() const { return std::ldexp(1.0, int_bits_); }

double FxpFormat::abs_min() const { return std::ldexp(1.0, -frac_bits_); }

std::string FxpFormat::spec() const { return name_; }

std::unique_ptr<NumberFormat> FxpFormat::clone() const {
  return std::make_unique<FxpFormat>(*this);
}

}  // namespace ge::fmt
