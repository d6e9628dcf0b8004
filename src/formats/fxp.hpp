// FxpFormat: signed fixed point, "FxP(1, i, f)" in the paper's notation —
// 1 sign bit, i integer bits, f fractional bits, two's-complement coding.
// The *radix* is the bit position separating integer from fraction (§II-A).
#pragma once

#include "formats/number_format.hpp"
#include "formats/rounding.hpp"

namespace ge::fmt {

class FxpFormat : public NumberFormat {
 public:
  /// int_bits >= 0, frac_bits >= 0, int_bits + frac_bits in [1, 62].
  FxpFormat(int int_bits, int frac_bits);

  void quantize_tensor_inplace(Tensor& t) override;
  BitString real_to_format(float value) const override;
  float format_to_real(const BitString& bits) const override;

  double abs_max() const override;  // |most negative| = 2^int_bits
  double abs_min() const override;  // one LSB = 2^-frac_bits

  std::string spec() const override;
  std::unique_ptr<NumberFormat> clone() const override;

  int int_bits() const noexcept { return int_bits_; }
  int frac_bits() const noexcept { return frac_bits_; }
  /// Radix position (bits below the binary point).
  int radix() const noexcept { return frac_bits_; }

  float quantize_value(float x) const { return rounder_.round(x); }

 private:
  int int_bits_;
  int frac_bits_;
  int64_t min_code_;  // -2^(i+f)
  int64_t max_code_;  //  2^(i+f) - 1
  Float32Rounder rounder_;  // the 2^-f grid, clamped to the code range
};

}  // namespace ge::fmt
