// FloatFormat: parameterised IEEE-754-style floating point, "eXmY".
//
// One class covers the whole named-FP family of the paper (§II-A): FP32 =
// e8m23, FP16 = e5m10, bfloat16 = e8m7, TensorFloat = e8m10, DLFloat =
// e6m9, FP8 = e4m3, and the low-bit points the use cases sweep (e2m5, ...).
// The top exponent code is reserved for Inf/NaN (IEEE semantics) and
// denormals can be disabled ("w/o DN" rows of Table I).
#pragma once

#include "formats/number_format.hpp"
#include "formats/rounding.hpp"

namespace ge::fmt {

class FloatFormat : public NumberFormat {
 public:
  struct Options {
    bool denormals = true;          ///< support subnormal numbers
    bool saturate_overflow = false; ///< overflow clamps to abs_max instead of Inf
  };

  /// exp_bits in [2, 11], man_bits in [1, 52].
  FloatFormat(int exp_bits, int man_bits, Options opt);
  FloatFormat(int exp_bits, int man_bits)
      : FloatFormat(exp_bits, man_bits, Options{}) {}

  /// --- the GoldenEye 4-method API ---------------------------------------
  void quantize_tensor_inplace(Tensor& t) override;
  BitString real_to_format(float value) const override;
  float format_to_real(const BitString& bits) const override;

  /// --- range ---------------------------------------------------------------
  double abs_max() const override;
  double abs_min() const override;

  std::string spec() const override;
  std::unique_ptr<NumberFormat> clone() const override;

  /// --- format parameters ------------------------------------------------
  int exp_bits() const noexcept { return exp_bits_; }
  int man_bits() const noexcept { return man_bits_; }
  int bias() const noexcept { return bias_; }
  bool denormals() const noexcept { return opt_.denormals; }

  /// Quantise one value to the nearest representable, on the float32 bit
  /// pattern (formats/rounding.hpp); the scalar bitstring methods agree
  /// with this exactly — tested.
  float quantize_value(float x) const { return rounder_.round(x); }

 private:
  int exp_bits_;
  int man_bits_;
  int bias_;   // 2^(e-1) - 1
  int e_min_;  // minimum normal (unbiased) exponent = 1 - bias
  int e_max_;  // maximum normal (unbiased) exponent = bias (top code reserved)
  Options opt_;
  Float32Rounder rounder_;
};

}  // namespace ge::fmt
