// Reference oracle for the FP, AFP and FxP formats: the float-arithmetic
// quantisers and scalar codecs (frexp/ldexp/nearbyint) that the bit-level
// rounding core in src/formats/rounding.hpp replaced. Tests compare the
// library against these bitwise.
//
// The oracle is known to be wrong where a format's grid is finer than
// float32's (exp_bits > 8, man_bits > 23, or an AFP range below 2^-126):
// the step 2^(e - m) underflows to 0 and round_to_step returns NaN. Keep
// such formats out of oracle comparisons.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "formats/number_format.hpp"

namespace ge::fmt::oracle {

/// Round-to-nearest-even of x onto the grid {k * step}.
inline float round_to_step(float x, float step) {
  // nearbyint obeys the current rounding mode; the default (and the mode
  // this library assumes) is round-to-nearest-even, matching IEEE-754.
  return static_cast<float>(std::nearbyint(x / step)) * step;
}

/// IEEE-style minifloat parameters. `exp_bias` is the effective bias; AFP
/// moves it with its offset register, FP uses 2^(e-1) - 1.
struct Minifloat {
  int exp_bits;
  int man_bits;
  int exp_bias;
  bool denormals;
  bool reserve_top_code;  ///< FP: top exponent code is Inf/NaN
  bool saturate;          ///< overflow clamps to abs_max instead of Inf

  int e_min() const { return 1 - exp_bias; }
  int e_max() const { return ((1 << exp_bits) - 2) - exp_bias; }
  double abs_max() const {
    return (2.0 - std::ldexp(1.0, -man_bits)) * std::ldexp(1.0, e_max());
  }
};

/// FloatFormat(e, m, {denormals, saturate}).
inline Minifloat fp(int e, int m, bool denormals = true,
                    bool saturate = false) {
  return {e, m, (1 << (e - 1)) - 1, denormals, true, saturate};
}

/// AfpFormat(e, m, {denormals}) with its offset register at `offset`.
inline Minifloat afp(int e, int m, int offset, bool denormals = false) {
  return {e, m, (1 << (e - 1)) - 1 + offset, denormals, false, true};
}

inline float quantize(const Minifloat& f, float x) {
  if (std::isnan(x)) return x;
  const float sign = std::signbit(x) ? -1.0f : 1.0f;
  const float ax = std::fabs(x);
  const float mx = static_cast<float>(f.abs_max());
  if (std::isinf(x)) return f.saturate ? sign * mx : x;
  if (ax == 0.0f) return sign * 0.0f;

  int e_unb = floor_log2(ax);
  if (e_unb < f.e_min()) {
    if (f.denormals) {
      const float step = pow2f(f.e_min() - f.man_bits);
      return sign * round_to_step(ax, step);
    }
    // No denormals: nearest of {0, min_normal} with ties to zero (even).
    const float min_normal = pow2f(f.e_min());
    return (ax > min_normal * 0.5f) ? sign * min_normal : sign * 0.0f;
  }
  const float step = pow2f(e_unb - f.man_bits);
  const float q = round_to_step(ax, step);
  if (q >= pow2f(e_unb + 1)) e_unb += 1;  // rounding bumped the exponent
  if (!f.reserve_top_code) {
    if (e_unb > f.e_max() || q > mx) return sign * mx;  // AFP saturates
    return sign * q;
  }
  if (e_unb > f.e_max() && q > mx) {
    return f.saturate ? sign * mx
                      : sign * std::numeric_limits<float>::infinity();
  }
  return sign * q;
}

/// Bits of quantize(value). FP codes NaN as a quiet-NaN payload and Inf
/// as the top exponent code; AFP (no reserved code) codes NaN as zero.
inline uint64_t encode(const Minifloat& f, float value) {
  const float q = quantize(f, value);
  const uint64_t sign = std::signbit(q) ? 1 : 0;
  const uint64_t exp_all_ones = (uint64_t{1} << f.exp_bits) - 1;
  uint64_t exp_field = 0;
  uint64_t man_field = 0;
  const float aq = std::fabs(q);
  if (std::isnan(q)) {
    if (f.reserve_top_code) {
      exp_field = exp_all_ones;
      man_field = uint64_t{1} << (f.man_bits - 1);
    }
  } else if (std::isinf(q)) {
    exp_field = exp_all_ones;
  } else if (aq != 0.0f) {
    const int e_unb = floor_log2(aq);
    if (e_unb < f.e_min()) {
      man_field = static_cast<uint64_t>(
          std::llround(aq / pow2f(f.e_min() - f.man_bits)));
    } else {
      exp_field = static_cast<uint64_t>(e_unb + f.exp_bias);
      const float frac = aq / pow2f(e_unb) - 1.0f;  // in [0, 1)
      man_field =
          static_cast<uint64_t>(std::llround(frac * pow2f(f.man_bits)));
    }
  }
  return (sign << (f.exp_bits + f.man_bits)) | (exp_field << f.man_bits) |
         man_field;
}

inline float decode(const Minifloat& f, uint64_t raw) {
  const uint64_t man_mask = (uint64_t{1} << f.man_bits) - 1;
  const uint64_t exp_mask = (uint64_t{1} << f.exp_bits) - 1;
  const uint64_t man_field = raw & man_mask;
  const uint64_t exp_field = (raw >> f.man_bits) & exp_mask;
  const bool sign = (raw >> (f.exp_bits + f.man_bits)) & 1;
  const float s = sign ? -1.0f : 1.0f;
  if (f.reserve_top_code && exp_field == exp_mask) {
    if (man_field == 0) return s * std::numeric_limits<float>::infinity();
    return std::numeric_limits<float>::quiet_NaN();
  }
  if (exp_field == 0) {
    if (!f.denormals) return s * 0.0f;
    return s * static_cast<float>(man_field) *
           pow2f(f.e_min() - f.man_bits);
  }
  const int e_unb = static_cast<int>(exp_field) - f.exp_bias;
  const float frac =
      1.0f + static_cast<float>(man_field) / pow2f(f.man_bits);
  return s * frac * pow2f(e_unb);
}

/// FxpFormat(int_bits, frac_bits) quantisation.
inline float fxp_quantize(int int_bits, int frac_bits, float x) {
  if (std::isnan(x)) return x;
  const double min_code = -std::ldexp(1.0, int_bits + frac_bits);
  const double max_code = std::ldexp(1.0, int_bits + frac_bits) - 1.0;
  const double scaled = double(x) * std::ldexp(1.0, frac_bits);
  double code = std::nearbyint(scaled);
  code = code < min_code ? min_code : (code > max_code ? max_code : code);
  return static_cast<float>(code * std::ldexp(1.0, -frac_bits));
}

}  // namespace ge::fmt::oracle
