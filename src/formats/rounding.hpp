// Bit-level float32 rounding core shared by the FP, AFP and FxP formats.
//
// Float32Rounder rounds a float32 to nearest-even onto a format's value
// grid with integer operations on the float32 bit pattern. One grid model
// covers the three quantisers:
//   - at or above 2^e_min the grid is relative: `man_bits` fraction bits
//     below the leading bit (an IEEE normal);
//   - below 2^e_min it is the fixed absolute step 2^step_exp. IEEE
//     denormals step by 2^(e_min - m). Flush-to-zero formats step by
//     2^e_min, which rounds to {0, min normal} with the tie going to zero.
//     Fixed point steps by 2^-f everywhere and passes e_min = 128;
//   - after rounding, a magnitude above the sign's limit becomes that
//     sign's overflow value: Inf, or the limit itself when saturating.
// NaN passes through unchanged and the sign of zero is kept.
//
// Targets whose grid is finer than float32's (e_min < -126 or m > 23) round
// float32 denormal inputs on the relative grid, so every input comes back as
// the correctly rounded float32 value; with e >= 8 and m >= 23 the rounder
// is the identity on finite inputs.
//
// Every constant is derived once, in the constructor. round() is a handful
// of integer operations plus, below 2^e_min, one int-to-float multiply.
//
// The minifloat_* helpers are the matching scalar codec: the bit fields of
// an IEEE-style code (1 sign, e exponent, m mantissa bits, exponent code 0
// subnormal) from a float32 on its grid, and the value of such fields.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

namespace ge::fmt {

/// Narrow a double to float32 with round-to-nearest-even, mapping
/// magnitudes that round past FLT_MAX to +/-Inf (a plain cast of such a
/// value is undefined behaviour).
inline float narrow_to_float(double d) {
  constexpr double kRoundsToInf = 0x1.ffffffp127;  // FLT_MAX + half an ulp
  if (d >= kRoundsToInf) return std::numeric_limits<float>::infinity();
  if (d <= -kRoundsToInf) return -std::numeric_limits<float>::infinity();
  return static_cast<float>(d);
}

class Float32Rounder {
 public:
  /// Grid: `man_bits` fraction bits at or above 2^e_min, multiples of
  /// 2^step_exp below. Magnitudes above `max_pos` (positive inputs) or
  /// `max_neg` (negative inputs) become Inf when `overflow_to_inf`, else
  /// that limit.
  Float32Rounder(int e_min, int man_bits, int step_exp, float max_pos,
                 float max_neg, bool overflow_to_inf)
      : threshold_(e_min < -149  ? 1u
                   : e_min > 127 ? kInfBits
                                 : std::bit_cast<uint32_t>(pow2(e_min))),
        man_bits_(man_bits),
        rel_shift_(std::max(23 - man_bits, 0)),
        rel_lsb_(rel_shift_ > 0 ? uint32_t{1} << rel_shift_ : 0u),
        rel_half_(rel_shift_ > 0 ? (uint32_t{1} << (rel_shift_ - 1)) - 1 : 0u),
        rel_mask_(~((uint32_t{1} << rel_shift_) - 1)),
        abs_base_(step_exp + 150),
        abs_step_bits_(step_exp < -149
                           ? 0u
                           : std::bit_cast<uint32_t>(pow2(step_exp))),
        limit_{std::bit_cast<uint32_t>(max_pos),
               std::bit_cast<uint32_t>(max_neg)},
        overflow_{overflow_to_inf ? kInfBits : limit_[0],
                  overflow_to_inf ? kInfBits : limit_[1]} {}

  /// IEEE-style grid (FP, AFP): normals from 2^e_min with `man_bits`
  /// fraction bits, denormals or flush-to-zero below, and the symmetric
  /// limit `abs_max` (narrowed to float32).
  static Float32Rounder minifloat(int e_min, int man_bits, bool denormals,
                                  double abs_max, bool overflow_to_inf) {
    const float mx = narrow_to_float(abs_max);
    return Float32Rounder(e_min, man_bits,
                          denormals ? e_min - man_bits : e_min, mx, mx,
                          overflow_to_inf);
  }

  float round(float x) const {
    const uint32_t bits = std::bit_cast<uint32_t>(x);
    const uint32_t sign = bits & 0x80000000u;
    uint32_t a = bits & 0x7FFFFFFFu;
    if (a > kInfBits) return x;  // NaN
    if (a >= threshold_) {
      if (a >= 0x00800000u) {
        // Inf is a fixed point: its fraction is zero, so nothing carries.
        a = (a + rel_half_ + ((a & rel_lsb_) >> rel_shift_)) & rel_mask_;
      } else {
        // float32 denormal on a relative grid (targets past float32's range)
        a = round_off(a, (31 - std::countl_zero(a)) - man_bits_);
      }
    } else {
      // Absolute step. A float32 with exponent field E has ulp 2^(E - 150)
      // (denormals: E = 1), so the step drops step_exp + 150 - E bits of its
      // 24-bit significand; 25 or more always round it to zero.
      const uint32_t e_field = a >> 23;
      const int drop = abs_base_ - static_cast<int>(std::max(e_field, 1u));
      if (drop > 0) {
        const uint32_t sig = (a & 0x007FFFFFu) | (e_field ? 0x00800000u : 0u);
        const int d = std::min(drop, 25);
        const uint32_t steps = round_off(sig, d) >> d;
        a = std::bit_cast<uint32_t>(static_cast<float>(steps) *
                                    std::bit_cast<float>(abs_step_bits_));
      }
    }
    const uint32_t neg = sign >> 31;
    if (a > limit_[neg]) a = overflow_[neg];
    return std::bit_cast<float>(a | sign);
  }

 private:
  static constexpr uint32_t kInfBits = 0x7F800000u;

  /// 2^e as float32 for e in [-149, 127].
  static float pow2(int e) {
    return std::bit_cast<float>(e >= -126
                                    ? static_cast<uint32_t>(e + 127) << 23
                                    : uint32_t{1} << (e + 149));
  }

  /// Round v to a multiple of 2^drop, ties to even (drop in [1, 31]; no-op
  /// for drop <= 0).
  static uint32_t round_off(uint32_t v, int drop) {
    if (drop <= 0) return v;
    const uint32_t half_m1 = (uint32_t{1} << (drop - 1)) - 1;
    return (v + half_m1 + ((v >> drop) & 1u)) & ~((uint32_t{1} << drop) - 1);
  }

  // Constants are integers so the element loops' float stores cannot alias
  // them and force reloads.
  uint32_t threshold_;       // |x| bits at and above which the grid is relative
  int man_bits_;             // relative-grid fraction bits
  int rel_shift_;            // float32 fraction bits a normal input drops
  uint32_t rel_lsb_;         // lowest kept fraction bit (0 when none dropped)
  uint32_t rel_half_;        // half an output ulp, minus one
  uint32_t rel_mask_;        // clears the dropped bits
  int abs_base_;             // step_exp + 150
  uint32_t abs_step_bits_;   // 2^step_exp
  uint32_t limit_[2];        // by sign: largest magnitude kept
  uint32_t overflow_[2];     // by sign: what a larger magnitude becomes
};

/// Exponent and mantissa fields of an IEEE-style code.
struct MinifloatFields {
  uint64_t exp = 0;
  uint64_t man = 0;
};

/// Fields of a finite non-zero float32 magnitude `a` (bit pattern, sign
/// clear) that lies on the grid of a format with exponent `bias` and
/// `man_bits` mantissa bits; magnitudes below 2^(1 - bias) get exponent
/// code 0 (subnormal).
inline MinifloatFields minifloat_fields(uint32_t a, int bias, int man_bits) {
  // |a| = sig * 2^(exp - 23) with sig's leading bit at 23
  int exp = static_cast<int>(a >> 23) - 127;
  uint64_t sig = (a & 0x007FFFFFu) | 0x00800000u;
  if (a < 0x00800000u) {
    const int lead = 31 - std::countl_zero(a);
    exp = lead - 149;
    sig = uint64_t{a} << (23 - lead);
  }
  auto shift = [](uint64_t v, int k) { return k >= 0 ? v << k : v >> -k; };
  const int e_min = 1 - bias;
  if (exp < e_min) return {0, shift(sig, exp - 23 - (e_min - man_bits))};
  return {static_cast<uint64_t>(exp + bias),
          shift(sig & 0x007FFFFFu, man_bits - 23)};
}

/// Value of finite fields as float32, rounded to nearest-even where the
/// format is wider than float32: (-1)^sign * 1.man * 2^(exp - bias), or
/// man * 2^(1 - bias - man_bits) for exponent code 0. Requires
/// exp - bias in [-1022, 1023] and man_bits <= 52, so the value is exact
/// as a double.
inline float minifloat_value(bool sign, uint64_t exp, uint64_t man, int bias,
                             int man_bits) {
  double v;
  if (exp == 0) {
    // 2^(1 - bias - man_bits) >= 2^-1074, the smallest double
    const int k = 1 - bias - man_bits;
    const uint64_t step = k >= -1022 ? static_cast<uint64_t>(k + 1023) << 52
                                     : uint64_t{1} << (k + 1074);
    v = static_cast<double>(man) * std::bit_cast<double>(step);
  } else {
    const int64_t e = static_cast<int64_t>(exp) - bias;
    v = std::bit_cast<double>((static_cast<uint64_t>(e + 1023) << 52) |
                              (man << (52 - man_bits)));
  }
  return narrow_to_float(sign ? -v : v);
}

}  // namespace ge::fmt
