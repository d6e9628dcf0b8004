// Exhaustive and structured conformance of the bit-level quantisers.
//
// 1. Every code of every value format up to 16 bits: decode the code to x,
//    then x must be a fixed point of quantize_value and of the tensor
//    kernel, and real_to_format(x) must give the code back. FP/AFP
//    decoding must also match the oracle bitwise.
//    Documented exceptions:
//      - NaN: FP codes with an all-ones exponent and a non-zero mantissa
//        (and posit NaR) decode to NaN; NaN quantises to NaN and encodes to
//        the format's one canonical NaN code. Comparisons treat every NaN
//        as one class, since payloads are not part of any format.
//      - Signed zero: -0 is a code of its own for FP/AFP and round-trips
//        with its sign; subnormal codes of a no-denormal format decode to
//        +/-0 and encode to the signed-zero code.
//      - Saturation: the Inf codes of a saturating FP format decode to
//        +/-Inf, and AFP's all-ones exponent codes (a fault can produce
//        them) decode above abs_max; both quantise and encode to +/-max.
//        The tensor checks leave such codes out, since AFP's kernel would
//        move its offset onto them.
// 2. A structured float32 sweep against the float-arithmetic oracle
//    (format_oracle.hpp), bitwise: every sign and exponent field, +/-0,
//    +/-Inf, NaN payloads, and mantissas at every round position's tie and
//    tie +/- 1 ulp, which covers each format's round and sticky boundaries.
//
// The full 2^32 sweep lives in test_format_sweep_slow.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "format_oracle.hpp"
#include "formats/afp.hpp"
#include "formats/format_registry.hpp"
#include "formats/fp.hpp"
#include "formats/fxp.hpp"
#include "formats/posit.hpp"

namespace ge::fmt {
namespace {

uint32_t bits_of(float x) { return std::bit_cast<uint32_t>(x); }

/// Bitwise equality, with every NaN in one class.
bool same(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return bits_of(a) == bits_of(b);
}

bool saturates(const NumberFormat& f) {
  return f.spec().ends_with("_sat") || f.spec().starts_with("afp_");
}

/// The value every code should quantise to: itself, except that a
/// saturating format clamps codes above its range to +/-max.
float expected_fixed_point(const NumberFormat& f, float x) {
  const auto mx = static_cast<float>(f.abs_max());
  if (saturates(f) && std::fabs(x) > mx) return x < 0 ? -mx : mx;
  return x;
}

/// Checks part 1 for format `f` (AFP: at its current offset register).
void check_every_code(NumberFormat& f, float (*quantize)(const NumberFormat&,
                                                          float)) {
  const int w = f.bit_width();
  ASSERT_LE(w, 16);
  const int64_t n = int64_t{1} << w;
  std::vector<float> xs;  // in-range decoded codes, for the tensor checks
  for (int64_t c = 0; c < n; ++c) {
    const BitString code(static_cast<uint64_t>(c), w);
    const float x = f.format_to_real(code);
    const float want = expected_fixed_point(f, x);
    if (same(want, x)) xs.push_back(x);
    const float q = quantize(f, x);
    ASSERT_TRUE(same(q, want)) << f.spec() << " code " << c << " x=" << x
                               << " q=" << q;

    const BitString back = f.real_to_format(x);
    ASSERT_TRUE(same(f.format_to_real(back), want))
        << f.spec() << " code " << c;
    const bool nan = std::isnan(x);
    const bool zero_alias =
        x == 0.0f && (code.value() & ((uint64_t{1} << (w - 1)) - 1)) != 0;
    if (!nan && !zero_alias && same(want, x)) {
      ASSERT_EQ(back.value(), code.value()) << f.spec() << " x=" << x;
    }
  }

  // Tensor kernel over every in-range code.
  const auto k = static_cast<int64_t>(xs.size());
  Tensor t(Shape{k}, xs);
  f.quantize_tensor_inplace(t);
  for (int64_t i = 0; i < k; ++i) {
    ASSERT_TRUE(same(t[i], xs[static_cast<size_t>(i)]))
        << f.spec() << " tensor path, x=" << xs[static_cast<size_t>(i)];
  }
}

template <typename F>
float quantize_as(const NumberFormat& f, float x) {
  return static_cast<const F&>(f).quantize_value(x);
}

class EveryCodeFp : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryCodeFp, IsAFixedPointAndRoundTrips) {
  auto f = make_format(GetParam());
  auto& fp = dynamic_cast<FloatFormat&>(*f);
  check_every_code(fp, &quantize_as<FloatFormat>);
  const auto ref = oracle::fp(fp.exp_bits(), fp.man_bits(), fp.denormals(),
                              GetParam().ends_with("_sat"));
  for (uint64_t c = 0; c < (uint64_t{1} << fp.bit_width()); ++c) {
    ASSERT_TRUE(same(fp.format_to_real(BitString(c, fp.bit_width())),
                     oracle::decode(ref, c)))
        << GetParam() << " code " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fp, EveryCodeFp,
    ::testing::Values("fp_e5m10", "fp_e5m10_nodn", "fp_e5m10_sat", "fp_e8m7",
                      "fp_e8m7_nodn", "fp_e8m7_sat", "fp_e4m3", "fp_e4m3_nodn",
                      "fp_e4m3_sat", "fp_e5m2", "fp_e5m2_nodn", "fp_e5m2_sat"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(EveryCode, AfpE4m3AtEveryOffset) {
  for (int offset = AfpFormat::kOffsetMin; offset <= AfpFormat::kOffsetMax;
       ++offset) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    AfpFormat f(4, 3);
    f.write_metadata("exp_bias", 0,
                     BitString(static_cast<uint64_t>(offset) & 31u, 5));
    ASSERT_EQ(f.bias_offset(), offset);
    // The tensor kernels re-select the offset from the data's maximum; the
    // in-range codes peak at abs_max under this offset, so they pick it
    // again and every check runs at `offset`.
    check_every_code(f, &quantize_as<AfpFormat>);
    ASSERT_EQ(f.bias_offset(), offset);
    const auto ref = oracle::afp(4, 3, offset);
    for (uint64_t c = 0; c < 256; ++c) {
      ASSERT_TRUE(same(f.format_to_real(BitString(c, 8)),
                       oracle::decode(ref, c)))
          << "code " << c;
    }
  }
}

TEST(EveryCode, Fxp_1_3_12) {
  FxpFormat f(3, 12);
  check_every_code(f, &quantize_as<FxpFormat>);
}

TEST(EveryCode, Posit_8_1) {
  PositFormat f(8, 1);
  check_every_code(f, &quantize_as<PositFormat>);
}

/// ---- structured float32 sweep against the oracle ------------------------

/// Every sign and exponent field with mantissas at the tie of every round
/// position d in [1, 24] (and tie +/- 1 ulp) for small and large kept
/// parts, plus the special values.
std::vector<float> structured_inputs() {
  std::vector<uint32_t> mans = {0, 1, 2, 0x400000, 0x3FFFFF, 0x7FFFFE,
                                0x7FFFFF};
  for (int d = 1; d <= 24; ++d) {
    const uint32_t top = 0x7FFFFFu >> d;  // largest kept part (d <= 23)
    for (uint32_t kept : {0u, 1u, 2u, 3u, top > 0 ? top - 1 : 0u, top}) {
      const uint32_t tie =
          d <= 23 ? (kept << d) | (uint32_t{1} << (d - 1)) : 0x800000u;
      for (int delta = -1; delta <= 1; ++delta) {
        mans.push_back((tie + static_cast<uint32_t>(delta)) & 0x7FFFFFu);
      }
    }
  }
  std::sort(mans.begin(), mans.end());
  mans.erase(std::unique(mans.begin(), mans.end()), mans.end());
  std::vector<float> xs;
  for (uint32_t sign : {0u, 0x80000000u}) {
    for (uint32_t e = 0; e < 255; ++e) {
      for (uint32_t m : mans) {
        xs.push_back(std::bit_cast<float>(sign | (e << 23) | m));
      }
    }
    // +/-Inf and NaN payloads (quiet, signalling, all-ones)
    for (uint32_t m : {0u, 1u, 0x200001u, 0x400000u, 0x7FFFFFu}) {
      xs.push_back(std::bit_cast<float>(sign | 0x7F800000u | m));
    }
  }
  return xs;
}

struct OracleCase {
  std::string spec;
  oracle::Minifloat ref;
};

void compare_with_oracle(NumberFormat& f, const oracle::Minifloat& ref,
                         float (*quantize)(const NumberFormat&, float)) {
  const std::vector<float> xs = structured_inputs();
  for (float x : xs) {
    const float want = oracle::quantize(ref, x);
    ASSERT_TRUE(same(quantize(f, x), want))
        << f.spec() << " x=0x" << std::hex << bits_of(x) << " want=0x"
        << bits_of(want) << " got=0x" << bits_of(quantize(f, x));
    ASSERT_EQ(f.real_to_format(x).value(), oracle::encode(ref, x))
        << f.spec() << " x=0x" << std::hex << bits_of(x);
  }
}

TEST(StructuredSweep, FloatMatchesOracle) {
  struct Fp {
    int e, m;
  };
  for (const Fp p : {Fp{2, 1}, Fp{2, 5}, Fp{3, 2}, Fp{4, 3}, Fp{5, 2},
                     Fp{5, 10}, Fp{6, 9}, Fp{8, 7}, Fp{8, 10}, Fp{8, 23}}) {
    for (bool dn : {true, false}) {
      for (bool sat : {false, true}) {
        FloatFormat f(p.e, p.m, {.denormals = dn, .saturate_overflow = sat});
        compare_with_oracle(f, oracle::fp(p.e, p.m, dn, sat),
                            &quantize_as<FloatFormat>);
      }
    }
  }
}

TEST(StructuredSweep, AfpMatchesOracleAtEveryOffset) {
  struct Afp {
    int e, m;
  };
  // e4m3 at every offset; the other shapes at the extremes and around 0.
  std::vector<int> all_offsets;
  for (int o = AfpFormat::kOffsetMin; o <= AfpFormat::kOffsetMax; ++o) {
    all_offsets.push_back(o);
  }
  const std::vector<int> some_offsets = {AfpFormat::kOffsetMin, -1, 0,
                                         AfpFormat::kOffsetMax};
  for (const Afp p : {Afp{4, 3}, Afp{5, 2}, Afp{3, 4}, Afp{2, 5}}) {
    for (bool dn : {false, true}) {
      AfpFormat f(p.e, p.m, {.denormals = dn});
      for (int offset : p.e == 4 ? all_offsets : some_offsets) {
        f.write_metadata("exp_bias", 0,
                         BitString(static_cast<uint64_t>(offset) & 31u, 5));
        compare_with_oracle(f, oracle::afp(p.e, p.m, offset, dn),
                            &quantize_as<AfpFormat>);
      }
    }
  }
}

TEST(StructuredSweep, FxpMatchesOracle) {
  // i + f > 24 exercises the top code rounding to 2^i as a float32.
  struct Fxp {
    int i, f;
  };
  const std::vector<float> xs = structured_inputs();
  for (const Fxp p : {Fxp{3, 12}, Fxp{7, 8}, Fxp{0, 15}, Fxp{15, 16},
                      Fxp{20, 20}, Fxp{30, 30}, Fxp{2, 60}, Fxp{61, 1}}) {
    FxpFormat f(p.i, p.f);
    for (float x : xs) {
      ASSERT_TRUE(same(f.quantize_value(x), oracle::fxp_quantize(p.i, p.f, x)))
          << f.spec() << " x=0x" << std::hex << bits_of(x);
    }
  }
}

}  // namespace
}  // namespace ge::fmt
