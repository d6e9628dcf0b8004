// FloatFormat conformance: golden IEEE-754 values (binary16 / bfloat16 /
// e4m3), Table-I dynamic ranges, and property sweeps across the (e, m,
// denormals) grid — the paper's §III-C validation suite.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "formats/fp.hpp"
#include "tensor/rng.hpp"

namespace ge::fmt {
namespace {

TEST(FloatFormat, RejectsBadParameters) {
  EXPECT_THROW(FloatFormat(1, 10), std::invalid_argument);
  EXPECT_THROW(FloatFormat(12, 10), std::invalid_argument);
  EXPECT_THROW(FloatFormat(5, 0), std::invalid_argument);
  EXPECT_THROW(FloatFormat(5, 53), std::invalid_argument);
}

TEST(FloatFormat, Fp32QuantizeIsIdentity) {
  FloatFormat fp32(8, 23);
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const float x = rng.normal(0.0f, 100.0f);
    EXPECT_EQ(fp32.quantize_value(x), x);
  }
  // including denormals
  EXPECT_EQ(fp32.quantize_value(1e-44f), 1e-44f);
}

TEST(FloatFormat, Fp16GoldenValues) {
  FloatFormat fp16(5, 10);
  EXPECT_EQ(fp16.quantize_value(1.0f), 1.0f);
  EXPECT_EQ(fp16.quantize_value(65504.0f), 65504.0f);
  // max + ulp/2 overflows to inf (round-to-nearest would exceed max)
  EXPECT_TRUE(std::isinf(fp16.quantize_value(65536.0f)));
  // 65505 rounds back down to 65504
  EXPECT_EQ(fp16.quantize_value(65505.0f), 65504.0f);
  // min normal and min denormal
  EXPECT_EQ(fp16.quantize_value(6.103515625e-5f), 6.103515625e-5f);
  EXPECT_EQ(fp16.quantize_value(5.960464477539063e-8f),
            5.960464477539063e-8f);
  // half of min denormal flushes to zero (ties-to-even)
  EXPECT_EQ(fp16.quantize_value(2.98023223876953125e-8f), 0.0f);
}

TEST(FloatFormat, Fp16RoundToNearestEven) {
  FloatFormat fp16(5, 10);
  const float ulp = std::ldexp(1.0f, -10);  // ulp at 1.0
  EXPECT_EQ(fp16.quantize_value(1.0f + ulp / 2), 1.0f);        // tie -> even
  EXPECT_EQ(fp16.quantize_value(1.0f + 3 * ulp / 2), 1.0f + 2 * ulp);
  EXPECT_EQ(fp16.quantize_value(1.0f + 0.6f * ulp), 1.0f + ulp);
}

TEST(FloatFormat, Fp16EncodingGoldenBitPatterns) {
  FloatFormat fp16(5, 10);
  EXPECT_EQ(fp16.real_to_format(1.0f).value(), 0x3C00u);
  EXPECT_EQ(fp16.real_to_format(-2.0f).value(), 0xC000u);
  EXPECT_EQ(fp16.real_to_format(65504.0f).value(), 0x7BFFu);
  EXPECT_EQ(fp16.real_to_format(0.0f).value(), 0x0000u);
  EXPECT_EQ(
      fp16.real_to_format(std::numeric_limits<float>::infinity()).value(),
      0x7C00u);
  EXPECT_EQ(fp16.real_to_format(0.5f).value(), 0x3800u);
  // smallest denormal
  EXPECT_EQ(fp16.real_to_format(5.960464477539063e-8f).value(), 0x0001u);
}

TEST(FloatFormat, Fp16DecodingGoldenBitPatterns) {
  FloatFormat fp16(5, 10);
  EXPECT_EQ(fp16.format_to_real(BitString(0x3C00, 16)), 1.0f);
  EXPECT_EQ(fp16.format_to_real(BitString(0xC000, 16)), -2.0f);
  EXPECT_EQ(fp16.format_to_real(BitString(0x7BFF, 16)), 65504.0f);
  EXPECT_TRUE(std::isinf(fp16.format_to_real(BitString(0x7C00, 16))));
  EXPECT_TRUE(std::isnan(fp16.format_to_real(BitString(0x7C01, 16))));
  EXPECT_EQ(fp16.format_to_real(BitString(0x0001, 16)),
            5.960464477539063e-8f);
}

TEST(FloatFormat, BFloat16Range) {
  FloatFormat bf(8, 7);
  EXPECT_NEAR(bf.abs_max(), 3.3895313892515355e38, 1e33);
  FloatFormat bf_nodn(8, 7, {.denormals = false});
  EXPECT_NEAR(bf_nodn.abs_min(), 1.1754943508222875e-38, 1e-43);
  EXPECT_NEAR(bf.abs_min(), 9.183549615799121e-41, 1e-46);
}

TEST(FloatFormat, E4m3Range) {
  FloatFormat e4m3(4, 3);
  EXPECT_EQ(e4m3.abs_max(), 240.0);
  EXPECT_NEAR(e4m3.abs_min(), 0.001953125, 1e-12);  // 2^-9 denormal
  FloatFormat nodn(4, 3, {.denormals = false});
  EXPECT_NEAR(nodn.abs_min(), 0.015625, 1e-12);  // 2^-6 min normal
}

TEST(FloatFormat, TableOneDbValues) {
  // The paper's Table I, reproduced from our abs_max/abs_min.
  EXPECT_NEAR(FloatFormat(8, 23).dynamic_range_db(), 1667.71, 0.5);
  EXPECT_NEAR(FloatFormat(8, 23, {.denormals = false}).dynamic_range_db(),
              1529.23, 0.5);
  EXPECT_NEAR(FloatFormat(5, 10).dynamic_range_db(), 240.82, 0.5);
  EXPECT_NEAR(FloatFormat(5, 10, {.denormals = false}).dynamic_range_db(),
              180.61, 0.5);
  EXPECT_NEAR(FloatFormat(8, 7).dynamic_range_db(), 1571.54, 0.5);
  EXPECT_NEAR(FloatFormat(8, 7, {.denormals = false}).dynamic_range_db(),
              1529.20, 0.5);
  EXPECT_NEAR(FloatFormat(4, 3).dynamic_range_db(), 101.79, 0.5);
  EXPECT_NEAR(FloatFormat(4, 3, {.denormals = false}).dynamic_range_db(),
              83.73, 0.5);
}

TEST(FloatFormat, NamedFormatGeometry) {
  // the named formats of §II-A map onto the parameterised class
  EXPECT_EQ(FloatFormat(8, 23).bit_width(), 32);  // FP32
  EXPECT_EQ(FloatFormat(5, 10).bit_width(), 16);  // FP16
  EXPECT_EQ(FloatFormat(8, 7).bit_width(), 16);   // bfloat16
  EXPECT_EQ(FloatFormat(8, 10).bit_width(), 19);  // TensorFloat-32
  EXPECT_EQ(FloatFormat(6, 9).bit_width(), 16);   // DLFloat
}

TEST(FloatFormat, Bfloat16TruncatesFp32Mantissa) {
  // bfloat16 shares FP32's exponent: quantisation keeps the top 7
  // mantissa bits (round-to-nearest), so q is within 2^-8 relative.
  FloatFormat bf(8, 7);
  Rng rng(55);
  for (int i = 0; i < 300; ++i) {
    const float x = rng.normal(0.0f, 1e10f);
    const float q = bf.quantize_value(x);
    if (x != 0.0f) {
      EXPECT_LE(std::fabs(q - x) / std::fabs(x), 1.0f / 256.0f + 1e-7f);
    }
  }
}

TEST(FloatFormat, Tf32KeepsFp32RangeWithFp16Precision) {
  FloatFormat tf32(8, 10);
  FloatFormat fp32(8, 23);
  FloatFormat fp16(5, 10);
  // identical exponent range; max differs only by the mantissa tail
  EXPECT_NEAR(tf32.abs_max() / fp32.abs_max(), 1.0, 1e-3);
  // same mantissa as FP16, so the same ulp near 1.0 ...
  EXPECT_EQ(tf32.quantize_value(1.0f + 1e-4f),
            fp16.quantize_value(1.0f + 1e-4f));
  // ... but it survives magnitudes FP16 overflows on
  EXPECT_TRUE(std::isinf(fp16.quantize_value(1e30f)));
  EXPECT_FALSE(std::isinf(tf32.quantize_value(1e30f)));
}

TEST(FloatFormat, NoDenormalsFlushesToZero) {
  FloatFormat f(4, 3, {.denormals = false});
  const float min_normal = 0.015625f;  // 2^-6
  EXPECT_EQ(f.quantize_value(min_normal), min_normal);
  EXPECT_EQ(f.quantize_value(min_normal * 0.6f), min_normal);  // rounds up
  EXPECT_EQ(f.quantize_value(min_normal * 0.4f), 0.0f);        // flushes
}

TEST(FloatFormat, SaturateOverflowClampsInsteadOfInf) {
  FloatFormat f(4, 3, {.denormals = true, .saturate_overflow = true});
  EXPECT_EQ(f.quantize_value(1e6f), 240.0f);
  EXPECT_EQ(f.quantize_value(-1e6f), -240.0f);
  EXPECT_EQ(f.quantize_value(std::numeric_limits<float>::infinity()), 240.0f);
}

TEST(FloatFormat, NanPropagates) {
  FloatFormat f(5, 10);
  EXPECT_TRUE(std::isnan(f.quantize_value(std::nanf(""))));
  const BitString b = f.real_to_format(std::nanf(""));
  EXPECT_TRUE(std::isnan(f.format_to_real(b)));
}

TEST(FloatFormat, SignedZeroKeepsSign) {
  FloatFormat f(5, 10);
  const BitString b = f.real_to_format(-0.0f);
  EXPECT_TRUE(b.bit(15));  // sign bit set
  EXPECT_EQ(f.format_to_real(b), 0.0f);
}

TEST(FloatFormat, TensorAndScalarPathsAgree) {
  FloatFormat f(4, 3);
  Rng rng(2);
  Tensor t = rng.normal_tensor({512}, 0.0f, 50.0f);
  Tensor q = f.real_to_format_tensor(t);
  for (int64_t i = 0; i < t.numel(); ++i) {
    const float scalar = f.format_to_real(f.real_to_format(t[i]));
    EXPECT_EQ(q[i], scalar) << "value " << t[i];
  }
}

TEST(FloatFormat, SpecStringRoundTrips) {
  EXPECT_EQ(FloatFormat(4, 3).spec(), "fp_e4m3");
  EXPECT_EQ(FloatFormat(5, 2, {.denormals = false}).spec(), "fp_e5m2_nodn");
  FloatFormat::Options o;
  o.saturate_overflow = true;
  EXPECT_EQ(FloatFormat(3, 4, o).spec(), "fp_e3m4_sat");
}

TEST(FloatFormat, CloneIsIndependent) {
  FloatFormat f(4, 3);
  auto c = f.clone();
  EXPECT_EQ(c->spec(), f.spec());
  EXPECT_EQ(c->bit_width(), 8);
}

/// ---- formats wider than float32 (exp_bits > 8 or man_bits > 23) ----------
//
// Regression: a float-arithmetic quantiser returns NaN here, because its
// step 2^(e - m) underflows to 0 in float32. Float32 denormal inputs are
// normals of such targets and must round on the relative grid.

TEST(FloatFormatWide, TinyInputsAreNotNan) {
  // 1e-44f = 7 * 2^-149 has three significant bits: representable.
  EXPECT_EQ(FloatFormat(11, 10).quantize_value(1e-44f), 1e-44f);
  EXPECT_EQ(FloatFormat(11, 10).quantize_value(-1e-44f), -1e-44f);
}

TEST(FloatFormatWide, E8m30IsIdentityBelowTwoToMinus119) {
  // e >= 8 and m >= 23: every float32 is representable.
  FloatFormat f(8, 30);
  const uint32_t limit = std::bit_cast<uint32_t>(std::ldexp(1.0f, -119));
  for (uint32_t b = 1; b < limit; b += 4099) {
    const float x = std::bit_cast<float>(b);
    EXPECT_EQ(std::bit_cast<uint32_t>(f.quantize_value(x)), b);
    EXPECT_EQ(f.quantize_value(-x), -x);
  }
}

TEST(FloatFormatWide, Float32DenormalsRoundToTargetPrecision) {
  FloatFormat f(9, 3);  // e_min = -254: every float32 denormal is a normal
  const float ulp = std::ldexp(1.0f, -149);
  EXPECT_EQ(f.quantize_value(11 * ulp), 11 * ulp);  // 1.011b: exact
  EXPECT_EQ(f.quantize_value(23 * ulp), 24 * ulp);  // 1.0111b: tie, odd -> up
  EXPECT_EQ(f.quantize_value(17 * ulp), 16 * ulp);  // 1.0001b: tie, even
  EXPECT_EQ(f.quantize_value(37 * ulp), 36 * ulp);  // 1.00101b: below tie
  EXPECT_EQ(f.quantize_value(-23 * ulp), -24 * ulp);
}

TEST(FloatFormatWide, E11m10MatchesIntegerRoundingOnAllDenormals) {
  // Independent reference: round the denormal's integer significand k to
  // 11 significant bits, ties to even.
  FloatFormat f(11, 10);
  for (uint32_t k = 1; k < (1u << 23); ++k) {
    const int drop = std::bit_width(k) - 11;
    uint32_t want = k;
    if (drop > 0) {
      const uint32_t half = 1u << (drop - 1);
      const uint32_t rest = k & ((1u << drop) - 1);
      want = k >> drop;
      if (rest > half || (rest == half && (want & 1u))) ++want;
      want <<= drop;
    }
    const float x = std::bit_cast<float>(k);
    ASSERT_EQ(std::bit_cast<uint32_t>(f.quantize_value(x)), want) << k;
    ASSERT_EQ(std::bit_cast<uint32_t>(f.quantize_value(-x)),
              want | 0x80000000u)
        << k;
  }
}

TEST(FloatFormatWide, TensorAndScalarCodecAgree) {
  for (auto [e, m] : {std::pair{11, 10}, std::pair{8, 30}, std::pair{9, 3}}) {
    FloatFormat f(e, m);
    Tensor t(Shape{6}, {1e-44f, -3e-45f, 1e-40f, 2.5e-39f, 1.0f, -3e38f});
    const Tensor q = f.real_to_format_tensor(t);
    for (int64_t i = 0; i < t.numel(); ++i) {
      EXPECT_FALSE(std::isnan(q[i])) << f.spec() << " x=" << t[i];
      EXPECT_EQ(q[i], f.quantize_value(t[i]));
      EXPECT_EQ(f.format_to_real(f.real_to_format(t[i])), q[i])
          << f.spec() << " x=" << t[i];
    }
  }
}

/// ---- property sweeps across the format grid -------------------------------

struct FpParam {
  int e;
  int m;
  bool denormals;
};

class FloatFormatGrid : public ::testing::TestWithParam<FpParam> {};

TEST_P(FloatFormatGrid, QuantizeIsIdempotent) {
  const auto p = GetParam();
  FloatFormat f(p.e, p.m, {.denormals = p.denormals});
  Rng rng(100 + p.e * 10 + p.m);
  for (int i = 0; i < 300; ++i) {
    const float x = rng.normal(0.0f, 10.0f);
    const float q = f.quantize_value(x);
    EXPECT_EQ(f.quantize_value(q), q);
  }
}

TEST_P(FloatFormatGrid, QuantizeIsOddSymmetric) {
  const auto p = GetParam();
  FloatFormat f(p.e, p.m, {.denormals = p.denormals});
  Rng rng(200 + p.e * 10 + p.m);
  for (int i = 0; i < 300; ++i) {
    const float x = rng.normal(0.0f, 10.0f);
    EXPECT_EQ(f.quantize_value(-x), -f.quantize_value(x));
  }
}

TEST_P(FloatFormatGrid, QuantizeIsMonotone) {
  const auto p = GetParam();
  FloatFormat f(p.e, p.m, {.denormals = p.denormals});
  Rng rng(300 + p.e * 10 + p.m);
  std::vector<float> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(0.0f, 5.0f));
  std::sort(xs.begin(), xs.end());
  float prev = f.quantize_value(xs.front());
  for (float x : xs) {
    const float q = f.quantize_value(x);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST_P(FloatFormatGrid, QuantizationErrorBoundedByHalfUlp) {
  const auto p = GetParam();
  FloatFormat f(p.e, p.m, {.denormals = p.denormals});
  Rng rng(400 + p.e * 10 + p.m);
  const float mx = static_cast<float>(f.abs_max());
  const float min_normal = pow2f(1 - f.bias());
  for (int i = 0; i < 300; ++i) {
    // stay inside the normal range so the ulp bound applies
    const float x = rng.uniform(-mx / 2, mx / 2);
    const float q = f.quantize_value(x);
    if (std::fabs(x) >= min_normal) {
      const float ulp = std::ldexp(1.0f, floor_log2(x) - p.m);
      EXPECT_LE(std::fabs(q - x), ulp * 0.5f + 1e-30f)
          << "x=" << x << " q=" << q;
    }
  }
}

TEST_P(FloatFormatGrid, EncodeDecodeRoundTripsQuantizedValues) {
  const auto p = GetParam();
  FloatFormat f(p.e, p.m, {.denormals = p.denormals});
  Rng rng(500 + p.e * 10 + p.m);
  for (int i = 0; i < 300; ++i) {
    const float q = f.quantize_value(rng.normal(0.0f, 20.0f));
    EXPECT_EQ(f.format_to_real(f.real_to_format(q)), q);
  }
}

TEST_P(FloatFormatGrid, MaxAndMinAreRepresentable) {
  const auto p = GetParam();
  FloatFormat f(p.e, p.m, {.denormals = p.denormals});
  const float mx = static_cast<float>(f.abs_max());
  const float mn = static_cast<float>(f.abs_min());
  EXPECT_EQ(f.quantize_value(mx), mx);
  EXPECT_EQ(f.quantize_value(mn), mn);
  EXPECT_EQ(f.quantize_value(-mx), -mx);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FloatFormatGrid,
    ::testing::Values(FpParam{2, 1, true}, FpParam{2, 5, true},
                      FpParam{3, 2, true}, FpParam{4, 3, true},
                      FpParam{4, 3, false}, FpParam{5, 2, true},
                      FpParam{5, 10, true}, FpParam{5, 10, false},
                      FpParam{6, 9, true}, FpParam{8, 7, true},
                      FpParam{8, 7, false}, FpParam{8, 10, true},
                      FpParam{8, 23, true}, FpParam{8, 23, false}),
    [](const ::testing::TestParamInfo<FpParam>& info) {
      return "e" + std::to_string(info.param.e) + "m" +
             std::to_string(info.param.m) +
             (info.param.denormals ? "_dn" : "_nodn");
    });

}  // namespace
}  // namespace ge::fmt
