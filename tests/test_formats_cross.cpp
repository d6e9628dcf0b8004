// Cross-format properties: invariants every number system in the registry
// must satisfy, swept over a representative spec list. New formats added
// to the registry get this safety net for free — add the spec here.
#include <gtest/gtest.h>

#include <cmath>

#include "formats/format_registry.hpp"
#include "tensor/rng.hpp"

namespace ge::fmt {
namespace {

class EveryFormat : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<NumberFormat> fmt_ = make_format(GetParam());
};

TEST_P(EveryFormat, SpecStringRoundTripsThroughRegistry) {
  auto reparsed = make_format(fmt_->spec());
  EXPECT_EQ(reparsed->spec(), fmt_->spec());
  EXPECT_EQ(reparsed->bit_width(), fmt_->bit_width());
}

TEST_P(EveryFormat, CloneMatchesOriginal) {
  auto c = fmt_->clone();
  EXPECT_EQ(c->spec(), fmt_->spec());
  EXPECT_EQ(c->bit_width(), fmt_->bit_width());
  EXPECT_EQ(c->has_metadata(), fmt_->has_metadata());
}

TEST_P(EveryFormat, ZeroQuantisesToZero) {
  Tensor z({4});
  Tensor q = fmt_->real_to_format_tensor(z);
  for (float v : q.flat()) EXPECT_EQ(v, 0.0f);
}

TEST_P(EveryFormat, RangeIsSane) {
  EXPECT_GT(fmt_->abs_max(), 0.0);
  EXPECT_GT(fmt_->abs_min(), 0.0);
  EXPECT_GE(fmt_->abs_max(), fmt_->abs_min());
  EXPECT_GE(fmt_->dynamic_range_db(), 0.0);
}

TEST_P(EveryFormat, TensorQuantisationIsIdempotent) {
  Rng rng(17);
  Tensor t = rng.normal_tensor({128}, 0.0f, 3.0f);
  Tensor q1 = fmt_->real_to_format_tensor(t);
  // fresh instance: metadata recaptured from the already-quantised tensor
  auto f2 = make_format(GetParam());
  Tensor q2 = f2->real_to_format_tensor(q1);
  EXPECT_TRUE(q2.allclose(q1, 1e-6f)) << fmt_->spec();
}

TEST_P(EveryFormat, QuantisationPreservesSigns) {
  Rng rng(18);
  Tensor t = rng.normal_tensor({128}, 0.0f, 2.0f);
  Tensor q = fmt_->real_to_format_tensor(t);
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (q[i] != 0.0f) {
      EXPECT_EQ(std::signbit(q[i]), std::signbit(t[i])) << fmt_->spec();
    }
  }
}

TEST_P(EveryFormat, ScalarBitWidthMatchesDeclaration) {
  Rng rng(19);
  (void)fmt_->real_to_format_tensor(rng.normal_tensor({16}));
  const BitString b = fmt_->real_to_format_at(1.0f, 0);
  EXPECT_EQ(b.width(), fmt_->bit_width());
}

TEST_P(EveryFormat, ScalarDecodeInvertsEncodeOnQuantisedValues) {
  Rng rng(20);
  Tensor t = rng.normal_tensor({64}, 0.0f, 2.0f);
  Tensor q = fmt_->real_to_format_tensor(t);
  for (int64_t i = 0; i < q.numel(); ++i) {
    const BitString b = fmt_->real_to_format_at(q[i], i);
    EXPECT_EQ(fmt_->format_to_real_at(b, i), q[i])
        << fmt_->spec() << " element " << i;
  }
}

TEST_P(EveryFormat, BitFlipResolvesToFixedPointAfterOneReencode) {
  // decode(flip(encode(q))) may land on a pattern outside the encoder's
  // output set (INT's -2^(N-1), AFP's reserved top exponent code), but one
  // re-encode must resolve it: r = decode(encode(faulty)) is a fixed
  // point. Faulty values remain values the hardware can settle on.
  Rng rng(21);
  Tensor t = rng.normal_tensor({32}, 0.0f, 2.0f);
  Tensor q = fmt_->real_to_format_tensor(t);
  for (int64_t i = 0; i < q.numel(); ++i) {
    for (int bit = 0; bit < fmt_->bit_width(); ++bit) {
      BitString b = fmt_->real_to_format_at(q[i], i);
      b.flip_bit(bit);
      const float faulty = fmt_->format_to_real_at(b, i);
      if (!std::isfinite(faulty)) continue;  // Inf/NaN codes are their own
      const float r =
          fmt_->format_to_real_at(fmt_->real_to_format_at(faulty, i), i);
      const float r2 =
          fmt_->format_to_real_at(fmt_->real_to_format_at(r, i), i);
      EXPECT_EQ(r2, r) << fmt_->spec() << " elem " << i << " bit " << bit;
    }
  }
}

TEST_P(EveryFormat, MetadataRegistersReadableWhenPresent) {
  if (!fmt_->has_metadata()) GTEST_SKIP();
  Rng rng(22);
  (void)fmt_->real_to_format_tensor(rng.normal_tensor({64}));
  const auto fields = fmt_->metadata_fields();
  ASSERT_FALSE(fields.empty());
  for (const auto& field : fields) {
    ASSERT_GT(field.count, 0);
    const BitString reg = fmt_->read_metadata(field.name, 0);
    EXPECT_EQ(reg.width(), field.bit_width);
    // write-back of the same content is a no-op on the decoded tensor
    Tensor before = fmt_->decode_last_tensor();
    fmt_->write_metadata(field.name, 0, reg);
    Tensor after = fmt_->decode_last_tensor();
    EXPECT_TRUE(after.equals(before));
  }
}

TEST_P(EveryFormat, RegisterSpanCoversEachRegistersElements) {
  // Value-only formats have no register coupling elements (span 1); a
  // metadata format's span is how many consecutive elements one register
  // holds, so ceil(numel / span) registers cover a converted tensor.
  constexpr int64_t kNumel = 80;
  const int64_t span = fmt_->register_span(kNumel);
  if (!fmt_->has_metadata()) {
    EXPECT_EQ(span, 1);
    return;
  }
  const std::string spec = fmt_->spec();
  const bool per_block = spec.rfind("bfp_", 0) == 0 &&
                         spec.find("btensor") == std::string::npos;
  EXPECT_EQ(span, per_block ? 16 : kNumel) << spec;
  Rng rng(23);
  (void)fmt_->real_to_format_tensor(rng.normal_tensor({kNumel}));
  EXPECT_EQ(fmt_->metadata_fields().front().count,
            (kNumel + span - 1) / span)
      << spec;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EveryFormat,
    ::testing::Values("fp_e8m23", "fp_e5m10", "fp_e8m7", "fp_e8m10",
                      "fp_e6m9", "fp_e4m3", "fp_e5m2", "fp_e2m5",
                      "fp_e4m3_nodn", "fp_e4m3_sat", "fxp_1_15_16",
                      "fxp_1_3_12", "fxp_1_4_4", "int16", "int8", "int4",
                      "bfp_e8m7_b16", "bfp_e5m5_b16", "bfp_e5m5_btensor",
                      "afp_e4m3", "afp_e5m2", "afp_e4m3_dn", "posit_8_0",
                      "posit_8_1", "posit_16_1"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

}  // namespace
}  // namespace ge::fmt
