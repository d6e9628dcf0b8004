// In-place quantization contract (DESIGN.md §"Memory model"): for every
// format family, quantize_tensor_inplace must (a) agree bitwise with the
// value-returning real_to_format_tensor bridge, (b) write through the
// existing buffer when the tensor uniquely owns it — the zero-allocation
// hot path the emulator hook depends on — and (c) detach via COW when the
// storage is shared, never corrupting the other owner. A format that
// writes only the in-place kernel gets both tensor methods from the base.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "formats/format_registry.hpp"
#include "obs/telemetry.hpp"
#include "tensor/tensor.hpp"

namespace ge::fmt {
namespace {

// One spec per family, covering value-only, scaled, and metadata formats.
const std::vector<std::string> kSpecs = {
    "fp_e4m3", "fxp_1_4_3", "int8", "posit_8_1", "bfp_e5m5_b16", "afp_e4m3",
};

Tensor test_input() {
  // Values spanning magnitudes, signs, zero, and a subnormal-ish tail so
  // every format's rounding/clamping paths fire.
  Tensor t({4, 8});
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    const float sign = (i % 2 == 0) ? 1.0f : -1.0f;
    p[i] = sign * 0.37f * std::pow(1.9f, static_cast<float>(i % 11) - 5.0f);
  }
  p[0] = 0.0f;
  return t;
}

TEST(InplaceQuant, MatchesValueReturningBridge) {
  for (const auto& spec : kSpecs) {
    const Tensor input = test_input();
    // Two fresh instances: metadata registers are per-instance state and
    // must not leak between the two paths.
    auto f1 = make_format(spec);
    auto f2 = make_format(spec);
    const Tensor bridged = f1->real_to_format_tensor(input);
    Tensor inplace = input.clone();
    f2->quantize_tensor_inplace(inplace);
    EXPECT_TRUE(bridged.equals(inplace)) << spec;
  }
}

TEST(InplaceQuant, UniqueOwnerKeepsItsBuffer) {
  for (const auto& spec : kSpecs) {
    auto f = make_format(spec);
    Tensor t = test_input();
    const float* before = t.cdata();
    f->quantize_tensor_inplace(t);
    EXPECT_EQ(t.cdata(), before) << spec << ": in-place path reallocated";
  }
}

TEST(InplaceQuant, SharedStorageDetachesAndPreservesSource) {
  for (const auto& spec : kSpecs) {
    auto f = make_format(spec);
    const Tensor original = test_input();
    Tensor shared = original;  // O(1) share
    f->quantize_tensor_inplace(shared);
    EXPECT_FALSE(shared.shares_storage_with(original)) << spec;
    EXPECT_TRUE(original.equals(test_input()))
        << spec << ": in-place quantization wrote through a shared buffer";
  }
}

TEST(InplaceQuant, BridgeSharesUntilQuantizerWrites) {
  // real_to_format_tensor is now implemented on top of the in-place kernel:
  // the input must come back untouched (the kernel's first write detaches).
  for (const auto& spec : kSpecs) {
    auto f = make_format(spec);
    const Tensor input = test_input();
    const Tensor out = f->real_to_format_tensor(input);
    EXPECT_TRUE(input.equals(test_input())) << spec;
    EXPECT_FALSE(out.shares_storage_with(input)) << spec;
  }
}

TEST(InplaceQuant, MetadataCapturedForDecode) {
  // Metadata formats must capture their registers from the in-place path
  // too: decode_last_tensor after an uncorrupted round trip reproduces the
  // quantized tensor exactly.
  for (const auto& spec : {std::string("bfp_e5m5_b16"), std::string("afp_e4m3"),
                           std::string("int8")}) {
    auto f = make_format(spec);
    if (!f->has_metadata()) continue;
    Tensor t = test_input();
    f->quantize_tensor_inplace(t);
    EXPECT_TRUE(f->decode_last_tensor().equals(t)) << spec;
  }
}

TEST(InplaceQuant, HotLoopAvoidsCowAfterFirstPass) {
  // Steady state of the emulator hook: a uniquely-owned tensor quantized
  // repeatedly must never detach (no COW copies) — the whole point of the
  // in-place refactor.
  auto f = make_format("fp_e4m3");
  Tensor t = test_input();
  f->quantize_tensor_inplace(t);  // first pass may capture metadata etc.
  const uint64_t cow_before = obs::counter_value(obs::Counter::kCowCopies);
  for (int i = 0; i < 8; ++i) f->quantize_tensor_inplace(t);
  EXPECT_EQ(obs::counter_value(obs::Counter::kCowCopies), cow_before);
}

TEST(InplaceQuant, EmptyTensorIsANoOp) {
  std::vector<std::string> specs = kSpecs;
  specs.push_back("bfp_e5m5_btensor");  // block size = numel = 0
  for (const auto& spec : specs) {
    auto f = make_format(spec);
    Tensor t;
    EXPECT_NO_THROW(f->quantize_tensor_inplace(t)) << spec;
    EXPECT_EQ(t.numel(), 0) << spec;
  }
}

// --- the one-kernel contract (docs/adding_a_format.md) --------------------

/// A format written the way docs/adding_a_format.md asks: method 1 only as
/// the in-place kernel, plus the scalar, range and identity methods. Codes
/// are 8-bit two's complement counts of 0.5.
class HalfStepFormat : public NumberFormat {
 public:
  HalfStepFormat() : NumberFormat("half_step", 8) {}

  void quantize_tensor_inplace(Tensor& t) override {
    float* p = t.data();
    for (int64_t i = 0; i < t.numel(); ++i) p[i] = quantize(p[i]);
  }
  BitString real_to_format(float value) const override {
    const auto code = static_cast<int64_t>(quantize(value) * 2.0f);
    return BitString(static_cast<uint64_t>(code) & 0xFFu, 8);
  }
  float format_to_real(const BitString& bits) const override {
    return static_cast<float>(static_cast<int8_t>(bits.value())) * 0.5f;
  }
  double abs_max() const override { return 63.5; }
  double abs_min() const override { return 0.5; }
  std::string spec() const override { return "half_step"; }
  std::unique_ptr<NumberFormat> clone() const override {
    return std::make_unique<HalfStepFormat>(*this);
  }

 private:
  static float quantize(float x) {
    return std::clamp(std::nearbyint(x * 2.0f), -128.0f, 127.0f) * 0.5f;
  }
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.cdata(), b.cdata(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(OneKernelContract, BaseProvidesBothTensorMethods) {
  HalfStepFormat f;
  const Tensor input = test_input();
  const Tensor out = f.real_to_format_tensor(input);

  // Method 1 returns the kernel's image of the input, bitwise; each element
  // is the scalar round trip of its input, and the quantiser did move some.
  Tensor kernel_image = input.clone();
  HalfStepFormat().quantize_tensor_inplace(kernel_image);
  EXPECT_TRUE(same_bits(out, kernel_image));
  Tensor scalar_image(input.shape());
  for (int64_t i = 0; i < input.numel(); ++i) {
    scalar_image.data()[i] =
        f.format_to_real(f.real_to_format(input.cdata()[i]));
  }
  EXPECT_TRUE(out.equals(scalar_image));
  EXPECT_FALSE(out.equals(input));
  // The input comes back bitwise untouched, in storage of its own.
  EXPECT_TRUE(same_bits(input, test_input()));
  EXPECT_FALSE(out.shares_storage_with(input));

  // Method 2 is the identity.
  EXPECT_TRUE(same_bits(f.format_to_real_tensor(out), out));
}

// --- bulk codebook decode (the inverse direction) --------------------------

// Value-only formats <= 16 bits: decode is a pure table lookup.
const std::vector<std::string> kCodebookSpecs = {"fp_e4m3", "fxp_1_4_3",
                                                 "posit_8_1"};
// Metadata-bearing formats decode per tensor, never per table.
const std::vector<std::string> kNoCodebookSpecs = {"int8", "bfp_e5m5_b16",
                                                   "afp_e4m3"};

TEST(DequantCodes, InplaceDecodeMatchesScalarDecode) {
  for (const auto& spec : kCodebookSpecs) {
    auto f = make_format(spec);
    const Tensor input = test_input();
    Tensor codes(input.shape());
    Tensor want(input.shape());
    for (int64_t i = 0; i < input.numel(); ++i) {
      const BitString b = f->real_to_format(input.cdata()[i]);
      codes.data()[i] = static_cast<float>(b.value());
      want.data()[i] = f->format_to_real(b);
    }
    ASSERT_TRUE(dequantize_codes_inplace(spec, codes)) << spec;
    EXPECT_TRUE(codes.equals(want)) << spec;
  }
}

TEST(DequantCodes, MetadataFormatsDeclineAndLeaveTensorUntouched) {
  for (const auto& spec : kNoCodebookSpecs) {
    EXPECT_EQ(dequant_codebook(spec), nullptr) << spec;
    Tensor t = test_input();
    const Tensor before = t.clone();
    EXPECT_FALSE(dequantize_codes_inplace(spec, t)) << spec;
    EXPECT_TRUE(t.equals(before)) << spec;
  }
}

TEST(DequantCodes, BadCodesAreRejectedBeforeAnyWrite) {
  auto check_rejected = [](float bad_code) {
    Tensor t({4});
    t.data()[0] = 1.0f;
    t.data()[1] = 2.0f;
    t.data()[2] = bad_code;
    t.data()[3] = 3.0f;
    const Tensor before = t.clone();
    EXPECT_THROW(dequantize_codes_inplace("fp_e4m3", t),
                 std::invalid_argument);
    // Validation precedes mutation: a rejected tensor is untouched.
    EXPECT_TRUE(t.equals(before));
  };
  check_rejected(256.0f);  // out of range for an 8-bit format
  check_rejected(-1.0f);
  check_rejected(3.5f);    // not an integral code point
}

TEST(DequantCodes, SharedStorageDetachesViaCow) {
  auto f = make_format("fp_e4m3");
  Tensor codes({8});
  for (int64_t i = 0; i < 8; ++i) {
    codes.data()[i] = static_cast<float>(i * 7);
  }
  const Tensor original = codes;  // O(1) share
  ASSERT_TRUE(dequantize_codes_inplace("fp_e4m3", codes));
  EXPECT_FALSE(codes.shares_storage_with(original));
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(original.cdata()[i], static_cast<float>(i * 7));
  }
}

TEST(DequantCodes, RoundTripsTheInplaceQuantizerOutput) {
  // encode (quantize to codes via scalar path) -> bulk decode must land on
  // exactly the values quantize_tensor_inplace produces.
  for (const auto& spec : kCodebookSpecs) {
    auto f1 = make_format(spec);
    Tensor values = test_input();
    f1->quantize_tensor_inplace(values);

    auto f2 = make_format(spec);
    Tensor codes(values.shape());
    for (int64_t i = 0; i < values.numel(); ++i) {
      codes.data()[i] =
          static_cast<float>(f2->real_to_format(values.cdata()[i]).value());
    }
    ASSERT_TRUE(dequantize_codes_inplace(spec, codes)) << spec;
    EXPECT_TRUE(codes.equals(values)) << spec;
  }
}

}  // namespace
}  // namespace ge::fmt
