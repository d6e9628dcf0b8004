// All 2^32 float32 inputs through the bit-level FP, AFP and FxP quantisers
// and the float-arithmetic oracle (format_oracle.hpp), compared bitwise:
// signed zeros must match, and a NaN output must meet a NaN output.
//
// Slow (minutes per format on a few cores), so ctest runs it only when
// asked for: `ctest -C slow -L slow`. It spreads each format's sweep over
// the library thread pool (GE_NUM_THREADS sets its size).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>

#include "format_oracle.hpp"
#include "formats/afp.hpp"
#include "formats/fp.hpp"
#include "formats/fxp.hpp"
#include "parallel/thread_pool.hpp"

namespace ge::fmt {
namespace {

bool same(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

/// Sweep every float32 bit pattern; report the mismatch count and the
/// first few mismatches.
template <typename Got, typename Want>
void sweep_all(const Got& got, const Want& want) {
  constexpr int64_t kChunk = int64_t{1} << 20;
  constexpr int64_t kChunks = (int64_t{1} << 32) / kChunk;
  std::atomic<int64_t> mismatches{0};
  std::mutex mu;
  std::ostringstream first;
  int reported = 0;
  parallel::parallel_for(0, kChunks, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      int64_t bad = 0;
      for (int64_t i = c * kChunk; i < (c + 1) * kChunk; ++i) {
        const float x = std::bit_cast<float>(static_cast<uint32_t>(i));
        const float g = got(x);
        const float w = want(x);
        if (same(g, w)) continue;
        ++bad;
        std::lock_guard<std::mutex> lock(mu);
        if (reported++ < 8) {
          first << std::hex << " x=0x" << i << " got=0x"
                << std::bit_cast<uint32_t>(g) << " want=0x"
                << std::bit_cast<uint32_t>(w) << "\n";
        }
      }
      mismatches += bad;
    }
  });
  EXPECT_EQ(mismatches.load(), 0) << first.str();
}

struct FpCase {
  int e;
  int m;
};

class FloatSweep : public ::testing::TestWithParam<FpCase> {};

TEST_P(FloatSweep, Plain) {
  const auto p = GetParam();
  const FloatFormat f(p.e, p.m);
  const auto ref = oracle::fp(p.e, p.m);
  sweep_all([&](float x) { return f.quantize_value(x); },
            [&](float x) { return oracle::quantize(ref, x); });
}

TEST_P(FloatSweep, NoDenormals) {
  const auto p = GetParam();
  const FloatFormat f(p.e, p.m, {.denormals = false});
  const auto ref = oracle::fp(p.e, p.m, /*denormals=*/false);
  sweep_all([&](float x) { return f.quantize_value(x); },
            [&](float x) { return oracle::quantize(ref, x); });
}

TEST_P(FloatSweep, Saturating) {
  const auto p = GetParam();
  const FloatFormat f(p.e, p.m, {.denormals = true, .saturate_overflow = true});
  const auto ref = oracle::fp(p.e, p.m, /*denormals=*/true, /*saturate=*/true);
  sweep_all([&](float x) { return f.quantize_value(x); },
            [&](float x) { return oracle::quantize(ref, x); });
}

INSTANTIATE_TEST_SUITE_P(
    AllFloat32, FloatSweep,
    ::testing::Values(FpCase{5, 10}, FpCase{8, 7}, FpCase{4, 3},
                      FpCase{5, 2}, FpCase{8, 23}),
    [](const ::testing::TestParamInfo<FpCase>& info) {
      return "e" + std::to_string(info.param.e) + "m" +
             std::to_string(info.param.m);
    });

class AfpSweep : public ::testing::TestWithParam<int> {};

TEST_P(AfpSweep, E4m3AtOffset) {
  const int offset = GetParam();
  AfpFormat f(4, 3);
  f.write_metadata("exp_bias", 0,
                   BitString(static_cast<uint64_t>(offset) & 31u, 5));
  ASSERT_EQ(f.bias_offset(), offset);
  const auto ref = oracle::afp(4, 3, offset);
  sweep_all([&](float x) { return f.quantize_value(x); },
            [&](float x) { return oracle::quantize(ref, x); });
}

INSTANTIATE_TEST_SUITE_P(
    AllFloat32, AfpSweep, ::testing::Values(-16, 0, 15),
    [](const ::testing::TestParamInfo<int>& info) {
      return info.param < 0 ? "minus" + std::to_string(-info.param)
                            : std::to_string(info.param);
    });

TEST(FxpSweep, AllFloat32Fxp_1_3_12) {
  const FxpFormat f(3, 12);
  sweep_all([&](float x) { return f.quantize_value(x); },
            [](float x) { return oracle::fxp_quantize(3, 12, x); });
}

}  // namespace
}  // namespace ge::fmt
