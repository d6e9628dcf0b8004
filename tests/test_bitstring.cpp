// BitString: the bit-pattern currency of the scalar format API and the
// fault injector.
#include <gtest/gtest.h>

#include "format_oracle.hpp"
#include "formats/number_format.hpp"

namespace ge::fmt {
namespace {

TEST(BitString, ConstructionMasksToWidth) {
  BitString b(0xFF, 4);
  EXPECT_EQ(b.value(), 0xFu);
  EXPECT_EQ(b.width(), 4);
}

TEST(BitString, WidthBoundsChecked) {
  EXPECT_THROW(BitString(0, -1), std::invalid_argument);
  EXPECT_THROW(BitString(0, 65), std::invalid_argument);
  EXPECT_NO_THROW(BitString(~uint64_t{0}, 64));
}

TEST(BitString, BitReadsLsbFirst) {
  BitString b(0b1010, 4);
  EXPECT_FALSE(b.bit(0));
  EXPECT_TRUE(b.bit(1));
  EXPECT_FALSE(b.bit(2));
  EXPECT_TRUE(b.bit(3));
}

TEST(BitString, SetAndFlip) {
  BitString b(0, 8);
  b.set_bit(3, true);
  EXPECT_EQ(b.value(), 8u);
  b.flip_bit(3);
  EXPECT_EQ(b.value(), 0u);
  b.flip_bit(0);
  EXPECT_EQ(b.value(), 1u);
  b.set_bit(0, false);
  EXPECT_EQ(b.value(), 0u);
}

TEST(BitString, FlipTwiceIsIdentity) {
  for (int bit = 0; bit < 16; ++bit) {
    BitString b(0xBEEF, 16);
    const uint64_t before = b.value();
    b.flip_bit(bit);
    EXPECT_NE(b.value(), before);
    b.flip_bit(bit);
    EXPECT_EQ(b.value(), before);
  }
}

TEST(BitString, IndexOutOfRangeThrows) {
  BitString b(0, 4);
  EXPECT_THROW(b.bit(4), std::out_of_range);
  EXPECT_THROW(b.bit(-1), std::out_of_range);
  EXPECT_THROW(b.flip_bit(4), std::out_of_range);
  EXPECT_THROW(b.set_bit(5, true), std::out_of_range);
}

TEST(BitString, ToStringIsMsbFirst) {
  EXPECT_EQ(BitString(0b0110, 4).to_string(), "0110");
  EXPECT_EQ(BitString(1, 3).to_string(), "001");
}

TEST(BitString, EqualityIncludesWidth) {
  EXPECT_EQ(BitString(3, 4), BitString(3, 4));
  EXPECT_FALSE(BitString(3, 4) == BitString(3, 5));
}

TEST(Helpers, FloorLog2) {
  EXPECT_EQ(floor_log2(1.0f), 0);
  EXPECT_EQ(floor_log2(1.5f), 0);
  EXPECT_EQ(floor_log2(2.0f), 1);
  EXPECT_EQ(floor_log2(0.5f), -1);
  EXPECT_EQ(floor_log2(0.49f), -2);
  EXPECT_EQ(floor_log2(-8.0f), 3);  // uses |x|
}

TEST(Helpers, Pow2f) {
  EXPECT_EQ(pow2f(0), 1.0f);
  EXPECT_EQ(pow2f(10), 1024.0f);
  EXPECT_EQ(pow2f(-3), 0.125f);
}

TEST(Helpers, RoundToStepIsNearestEven) {
  using oracle::round_to_step;
  EXPECT_EQ(round_to_step(0.5f, 1.0f), 0.0f);   // tie -> even
  EXPECT_EQ(round_to_step(1.5f, 1.0f), 2.0f);   // tie -> even
  EXPECT_EQ(round_to_step(0.75f, 0.5f), 1.0f);  // 1.5 steps -> 2 steps
  EXPECT_EQ(round_to_step(1.3f, 1.0f), 1.0f);
  EXPECT_EQ(round_to_step(-1.5f, 1.0f), -2.0f);
}

}  // namespace
}  // namespace ge::fmt
