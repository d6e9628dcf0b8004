// TensorView contract (DESIGN.md §5): strided views over COW storage.
//
// The load-bearing properties, each pinned here:
//  - geometry: flat_offset is the row-major (offset, shape, strides) map,
//    with full validation at construction;
//  - COW-through-view: a ConstTensorView observes capture-time values
//    forever; a TensorView's first write detaches a shared owner exactly
//    once and never corrupts the other share; reads never detach;
//  - injection regions: channel_view/row_view map each activation rank to
//    its channel and row windows.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "obs/telemetry.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_view.hpp"

namespace ge {
namespace {

Tensor filled(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Tensor t({n});
  float* p = t.data();
  for (int64_t i = 0; i < n; ++i) {
    // Magnitude spread wide enough to exercise every format's rounding and
    // clamping paths, signs mixed, an exact zero in every buffer.
    p[i] = rng.normal(0.0f, 1.0f) * std::pow(2.0f, rng.uniform(-6.0f, 4.0f));
  }
  p[n / 2] = 0.0f;
  return t;
}

// --- geometry --------------------------------------------------------------

TEST(ViewGeometry, DenseStridesAreRowMajor) {
  EXPECT_EQ(dense_strides({2, 3, 4}), (std::vector<int64_t>{12, 4, 1}));
  EXPECT_EQ(dense_strides({5}), (std::vector<int64_t>{1}));
}

TEST(ViewGeometry, FlatOffsetMapsRowMajorOrder) {
  Tensor t = filled(64, 1);
  // 3x4 window starting at 5, walking strides {10, 2}: element (r, c) lives
  // at 5 + 10r + 2c.
  const ConstTensorView v(t, 5, {3, 4}, {10, 2});
  EXPECT_EQ(v.numel(), 12);
  EXPECT_FALSE(v.contiguous());
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      const int64_t i = r * 4 + c;
      EXPECT_EQ(v.flat_offset(i), 5 + 10 * r + 2 * c);
      EXPECT_EQ(v[i], t.cdata()[5 + 10 * r + 2 * c]);
    }
  }
}

TEST(ViewGeometry, ContiguousDetection) {
  Tensor t = filled(24, 2);
  EXPECT_TRUE(ConstTensorView(t, 4, {2, 5}, {5, 1}).contiguous());
  EXPECT_FALSE(ConstTensorView(t, 4, {2, 5}, {10, 1}).contiguous());
}

TEST(ViewGeometry, ConstructionValidatesReachableRange) {
  Tensor t = filled(10, 3);
  // Last reachable index 2 + 2*4 + 1*1 = 11 > 9.
  EXPECT_THROW(ConstTensorView(t, 2, {3, 2}, {4, 1}), std::invalid_argument);
  EXPECT_THROW(ConstTensorView(t, -1, {2}, {1}), std::invalid_argument);
  EXPECT_THROW(ConstTensorView(t, 0, {2}, {-1}), std::invalid_argument);
  EXPECT_THROW(ConstTensorView(t, 0, {2, 2}, {1}), std::invalid_argument);
  EXPECT_NO_THROW(ConstTensorView(t, 2, {3, 2}, {3, 1}));  // last = 9
  EXPECT_THROW(TensorView(t, 0, {11}, {1}), std::invalid_argument);
}

TEST(ViewGeometry, MaterializeGathersViewOrder) {
  Tensor t = filled(40, 4);
  const ConstTensorView v(t, 3, {4, 3}, {9, 2});
  const Tensor m = v.materialize();
  ASSERT_EQ(m.shape(), (Shape{4, 3}));
  for (int64_t i = 0; i < v.numel(); ++i) {
    EXPECT_EQ(m.cdata()[i], v[i]);
  }
}

// --- COW semantics ---------------------------------------------------------

TEST(ViewCow, ConstViewPinsCaptureTimeValues) {
  Tensor t = filled(16, 5);
  const float at3 = t.cdata()[3];
  const ConstTensorView v(t, 0, {16}, {1});
  // The owner's write detaches the OWNER; the view keeps the old block.
  t.data()[3] = 999.0f;
  EXPECT_EQ(v[3], at3);
  EXPECT_EQ(t.cdata()[3], 999.0f);
}

TEST(ViewCow, MutableWriteDetachesSharedOwnerOnce) {
  obs::TelemetryScope metrics(false, true);  // counters are metrics-gated
  Tensor t = filled(16, 6);
  const Tensor original = t;  // O(1) share
  TensorView v(t, 2, {4}, {3});
  const uint64_t cow_before = obs::counter_value(obs::Counter::kCowCopies);
  v[0] = 42.0f;
  v[1] = 43.0f;  // second write must not copy again
  EXPECT_EQ(obs::counter_value(obs::Counter::kCowCopies), cow_before + 1);
  EXPECT_FALSE(t.shares_storage_with(original));
  EXPECT_EQ(t.cdata()[2], 42.0f);
  EXPECT_EQ(t.cdata()[5], 43.0f);
  // The other share observes the pristine capture-time buffer.
  EXPECT_TRUE(original.equals(filled(16, 6)));
}

TEST(ViewCow, ReadsNeverDetach) {
  Tensor t = filled(16, 7);
  const Tensor original = t;
  TensorView v(t, 0, {8}, {2});
  float sum = 0.0f;
  for (int64_t i = 0; i < v.numel(); ++i) sum += v.read(i);
  (void)sum;
  (void)v.cstorage();
  EXPECT_TRUE(t.shares_storage_with(original));
}

// --- injection region factories -------------------------------------------

TEST(ViewRegions, Rank4ChannelIsTheFeatureMapAcrossBatch) {
  Tensor t = filled(2 * 3 * 4 * 5, 11);
  t = t.reshape({2, 3, 4, 5});
  EXPECT_EQ(channel_count(t), 3);
  TensorView c1 = channel_view(t, 1);
  EXPECT_EQ(c1.numel(), 2 * 4 * 5);
  // (n, hw) -> storage ((n*C + 1)*HW + hw).
  for (int64_t n = 0; n < 2; ++n) {
    for (int64_t hw = 0; hw < 20; ++hw) {
      EXPECT_EQ(c1.flat_offset(n * 20 + hw), (n * 3 + 1) * 20 + hw);
    }
  }
  EXPECT_THROW(channel_view(t, 3), std::invalid_argument);
}

TEST(ViewRegions, Rank3ChannelIsAnEmbeddingLane) {
  Tensor t = filled(2 * 5 * 7, 12);
  t = t.reshape({2, 5, 7});
  EXPECT_EQ(channel_count(t), 7);
  TensorView lane = channel_view(t, 4);
  EXPECT_EQ(lane.numel(), 2 * 5);
  for (int64_t bt = 0; bt < 10; ++bt) {
    EXPECT_EQ(lane.flat_offset(bt), bt * 7 + 4);
  }
}

TEST(ViewRegions, RowsAreContiguousLastDimRuns) {
  Tensor t = filled(3 * 4 * 2 * 6, 13);
  t = t.reshape({3, 4, 2, 6});
  EXPECT_EQ(row_count(t), 3 * 4 * 2);
  TensorView r = row_view(t, 5);
  EXPECT_EQ(r.numel(), 6);
  EXPECT_TRUE(r.contiguous());
  EXPECT_EQ(r.flat_offset(0), 5 * 6);
  EXPECT_THROW(row_view(t, 24), std::invalid_argument);

  Tensor m = filled(4 * 9, 14);
  m = m.reshape({4, 9});
  EXPECT_EQ(channel_count(m), 9);
  EXPECT_EQ(row_count(m), 4);
  EXPECT_EQ(channel_view(m, 2).flat_offset(3), 3 * 9 + 2);
  EXPECT_EQ(row_view(m, 3).flat_offset(1), 3 * 9 + 1);
}

}  // namespace
}  // namespace ge
