// TensorView: non-owning, strided windows onto a Tensor's COW storage.
//
// A view is (offset, shape, strides) over the flat storage block of a
// Tensor, in row-major view order: view-linear index i maps to storage
// index offset + dot(unravel(i, shape), strides). Views make channel/row/
// block-granular access (fault-injection regions, conv patch slicing,
// embedding row gathers) expressible without gather copies.
//
// Two flavors (DESIGN.md §5):
//  - ConstTensorView is read-only and *pins* the storage block: it holds a
//    shared_ptr share, so the data stays alive (and, per the COW rules,
//    any later write to the owner detaches the owner, not the view — a
//    const view always observes the values at capture time).
//  - TensorView is mutable and holds a pointer to the owning Tensor: the
//    first mutable access triggers the owner's copy-on-write (exactly once
//    while the storage is shared); reads never detach. A mutable view does
//    NOT pin storage — the owner must outlive it.
//
// Strides must be non-negative and every reachable storage index must be
// in range; both are validated at construction.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace ge {

/// Row-major (dense) strides of a shape: {..., d2*d3, d3, 1}.
std::vector<int64_t> dense_strides(const Shape& shape);

class ConstTensorView {
 public:
  /// Empty view over nothing.
  ConstTensorView() = default;
  /// Whole-tensor view (dense, offset 0).
  explicit ConstTensorView(const Tensor& t);
  /// Strided window. Throws std::invalid_argument on rank mismatch,
  /// negative offset/strides, or an out-of-range reachable index.
  ConstTensorView(const Tensor& t, int64_t offset, Shape shape,
                  std::vector<int64_t> strides);

  const Shape& shape() const noexcept { return shape_; }
  int64_t dim() const noexcept { return static_cast<int64_t>(shape_.size()); }
  int64_t size(int64_t d) const;
  int64_t numel() const noexcept { return numel_; }
  const std::vector<int64_t>& strides() const noexcept { return strides_; }
  int64_t offset() const noexcept { return offset_; }
  /// True when the strides are exactly the dense row-major strides of the
  /// shape — the view walks one contiguous run starting at offset().
  bool contiguous() const noexcept { return contiguous_; }

  /// Storage index of view-linear element `i` (row-major view order).
  int64_t flat_offset(int64_t i) const;
  /// Base pointer of the pinned storage block (not of the view's first
  /// element — index it with flat_offset).
  const float* storage() const noexcept { return base_; }
  float operator[](int64_t i) const { return base_[flat_offset(i)]; }

  /// Gather the view into a dense Tensor of shape().
  Tensor materialize() const;
  /// Gather into caller storage (numel() floats, row-major view order).
  void materialize_into(float* dst) const;

 private:
  std::shared_ptr<const std::vector<float>> pin_;
  const float* base_ = nullptr;
  int64_t offset_ = 0;
  int64_t numel_ = 0;
  bool contiguous_ = true;
  Shape shape_{0};
  std::vector<int64_t> strides_{1};
};

class TensorView {
 public:
  TensorView() = default;
  /// Whole-tensor mutable view (dense, offset 0).
  explicit TensorView(Tensor& t);
  /// Strided mutable window; validation as for ConstTensorView.
  TensorView(Tensor& t, int64_t offset, Shape shape,
             std::vector<int64_t> strides);

  const Shape& shape() const noexcept { return shape_; }
  int64_t dim() const noexcept { return static_cast<int64_t>(shape_.size()); }
  int64_t size(int64_t d) const;
  int64_t numel() const noexcept { return numel_; }
  const std::vector<int64_t>& strides() const noexcept { return strides_; }
  int64_t offset() const noexcept { return offset_; }
  bool contiguous() const noexcept { return contiguous_; }

  Tensor& owner() noexcept { return *owner_; }
  const Tensor& owner() const noexcept { return *owner_; }

  int64_t flat_offset(int64_t i) const;
  /// Mutable base pointer; triggers the owner's copy-on-write (once while
  /// the storage is shared). Hoist this out of loops: the per-call cost
  /// after the detach is one use_count load.
  float* storage() { return owner_->data(); }
  /// Read-only base pointer; never detaches.
  const float* cstorage() const noexcept { return owner_->cdata(); }
  float read(int64_t i) const { return cstorage()[flat_offset(i)]; }
  float& operator[](int64_t i) { return storage()[flat_offset(i)]; }

 private:
  void init(Tensor& t, int64_t offset, Shape shape,
            std::vector<int64_t> strides);

  Tensor* owner_ = nullptr;
  int64_t offset_ = 0;
  int64_t numel_ = 0;
  bool contiguous_ = true;
  Shape shape_{0};
  std::vector<int64_t> strides_{1};
};

/// --- injection region factories (error-model zoo) -------------------------
//
// Spatially-correlated fault models address a "channel" or "row" of an
// activation tensor; the mapping per rank mirrors the layouts the nn
// layers produce:
//   rank 4 (N,C,H,W): channel c = all N*H*W elements of feature map c;
//                     row r = one contiguous W run (fixed n, c, h).
//   rank 3 (B,T,D):   channel d = embedding lane d across all tokens;
//                     row r = one token's D-vector.
//   rank 2 (B,F):     channel f = feature f across the batch;
//                     row r = one sample's F-vector.
//   rank <= 1:        one channel / one row: the whole tensor.

/// Number of distinct channel regions of `t` under the mapping above.
int64_t channel_count(const Tensor& t);
/// Number of distinct row regions of `t` under the mapping above.
int64_t row_count(const Tensor& t);
/// Strided view of channel `c`; throws std::invalid_argument out of range.
TensorView channel_view(Tensor& t, int64_t c);
/// Contiguous view of row `r`; throws std::invalid_argument out of range.
TensorView row_view(Tensor& t, int64_t r);

}  // namespace ge
