#include "tensor/tensor_view.hpp"

#include <algorithm>
#include <stdexcept>

namespace ge {

namespace {

/// Shared construction-time validation; returns the element count.
int64_t validate_view(int64_t storage_numel, int64_t offset, const Shape& shape,
                      const std::vector<int64_t>& strides) {
  if (shape.size() != strides.size()) {
    throw std::invalid_argument("TensorView: rank mismatch (" +
                                std::to_string(shape.size()) + " extents, " +
                                std::to_string(strides.size()) + " strides)");
  }
  if (offset < 0) {
    throw std::invalid_argument("TensorView: negative offset");
  }
  int64_t numel = 1;  // rank-0: one element at `offset`
  for (size_t d = 0; d < shape.size(); ++d) {
    if (shape[d] < 0 || strides[d] < 0) {
      throw std::invalid_argument(
          "TensorView: extents and strides must be non-negative");
    }
    numel *= shape[d];
  }
  if (numel > 0) {
    int64_t last = offset;  // highest reachable storage index
    for (size_t d = 0; d < shape.size(); ++d) {
      last += (shape[d] - 1) * strides[d];
    }
    if (last >= storage_numel) {
      throw std::invalid_argument(
          "TensorView: view reaches storage index " + std::to_string(last) +
          " but the block holds " + std::to_string(storage_numel) +
          " elements");
    }
  }
  return numel;
}

bool is_dense(const Shape& shape, const std::vector<int64_t>& strides) {
  return strides == dense_strides(shape);
}

int64_t unravel_dot(int64_t i, const Shape& shape,
                    const std::vector<int64_t>& strides) {
  int64_t acc = 0;
  for (size_t d = shape.size(); d-- > 0;) {
    const int64_t extent = shape[d];
    acc += (i % extent) * strides[d];
    i /= extent;
  }
  return acc;
}

/// Gather `numel` elements of a validated view layout into `dst`. Runs
/// along the last dimension are copied as blocks when unit-strided.
void gather(const float* base, int64_t offset, const Shape& shape,
            const std::vector<int64_t>& strides, bool contiguous,
            int64_t numel, float* dst) {
  if (numel == 0) return;
  if (contiguous) {
    std::copy(base + offset, base + offset + numel, dst);
    return;
  }
  const int64_t run =
      (!shape.empty() && strides.back() == 1) ? shape.back() : 1;
  const int64_t rows = numel / run;
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t src = offset + unravel_dot(r * run, shape, strides);
    if (run > 1) {
      std::copy(base + src, base + src + run, dst + r * run);
    } else {
      dst[r] = base[src];
    }
  }
}

}  // namespace

std::vector<int64_t> dense_strides(const Shape& shape) {
  std::vector<int64_t> s(shape.size(), 1);
  for (size_t d = shape.size(); d-- > 1;) {
    s[d - 1] = s[d] * (shape[d] == 0 ? 1 : shape[d]);
  }
  return s;
}

// --- ConstTensorView -------------------------------------------------------

ConstTensorView::ConstTensorView(const Tensor& t)
    : ConstTensorView(t, 0, t.shape(), dense_strides(t.shape())) {}

ConstTensorView::ConstTensorView(const Tensor& t, int64_t offset, Shape shape,
                                 std::vector<int64_t> strides)
    : pin_(t.data_),
      base_(t.cdata()),
      offset_(offset),
      shape_(std::move(shape)),
      strides_(std::move(strides)) {
  numel_ = validate_view(t.numel(), offset_, shape_, strides_);
  contiguous_ = is_dense(shape_, strides_);
}

int64_t ConstTensorView::size(int64_t d) const {
  const int64_t rank = dim();
  if (d < 0) d += rank;
  if (d < 0 || d >= rank) {
    throw std::out_of_range("ConstTensorView::size: bad dimension");
  }
  return shape_[static_cast<size_t>(d)];
}

int64_t ConstTensorView::flat_offset(int64_t i) const {
  if (contiguous_) return offset_ + i;
  return offset_ + unravel_dot(i, shape_, strides_);
}

Tensor ConstTensorView::materialize() const {
  Tensor out(shape_);
  materialize_into(out.data());
  return out;
}

void ConstTensorView::materialize_into(float* dst) const {
  gather(base_, offset_, shape_, strides_, contiguous_, numel_, dst);
}

// --- TensorView ------------------------------------------------------------

TensorView::TensorView(Tensor& t) {
  init(t, 0, t.shape(), dense_strides(t.shape()));
}

TensorView::TensorView(Tensor& t, int64_t offset, Shape shape,
                       std::vector<int64_t> strides) {
  init(t, offset, std::move(shape), std::move(strides));
}

void TensorView::init(Tensor& t, int64_t offset, Shape shape,
                      std::vector<int64_t> strides) {
  owner_ = &t;
  offset_ = offset;
  shape_ = std::move(shape);
  strides_ = std::move(strides);
  numel_ = validate_view(t.numel(), offset_, shape_, strides_);
  contiguous_ = is_dense(shape_, strides_);
}

int64_t TensorView::size(int64_t d) const {
  const int64_t rank = dim();
  if (d < 0) d += rank;
  if (d < 0 || d >= rank) {
    throw std::out_of_range("TensorView::size: bad dimension");
  }
  return shape_[static_cast<size_t>(d)];
}

int64_t TensorView::flat_offset(int64_t i) const {
  if (contiguous_) return offset_ + i;
  return offset_ + unravel_dot(i, shape_, strides_);
}

// --- injection region factories --------------------------------------------

int64_t channel_count(const Tensor& t) {
  switch (t.dim()) {
    case 4: return t.size(1);            // NCHW feature maps
    case 3: return t.size(2);            // (B,T,D) embedding lanes
    case 2: return t.size(1);            // (B,F) features
    default: return t.numel() > 0 ? 1 : 0;
  }
}

int64_t row_count(const Tensor& t) {
  if (t.numel() == 0) return 0;
  if (t.dim() < 2) return 1;
  return t.numel() / t.size(-1);
}

TensorView channel_view(Tensor& t, int64_t c) {
  const int64_t nc = channel_count(t);
  if (c < 0 || c >= nc) {
    throw std::invalid_argument("channel_view: channel " + std::to_string(c) +
                                " out of range [0, " + std::to_string(nc) +
                                ")");
  }
  switch (t.dim()) {
    case 4: {
      const int64_t N = t.size(0), C = t.size(1), HW = t.size(2) * t.size(3);
      return TensorView(t, c * HW, {N, HW}, {C * HW, 1});
    }
    case 3: {
      const int64_t BT = t.size(0) * t.size(1), D = t.size(2);
      return TensorView(t, c, {BT}, {D});
    }
    case 2: {
      const int64_t B = t.size(0), F = t.size(1);
      return TensorView(t, c, {B}, {F});
    }
    default:
      return TensorView(t);
  }
}

TensorView row_view(Tensor& t, int64_t r) {
  const int64_t nr = row_count(t);
  if (r < 0 || r >= nr) {
    throw std::invalid_argument("row_view: row " + std::to_string(r) +
                                " out of range [0, " + std::to_string(nr) +
                                ")");
  }
  if (t.dim() < 2) return TensorView(t);
  const int64_t last = t.size(-1);
  return TensorView(t, r * last, {last}, {1});
}

}  // namespace ge
