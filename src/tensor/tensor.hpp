// Tensor: the float32 "compute fabric" substrate.
//
// GoldenEye (DSN'22) emulates arbitrary number formats *on top of* the
// number format natively supported by the hardware (the paper uses FP32 on
// a GPU). This class is our equivalent of that fabric: a contiguous,
// row-major, CPU float32 N-dimensional array with value semantics.
//
// Memory model (see DESIGN.md §"Memory model"):
//  - storage is a shared, reference-counted block; copying a Tensor shares
//    the block in O(1) and copy-on-write fires on the first mutable access
//    while the block is shared,
//  - observable behaviour is plain value semantics: a copy never sees its
//    source's later writes, and vice versa — sharing is an optimisation,
//    not an aliasing feature,
//  - blocks come from a per-thread recycling arena (src/tensor/arena.hpp),
//    so steady-state forward passes allocate nothing,
//  - the class owns exactly one invariant: shape_ product == numel().
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace ge {

/// Shape of a tensor: one extent per dimension, row-major layout.
using Shape = std::vector<int64_t>;

/// Number of elements a shape describes (product of extents; 1 for rank-0).
int64_t shape_numel(const Shape& shape);

/// Human-readable "[2, 3, 4]" form, used in error messages.
std::string shape_to_string(const Shape& shape);

/// Contiguous row-major float32 tensor.
class Tensor {
 public:
  /// Empty rank-1 tensor with zero elements.
  Tensor() = default;

  /// Zero-filled tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape with explicit contents.
  /// Throws std::invalid_argument if sizes disagree.
  Tensor(Shape shape, std::vector<float> data);

  /// Copies share storage in O(1); the buffer is duplicated lazily on the
  /// first mutable access while shared (copy-on-write).
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;
  ~Tensor() = default;

  /// --- factories -------------------------------------------------------
  /// Rank-1 tensor from a braced list of values. A named factory (not a
  /// constructor) so it can never collide with the Shape constructor.
  static Tensor of(std::initializer_list<float> values);
  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  /// 0, 1, 2, ... n-1 as a rank-1 tensor (useful in tests).
  static Tensor arange(int64_t n);

  /// --- shape queries ---------------------------------------------------
  const Shape& shape() const noexcept { return shape_; }
  int64_t dim() const noexcept { return static_cast<int64_t>(shape_.size()); }
  /// Extent of dimension `d`; negative `d` counts from the back.
  int64_t size(int64_t d) const;
  int64_t numel() const noexcept {
    return data_ ? static_cast<int64_t>(data_->size()) : 0;
  }
  bool empty() const noexcept { return numel() == 0; }

  /// --- element access --------------------------------------------------
  /// Mutable access detaches shared storage first (may allocate), so the
  /// mutable overloads are not noexcept.
  float* data() {
    ensure_unique();
    return data_ ? data_->data() : nullptr;
  }
  const float* data() const noexcept {
    return data_ ? data_->data() : nullptr;
  }
  /// Read-only pointer regardless of the object's constness. Use at read
  /// sites on non-const tensors so a shared buffer is never detached by a
  /// read (a non-const lvalue resolves to the mutable data() overload).
  const float* cdata() const noexcept {
    return data_ ? data_->data() : nullptr;
  }
  std::span<float> flat() {
    ensure_unique();
    return data_ ? std::span<float>{data_->data(), data_->size()}
                 : std::span<float>{};
  }
  std::span<const float> flat() const noexcept { return cflat(); }
  /// Read-only span counterpart of cdata().
  std::span<const float> cflat() const noexcept {
    return data_ ? std::span<const float>{data_->data(), data_->size()}
                 : std::span<const float>{};
  }
  /// Flat (linearised) element access, bounds-checked in debug builds.
  float& operator[](int64_t i) {
    assert(i >= 0 && i < numel() && "Tensor::operator[] index out of range");
    ensure_unique();
    return (*data_)[static_cast<size_t>(i)];
  }
  float operator[](int64_t i) const {
    assert(i >= 0 && i < numel() && "Tensor::operator[] index out of range");
    return (*data_)[static_cast<size_t>(i)];
  }
  /// Multi-dimensional access; index count must equal rank.
  float& at(std::initializer_list<int64_t> idx);
  float at(std::initializer_list<int64_t> idx) const;

  /// Flat offset of a multi-dimensional index (row-major).
  int64_t offset_of(std::span<const int64_t> idx) const;

  /// --- shape manipulation ----------------------------------------------
  /// Same data, new shape; one extent may be -1 (inferred). Throws on
  /// element-count mismatch. O(1): the result shares this tensor's storage.
  Tensor reshape(Shape new_shape) const;
  /// Value copy (alias for the copy constructor, for call-site clarity).
  /// O(1) until one of the two tensors is written.
  Tensor clone() const { return *this; }

  /// --- in-place fill ----------------------------------------------------
  void fill(float value);

  /// True if shapes and all elements are exactly equal.
  bool equals(const Tensor& other) const;
  /// True if shapes match and elements differ by at most `atol`.
  bool allclose(const Tensor& other, float atol = 1e-6f) const;

  /// True if both tensors currently share one storage block (tests /
  /// assertions; never needed for correctness).
  bool shares_storage_with(const Tensor& other) const noexcept {
    return data_ != nullptr && data_ == other.data_;
  }

  /// Opaque identity of the current storage block (nullptr when empty);
  /// equal keys mean shared storage. Diagnostics and accounting only
  /// (e.g. counting the unique bytes a set of shares keeps alive) — the
  /// key is invalidated by any mutable access that detaches.
  const void* storage_key() const noexcept { return data_.get(); }

 private:
  /// Detach from shared storage before a write. Fast path: one use_count
  /// load. The copy (detach_storage) lives in tensor.cpp.
  void ensure_unique() {
    if (data_ && data_.use_count() > 1) detach_storage();
  }
  void detach_storage();

  Shape shape_{0};
  std::shared_ptr<std::vector<float>> data_;
};

}  // namespace ge
