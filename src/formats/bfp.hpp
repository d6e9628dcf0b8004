// BfpFormat: Block Floating Point, "bfp_eXmY_bB".
//
// Values in a block of B elements share one e-bit exponent register (the
// block's maximum exponent); each element then stores only 1 sign bit and
// an m-bit magnitude mantissa. The shared exponent is *hardware metadata*:
// a single bit flip in that register scales every value in the block —
// behaving like a multi-bit flip of a conventional FP tensor, which is
// exactly the effect the paper studies in §IV-C / Fig. 7.
//
//   element value = sign * mag * 2^(se + 1 - m),  mag in [0, 2^m - 1]
//   se = clamp(floor(log2 max|block|), -bias, bias + 1),  bias = 2^(e-1)-1
//
// Deliberately structured per-block implementation (not a fused
// elementwise kernel): it materialises block metadata the way the paper's
// Python BFP path does, which is why BFP shows the Fig. 3 slowdown.
#pragma once

#include "formats/number_format.hpp"

namespace ge::fmt {

class BfpFormat : public NumberFormat {
 public:
  /// exp_bits in [2, 10], man_bits in [1, 23], block_size >= 1. A block
  /// size of 0 means "whole tensor is one block" (per-layer sharing).
  BfpFormat(int exp_bits, int man_bits, int64_t block_size);

  void quantize_tensor_inplace(Tensor& t) override;
  /// Context-free scalar methods use a shared exponent of 0 (documented
  /// limitation: a BFP element's bits alone do not determine its value —
  /// that is the point of metadata). Use the *_at variants after a tensor
  /// conversion for block-true scalar coding.
  BitString real_to_format(float value) const override;
  float format_to_real(const BitString& bits) const override;
  BitString real_to_format_at(float value, int64_t flat_index) const override;
  float format_to_real_at(const BitString& bits,
                          int64_t flat_index) const override;

  /// --- metadata: one shared-exponent register per block --------------------
  bool has_metadata() const override { return true; }
  int64_t register_span(int64_t numel) const override {
    return block_size_ == 0 ? numel : block_size_;
  }
  std::vector<MetadataField> metadata_fields() const override;
  BitString read_metadata(const std::string& field,
                          int64_t index) const override;
  void write_metadata(const std::string& field, int64_t index,
                      const BitString& bits) override;
  Tensor decode_last_tensor() const override;

  double abs_max() const override;
  double abs_min() const override;

  std::string spec() const override;
  std::unique_ptr<NumberFormat> clone() const override;

  int exp_bits() const noexcept { return exp_bits_; }
  int man_bits() const noexcept { return man_bits_; }
  int64_t block_size() const noexcept { return block_size_; }
  int64_t num_blocks() const noexcept {
    return static_cast<int64_t>(shared_exp_.size());
  }
  /// Unbiased shared exponent of block `b` (after the last conversion).
  int shared_exponent(int64_t b) const;

 private:
  int64_t block_of(int64_t flat_index) const;
  float decode_code(int32_t signed_mag, int se) const;

  int exp_bits_;
  int man_bits_;
  int bias_;
  int64_t block_size_;  // 0 = whole tensor
  int64_t effective_block_ = 0;
  std::vector<int> shared_exp_;       // unbiased, one per block
  std::vector<int32_t> last_codes_;   // signed magnitudes of last tensor
  Shape last_shape_;
};

}  // namespace ge::fmt
