// IntFormat: symmetric integer quantisation (INT-N), the first format in
// this library with *hardware metadata*: the FP32 scale factor that maps
// integer codes back to reals lives in a dedicated register in a real
// accelerator, and GoldenEye exposes it to the fault injector (§III-B).
//
// value ≈ code * scale,   code ∈ [-(2^(N-1)-1), 2^(N-1)-1]
// scale = max|x| / (2^(N-1)-1)   (captured per tensor, or user-provided —
// the paper notes INT requires a range, absolving the range detector).
#pragma once

#include <optional>

#include "formats/number_format.hpp"

namespace ge::fmt {

class IntFormat : public NumberFormat {
 public:
  /// bits in [2, 32]. Symmetric quantisation (no zero-point), as used by
  /// the paper's INT rows.
  explicit IntFormat(int bits);

  void quantize_tensor_inplace(Tensor& t) override;
  BitString real_to_format(float value) const override;
  float format_to_real(const BitString& bits) const override;

  /// --- metadata: the scale-factor register --------------------------------
  bool has_metadata() const override { return true; }
  int64_t register_span(int64_t numel) const override { return numel; }
  std::vector<MetadataField> metadata_fields() const override;
  BitString read_metadata(const std::string& field,
                          int64_t index) const override;
  void write_metadata(const std::string& field, int64_t index,
                      const BitString& bits) override;
  Tensor decode_last_tensor() const override;

  /// Table-I range semantics: expressed in integer code units (min nonzero
  /// code = 1), matching the paper's 20·log10(max_code) dB values.
  double abs_max() const override;
  double abs_min() const override;

  std::string spec() const override;
  std::unique_ptr<NumberFormat> clone() const override;

  /// Pin the quantisation range (scale = range / max_code) instead of
  /// profiling it from each converted tensor.
  void set_range(float max_abs_value);
  float scale() const noexcept { return scale_; }
  int64_t max_code() const noexcept { return max_code_; }

 private:
  int bits_;
  int64_t max_code_;          // 2^(N-1) - 1
  float scale_ = 1.0f;        // current scale register content
  bool fixed_range_ = false;  // true once set_range() was called
  std::vector<int32_t> last_codes_;  // codes of the last converted tensor
  Shape last_shape_;
};

}  // namespace ge::fmt
