// AfpFormat: AdaptivFloat (Tambe et al.), "afp_eXmY".
//
// A floating-point format whose exponent bias is *adaptive*: converting a
// tensor measures the tensor's maximum magnitude and shifts the whole
// representable range so the format's largest exponent lands on the data's
// largest exponent ("movable range" in Table I). The chosen bias is
// hardware metadata — a per-tensor register; flipping one of its bits
// rescales every value in the tensor by a power of two (§IV-C).
//
// Hardware model: the register stores the bias as a 5-bit two's-complement
// *offset from the standard IEEE bias* (AdaptivFloat moves the range by a
// small delta, so the stored quantity is the delta — the same economy the
// original hardware exploits).
//
// Fault semantics: unlike BFP's shared exponent (written once with the
// block data and corrupted at *decode* — the paper's "multi-bit flip"
// equivalence), the AFP bias register is consulted by both the quantiser
// and the dequantiser within an inference. A register fault is therefore
// modeled as *persistent*: decode_last_tensor() re-quantises the original
// values under the corrupted bias, so the representable range moves and
// values clip/flush — corruption bounded by the moved range, which is why
// AFP is layer-wise more resilient than BFP except where the value
// distribution is wide (the paper's last-layer exception, §IV-C).
//
// Layout per value: 1 sign + e exponent + m mantissa bits; the top
// exponent code is reserved (no Inf/NaN — conversions saturate), denormals
// optional and off by default, matching the paper's AFP8 Table-I row
// (max 240, min 1.56e-2 at e4m3 with the standard bias).
#pragma once

#include "formats/number_format.hpp"
#include "formats/rounding.hpp"

namespace ge::fmt {

class AfpFormat : public NumberFormat {
 public:
  struct Options {
    bool denormals = false;
  };

  AfpFormat(int exp_bits, int man_bits, Options opt);
  AfpFormat(int exp_bits, int man_bits)
      : AfpFormat(exp_bits, man_bits, Options{}) {}

  void quantize_tensor_inplace(Tensor& t) override;
  BitString real_to_format(float value) const override;
  float format_to_real(const BitString& bits) const override;

  /// --- metadata: the exponent-bias register --------------------------------
  bool has_metadata() const override { return true; }
  int64_t register_span(int64_t numel) const override { return numel; }
  std::vector<MetadataField> metadata_fields() const override;
  BitString read_metadata(const std::string& field,
                          int64_t index) const override;
  void write_metadata(const std::string& field, int64_t index,
                      const BitString& bits) override;
  Tensor decode_last_tensor() const override;

  /// Range under the *current* bias (moves with the data; Table I reports
  /// the standard-bias position).
  double abs_max() const override;
  double abs_min() const override;

  std::string spec() const override;
  std::unique_ptr<NumberFormat> clone() const override;

  int exp_bits() const noexcept { return exp_bits_; }
  int man_bits() const noexcept { return man_bits_; }
  /// Effective exponent bias = standard IEEE bias + register offset.
  int exp_bias() const noexcept { return standard_bias_ + bias_offset_; }
  /// Register content (offset from the standard bias).
  int bias_offset() const noexcept { return bias_offset_; }

  /// Register geometry: 5-bit two's complement offset.
  static constexpr int kOffsetBits = 5;
  static constexpr int kOffsetMin = -(1 << (kOffsetBits - 1));
  static constexpr int kOffsetMax = (1 << (kOffsetBits - 1)) - 1;

  float quantize_value(float x) const { return rounder_.round(x); }

 private:
  int e_min() const noexcept { return 1 - exp_bias(); }
  int e_max() const noexcept {
    return ((1 << exp_bits_) - 2) - exp_bias();
  }
  /// Rounding constants for the current bias.
  Float32Rounder make_rounder() const;
  /// Load the offset register and re-derive the rounding constants.
  void set_bias_offset(int offset);

  int exp_bits_;
  int man_bits_;
  Options opt_;
  int standard_bias_;  // 2^(e-1) - 1
  int bias_offset_;    // the metadata register content
  Float32Rounder rounder_;  // grid under the current bias
  // Pre-quantisation values for persistent-fault replay. A plain vector
  // (not a Tensor) so repeated captures at one site reuse the allocation.
  std::vector<float> last_vals_;
  Shape last_shape_;
};

}  // namespace ge::fmt
