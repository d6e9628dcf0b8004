// PositFormat: Gustafson's posit arithmetic, "posit_<n>_<es>".
//
// Not part of the paper's five formats — it is this repo's demonstration
// of the paper's "future number format support" claim (Table II): a new
// number system drops in by implementing the four-method NumberFormat API
// and is immediately usable by the emulator, injector, campaigns and DSE
// with zero changes elsewhere.
//
// Posits have tapered precision: a variable-length unary "regime" field
// trades range for fraction bits, giving high accuracy near 1.0 and a
// huge dynamic range, with no Inf (values saturate at +-maxpos) and a
// single NaR pattern.
//
// Implementation: for n <= 16 every non-negative pattern is decoded once
// into a sorted table; quantisation is a binary search with
// round-to-nearest (ties to the even pattern, posit's standard rounding).
// This is exact by construction and fast enough for tensor conversion.
// The table is immutable after construction and shared across all
// PositFormat instances with the same (n, es) — a campaign clones one
// format per layer per replica, and rebuilding 2^(n-1) decoded entries
// per clone dominated construction cost.
#pragma once

#include <memory>

#include "formats/number_format.hpp"

namespace ge::fmt {

class PositFormat : public NumberFormat {
 public:
  /// n in [3, 16], es in [0, 3].
  PositFormat(int n, int es);

  void quantize_tensor_inplace(Tensor& t) override;
  BitString real_to_format(float value) const override;
  float format_to_real(const BitString& bits) const override;

  double abs_max() const override;  // maxpos = useed^(n-2)
  double abs_min() const override;  // minpos = useed^-(n-2)

  std::string spec() const override;
  std::unique_ptr<NumberFormat> clone() const override;

  int es() const noexcept { return es_; }
  /// useed = 2^(2^es), the regime step.
  double useed() const;

  float quantize_value(float x) const;

  /// Decode one raw n-bit pattern (exposed for tests; NaR decodes to NaN).
  static double decode_pattern(uint32_t pattern, int n, int es);

 private:
  /// Immutable decode tables for one (n, es): sorted strictly-positive
  /// values with their (positive) patterns.
  struct Tables {
    std::vector<double> values;
    std::vector<uint32_t> patterns;
  };
  static std::shared_ptr<const Tables> tables_for(int n, int es);

  int n_;
  int es_;
  std::shared_ptr<const Tables> tables_;
};

}  // namespace ge::fmt
