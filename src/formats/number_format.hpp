// NumberFormat: the GoldenEye number-system API (paper §III-B).
//
// The paper's four methods:
//   1) Tensor    real_to_format_tensor(Tensor)   — bulk quantisation (fast)
//   2) Tensor    format_to_real_tensor(Tensor)   — bulk decode (identity)
//   3) BitString real_to_format(value)           — scalar encode (slow, exact)
//   4) float     format_to_real(BitString)       — scalar decode
//
// Methods 1/2 are the tensorised fast path used during emulated inference;
// methods 3/4 are the scalar bit-exact path used by the fault injector.
// A format writes method 1 once, as the in-place kernel
// quantize_tensor_inplace, so per-forward quantisation allocates nothing;
// the base class provides both tensor methods on top of it.
//
// Formats additionally expose their *hardware metadata* — state that is
// abstracted away in software but lives in real registers in an
// accelerator (INT scale factor, BFP shared exponents, AFP exponent bias).
// The injector can flip bits inside those registers and re-decode the
// tensor, reproducing the paper's headline capability (§II-B, §IV-C).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace ge::fmt {

/// A fixed-width bit pattern; bit 0 is the LSB. Width <= 64.
class BitString {
 public:
  BitString() = default;
  BitString(uint64_t bits, int width);

  int width() const noexcept { return width_; }
  uint64_t value() const noexcept { return bits_; }

  bool bit(int i) const;
  void set_bit(int i, bool b);
  void flip_bit(int i);

  /// MSB-first rendering, e.g. "0 0111 101" style without separators.
  std::string to_string() const;

  bool operator==(const BitString& o) const = default;

 private:
  void check_index(int i) const;

  uint64_t bits_ = 0;
  int width_ = 0;
};

/// Description of one hardware metadata register family of a format.
struct MetadataField {
  std::string name;   ///< e.g. "shared_exponent", "scale", "exp_bias"
  int bit_width = 0;  ///< register width in bits
  int64_t count = 0;  ///< number of registers (e.g. one per BFP block)
};

/// Abstract number system. Stateful: converting a tensor may capture
/// hardware metadata (scale/shared exponents/bias) inside the object, so
/// one format instance belongs to one tensor site at a time.
class NumberFormat {
 public:
  NumberFormat(std::string name, int bit_width);
  virtual ~NumberFormat() = default;

  NumberFormat(const NumberFormat&) = default;
  NumberFormat& operator=(const NumberFormat&) = default;

  /// Method 1, the one kernel a format writes: overwrite `t` with its
  /// quantised image — every element rounded to the nearest representable
  /// value of this format, expressed back in float32 (the compute fabric's
  /// native type). May capture metadata. This is the emulator's
  /// per-forward hot path: write through the tensor's own storage, with
  /// zero allocation when `t` uniquely owns it.
  virtual void quantize_tensor_inplace(Tensor& t) = 0;

  /// Method 1 under its paper name: the quantised image of `t` as a new
  /// tensor. An O(1) share plus the in-place kernel, whose first write
  /// detaches, so `t` comes back untouched.
  Tensor real_to_format_tensor(const Tensor& t) {
    Tensor out = t;
    quantize_tensor_inplace(out);
    return out;
  }

  /// Method 2 — decode a format-domain tensor back to real values: the
  /// identity, since method 1 already returns values on the real axis (the
  /// paper's default implementation is a cast to float32).
  Tensor format_to_real_tensor(const Tensor& t) const { return t; }

  /// Method 3 — encode one value into its bit pattern under this format.
  virtual BitString real_to_format(float value) const = 0;

  /// Method 4 — decode a bit pattern into the value it represents.
  virtual float format_to_real(const BitString& bits) const = 0;

  /// Scalar encode/decode *in the context of the last converted tensor*:
  /// formats whose per-element coding depends on metadata (BFP block
  /// exponents) override these; the default ignores the index.
  virtual BitString real_to_format_at(float value, int64_t flat_index) const;
  virtual float format_to_real_at(const BitString& bits,
                                  int64_t flat_index) const;

  /// --- hardware metadata ------------------------------------------------
  virtual bool has_metadata() const { return false; }
  /// How many consecutive elements of a `numel`-element tensor one
  /// metadata register covers: 1 when no register couples elements (the
  /// value-only formats), the block size for BFP, `numel` for a
  /// per-tensor register (INT scale, AFP bias, whole-tensor BFP).
  virtual int64_t register_span(int64_t /*numel*/) const { return 1; }
  /// Register families captured by the last tensor quantisation.
  virtual std::vector<MetadataField> metadata_fields() const { return {}; }
  /// Read register `index` of `field` as raw bits.
  virtual BitString read_metadata(const std::string& field,
                                  int64_t index) const;
  /// Overwrite register `index` of `field` (e.g. after a bit flip).
  virtual void write_metadata(const std::string& field, int64_t index,
                              const BitString& bits);
  /// Re-decode the last converted tensor under the *current* (possibly
  /// corrupted) metadata. Only meaningful when has_metadata().
  virtual Tensor decode_last_tensor() const;

  /// --- dynamic range (Table I) -------------------------------------------
  virtual double abs_max() const = 0;
  /// Smallest representable positive non-zero magnitude.
  virtual double abs_min() const = 0;
  /// 20 * log10(abs_max / abs_min), the paper's Table I metric.
  double dynamic_range_db() const;

  /// --- identity -----------------------------------------------------------
  const std::string& name() const noexcept { return name_; }
  int bit_width() const noexcept { return bit_width_; }
  /// Canonical spec string understood by the registry, e.g. "fp_e4m3".
  virtual std::string spec() const = 0;

  virtual std::unique_ptr<NumberFormat> clone() const = 0;

 protected:
  /// Shared in-place kernel for value-only formats (no tensor-level
  /// metadata): overwrite every element of `t` with `quant(element)`,
  /// chunked across threads. When metrics are on, an O(1) shared snapshot
  /// of `t` is taken first (the mutable access then detaches via
  /// copy-on-write) so record_quantization sees the pre-quantisation
  /// values; with metrics off the path allocates nothing.
  template <typename F>
  void elementwise_inplace(Tensor& t, F&& quant) {
    const int64_t n = t.numel();
    Tensor before;
    if (obs::metrics_enabled()) before = t;
    float* p = t.data();  // any COW detach happens here, single-threaded
    parallel::parallel_for(0, n, 4096, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) p[i] = quant(p[i]);
    });
    if (obs::metrics_enabled()) {
      obs::record_quantization(before.cdata(), p, n, abs_max());
    }
  }

  std::string name_;
  int bit_width_;
};

/// --- float helpers for per-tensor metadata (BFP shared exponents, AFP
/// bias selection). Element rounding does not use them: the FP, AFP and FxP
/// quantisers round on the float32 bit pattern (formats/rounding.hpp). ----

/// floor(log2(|x|)) for finite non-zero x.
int floor_log2(float x);

/// 2^e as float (exact for |e| within float range).
float pow2f(int e);

}  // namespace ge::fmt
