#include "formats/bfp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"

namespace ge::fmt {

namespace {
std::string bfp_name(int e, int m, int64_t b) {
  return "bfp_e" + std::to_string(e) + "m" + std::to_string(m) + "_b" +
         (b == 0 ? std::string("tensor") : std::to_string(b));
}
}  // namespace

BfpFormat::BfpFormat(int exp_bits, int man_bits, int64_t block_size)
    : NumberFormat(bfp_name(exp_bits, man_bits, block_size),
                   1 + man_bits),  // per-element storage; exponent amortised
      exp_bits_(exp_bits),
      man_bits_(man_bits),
      bias_((1 << (exp_bits - 1)) - 1),
      block_size_(block_size) {
  if (exp_bits < 2 || exp_bits > 10) {
    throw std::invalid_argument("BfpFormat: exp_bits must be in [2, 10]");
  }
  if (man_bits < 1 || man_bits > 23) {
    throw std::invalid_argument("BfpFormat: man_bits must be in [1, 23]");
  }
  if (block_size < 0) {
    throw std::invalid_argument("BfpFormat: block_size must be >= 0");
  }
}

int64_t BfpFormat::block_of(int64_t flat_index) const {
  if (effective_block_ <= 0) {
    throw std::logic_error("BfpFormat: no tensor converted yet");
  }
  return flat_index / effective_block_;
}

float BfpFormat::decode_code(int32_t signed_mag, int se) const {
  return std::ldexp(static_cast<float>(signed_mag), se + 1 - man_bits_);
}

void BfpFormat::quantize_tensor_inplace(Tensor& t) {
  const int64_t n = t.numel();
  effective_block_ = (block_size_ == 0) ? n : block_size_;
  // An empty tensor has zero blocks (and, for _btensor, a zero block size).
  const int64_t nblocks =
      n == 0 ? 0 : (n + effective_block_ - 1) / effective_block_;
  shared_exp_.assign(static_cast<size_t>(nblocks), -bias_);
  last_codes_.assign(static_cast<size_t>(n), 0);
  last_shape_ = t.shape();

  Tensor before;
  if (obs::metrics_enabled()) before = t;  // O(1) pre-quant snapshot via COW
  float* p = t.data();
  const int se_min = -bias_;
  const int se_max = ((1 << exp_bits_) - 1) - bias_;
  const auto max_mag = static_cast<float>((1 << man_bits_) - 1);

  // Blocks are independent: each owns one shared-exponent register and a
  // disjoint code/output slice, so the block loop is the parallel axis.
  // In-place is safe: pass 1 reads the whole block before pass 2 writes it.
  parallel::parallel_for(
      0, nblocks, parallel::grain_for(2 * effective_block_),
      [&](int64_t blo, int64_t bhi) {
        for (int64_t b = blo; b < bhi; ++b) {
          const int64_t lo = b * effective_block_;
          const int64_t hi = std::min(n, lo + effective_block_);
          // Pass 1: the block's maximum exponent -> shared-exponent register.
          float block_max = 0.0f;
          for (int64_t i = lo; i < hi; ++i) {
            block_max = std::max(block_max, std::fabs(p[i]));
          }
          int se = se_min;
          if (block_max > 0.0f && !std::isnan(block_max)) {
            se = std::clamp(floor_log2(block_max), se_min, se_max);
          }
          shared_exp_[static_cast<size_t>(b)] = se;
          // Pass 2: quantise each element against the shared exponent.
          // Scaling uses ldexp, not 1/step: for deeply negative shared
          // exponents (an all-zero block under a wide-e format)
          // 2^-(se+1-m) overflows float and 0 * inf would poison the
          // block with NaNs.
          const int shift = se + 1 - man_bits_;
          for (int64_t i = lo; i < hi; ++i) {
            const float x = p[i];
            float mag = std::nearbyintf(std::ldexp(std::fabs(x), -shift));
            mag = std::min(mag, max_mag);
            const float code = std::signbit(x) ? -mag : mag;
            last_codes_[static_cast<size_t>(i)] = static_cast<int32_t>(code);
            p[i] = std::ldexp(code, shift);
          }
        }
      });
  if (obs::metrics_enabled()) {
    // Block-local saturation (a block's max-mantissa clamp) is below the
    // format-wide abs_max, so this undercounts per-block clamping; the
    // counter tracks format-range saturation only.
    obs::record_quantization(before.cdata(), p, n, abs_max());
  }
}

BitString BfpFormat::real_to_format(float value) const {
  // Context-free: shared exponent 0 (see header).
  const float step = pow2f(1 - man_bits_);
  float mag = std::nearbyintf(std::fabs(value) / step);
  mag = std::min(mag, static_cast<float>((1 << man_bits_) - 1));
  const uint64_t sign = std::signbit(value) ? 1 : 0;
  return BitString((sign << man_bits_) | static_cast<uint64_t>(mag),
                   bit_width_);
}

float BfpFormat::format_to_real(const BitString& bits) const {
  if (bits.width() != bit_width_) {
    throw std::invalid_argument("BfpFormat: bitstring width mismatch");
  }
  const uint64_t raw = bits.value();
  const uint64_t mag = raw & ((uint64_t{1} << man_bits_) - 1);
  const bool sign = (raw >> man_bits_) & 1;
  const float v = decode_code(static_cast<int32_t>(mag), 0);
  return sign ? -v : v;
}

BitString BfpFormat::real_to_format_at(float value, int64_t flat_index) const {
  const int se = shared_exp_.at(static_cast<size_t>(block_of(flat_index)));
  float mag =
      std::nearbyintf(std::ldexp(std::fabs(value), -(se + 1 - man_bits_)));
  mag = std::min(mag, static_cast<float>((1 << man_bits_) - 1));
  const uint64_t sign = std::signbit(value) ? 1 : 0;
  return BitString((sign << man_bits_) | static_cast<uint64_t>(mag),
                   bit_width_);
}

float BfpFormat::format_to_real_at(const BitString& bits,
                                   int64_t flat_index) const {
  if (bits.width() != bit_width_) {
    throw std::invalid_argument("BfpFormat: bitstring width mismatch");
  }
  const int se = shared_exp_.at(static_cast<size_t>(block_of(flat_index)));
  const uint64_t raw = bits.value();
  const uint64_t mag = raw & ((uint64_t{1} << man_bits_) - 1);
  const bool sign = (raw >> man_bits_) & 1;
  const float v = decode_code(static_cast<int32_t>(mag), se);
  return sign ? -v : v;
}

std::vector<MetadataField> BfpFormat::metadata_fields() const {
  return {MetadataField{"shared_exponent", exp_bits_,
                        static_cast<int64_t>(shared_exp_.size())}};
}

BitString BfpFormat::read_metadata(const std::string& field,
                                   int64_t index) const {
  if (field != "shared_exponent" || index < 0 ||
      index >= static_cast<int64_t>(shared_exp_.size())) {
    throw std::logic_error("BfpFormat: unknown metadata register '" + field +
                           "[" + std::to_string(index) + "]'");
  }
  const int stored = shared_exp_[static_cast<size_t>(index)] + bias_;
  return BitString(static_cast<uint64_t>(stored), exp_bits_);
}

void BfpFormat::write_metadata(const std::string& field, int64_t index,
                               const BitString& bits) {
  if (field != "shared_exponent" || index < 0 ||
      index >= static_cast<int64_t>(shared_exp_.size()) ||
      bits.width() != exp_bits_) {
    throw std::logic_error("BfpFormat: bad metadata write to '" + field + "'");
  }
  shared_exp_[static_cast<size_t>(index)] =
      static_cast<int>(bits.value()) - bias_;
}

Tensor BfpFormat::decode_last_tensor() const {
  if (last_codes_.empty()) {
    throw std::logic_error("BfpFormat: no tensor converted yet");
  }
  Tensor out(last_shape_);
  float* po = out.data();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) {
    const int se = shared_exp_[static_cast<size_t>(i / effective_block_)];
    po[i] = decode_code(last_codes_[static_cast<size_t>(i)], se);
  }
  return out;
}

double BfpFormat::abs_max() const {
  const int se_max = ((1 << exp_bits_) - 1) - bias_;
  const double max_mag = (1 << man_bits_) - 1;
  return max_mag * std::ldexp(1.0, se_max + 1 - man_bits_);
}

double BfpFormat::abs_min() const {
  const int se_min = -bias_;
  return std::ldexp(1.0, se_min + 1 - man_bits_);
}

int BfpFormat::shared_exponent(int64_t b) const {
  return shared_exp_.at(static_cast<size_t>(b));
}

std::string BfpFormat::spec() const { return name_; }

std::unique_ptr<NumberFormat> BfpFormat::clone() const {
  return std::make_unique<BfpFormat>(*this);
}

}  // namespace ge::fmt
