#include "formats/intq.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/tensor_ops.hpp"

namespace ge::fmt {

IntFormat::IntFormat(int bits)
    : NumberFormat("int" + std::to_string(bits), bits),
      bits_(bits),
      max_code_((int64_t{1} << (bits - 1)) - 1) {
  if (bits < 2 || bits > 32) {
    throw std::invalid_argument("IntFormat: bits must be in [2, 32]");
  }
}

void IntFormat::set_range(float max_abs_value) {
  if (!(max_abs_value > 0.0f)) {
    throw std::invalid_argument("IntFormat::set_range: need positive range");
  }
  scale_ = max_abs_value / static_cast<float>(max_code_);
  fixed_range_ = true;
}

void IntFormat::quantize_tensor_inplace(Tensor& t) {
  if (!fixed_range_) {
    const float mx = ops::max_abs(t);
    scale_ = (mx > 0.0f) ? mx / static_cast<float>(max_code_) : 1.0f;
  }
  const int64_t n = t.numel();
  last_shape_ = t.shape();
  last_codes_.assign(static_cast<size_t>(n), 0);
  Tensor before;
  if (obs::metrics_enabled()) before = t;  // O(1) pre-quant snapshot via COW
  float* p = t.data();
  const float inv = 1.0f / scale_;
  const auto cmin = static_cast<float>(-max_code_);
  const auto cmax = static_cast<float>(max_code_);
  // The scale (tensor metadata) is fixed above; the element loop only does
  // disjoint writes to `t` and `last_codes_`, so it parallelizes cleanly.
  parallel::parallel_for(0, n, 4096, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float code = std::clamp(std::nearbyintf(p[i] * inv), cmin, cmax);
      last_codes_[static_cast<size_t>(i)] = static_cast<int32_t>(code);
      p[i] = code * scale_;
    }
  });
  if (obs::metrics_enabled()) {
    // abs_max() is in code units for INT; the real-domain edge is code*scale.
    obs::record_quantization(before.cdata(), p, n,
                             static_cast<double>(max_code_) * scale_);
  }
}

BitString IntFormat::real_to_format(float value) const {
  const float code = std::clamp(std::nearbyintf(value / scale_),
                                static_cast<float>(-max_code_),
                                static_cast<float>(max_code_));
  const auto icode = static_cast<int64_t>(code);
  const uint64_t mask = (uint64_t{1} << bits_) - 1;
  return BitString(static_cast<uint64_t>(icode) & mask, bits_);
}

float IntFormat::format_to_real(const BitString& bits) const {
  if (bits.width() != bits_) {
    throw std::invalid_argument("IntFormat: bitstring width mismatch");
  }
  uint64_t raw = bits.value();
  const uint64_t sign_bit = uint64_t{1} << (bits_ - 1);
  int64_t code;
  if (raw & sign_bit) {
    code = static_cast<int64_t>(raw | ~((sign_bit << 1) - 1));
  } else {
    code = static_cast<int64_t>(raw);
  }
  return static_cast<float>(code) * scale_;
}

std::vector<MetadataField> IntFormat::metadata_fields() const {
  return {MetadataField{"scale", 32, 1}};
}

BitString IntFormat::read_metadata(const std::string& field,
                                   int64_t index) const {
  if (field != "scale" || index != 0) {
    throw std::logic_error("IntFormat: unknown metadata register '" + field +
                           "[" + std::to_string(index) + "]'");
  }
  return BitString(std::bit_cast<uint32_t>(scale_), 32);
}

void IntFormat::write_metadata(const std::string& field, int64_t index,
                               const BitString& bits) {
  if (field != "scale" || index != 0 || bits.width() != 32) {
    throw std::logic_error("IntFormat: bad metadata write to '" + field + "'");
  }
  scale_ = std::bit_cast<float>(static_cast<uint32_t>(bits.value()));
}

Tensor IntFormat::decode_last_tensor() const {
  if (last_codes_.empty()) {
    throw std::logic_error("IntFormat: no tensor converted yet");
  }
  Tensor out(last_shape_);
  float* po = out.data();
  for (size_t i = 0; i < last_codes_.size(); ++i) {
    po[static_cast<int64_t>(i)] =
        static_cast<float>(last_codes_[i]) * scale_;
  }
  return out;
}

double IntFormat::abs_max() const { return static_cast<double>(max_code_); }

double IntFormat::abs_min() const { return 1.0; }

std::string IntFormat::spec() const { return name_; }

std::unique_ptr<NumberFormat> IntFormat::clone() const {
  return std::make_unique<IntFormat>(*this);
}

}  // namespace ge::fmt
