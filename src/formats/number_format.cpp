#include "formats/number_format.hpp"

#include <cmath>
#include <stdexcept>

namespace ge::fmt {

BitString::BitString(uint64_t bits, int width) : bits_(bits), width_(width) {
  if (width < 0 || width > 64) {
    throw std::invalid_argument("BitString: width must be in [0, 64]");
  }
  if (width < 64) bits_ &= (uint64_t{1} << width) - 1;
}

void BitString::check_index(int i) const {
  if (i < 0 || i >= width_) {
    throw std::out_of_range("BitString: bit " + std::to_string(i) +
                            " out of range for width " +
                            std::to_string(width_));
  }
}

bool BitString::bit(int i) const {
  check_index(i);
  return (bits_ >> i) & 1;
}

void BitString::set_bit(int i, bool b) {
  check_index(i);
  if (b) {
    bits_ |= (uint64_t{1} << i);
  } else {
    bits_ &= ~(uint64_t{1} << i);
  }
}

void BitString::flip_bit(int i) {
  check_index(i);
  bits_ ^= (uint64_t{1} << i);
}

std::string BitString::to_string() const {
  std::string s;
  s.reserve(static_cast<size_t>(width_));
  for (int i = width_ - 1; i >= 0; --i) s.push_back(bit(i) ? '1' : '0');
  return s;
}

NumberFormat::NumberFormat(std::string name, int bit_width)
    : name_(std::move(name)), bit_width_(bit_width) {
  if (bit_width <= 0 || bit_width > 64) {
    throw std::invalid_argument("NumberFormat: bit_width must be in [1, 64]");
  }
}

BitString NumberFormat::real_to_format_at(float value,
                                          int64_t /*flat_index*/) const {
  return real_to_format(value);
}

float NumberFormat::format_to_real_at(const BitString& bits,
                                      int64_t /*flat_index*/) const {
  return format_to_real(bits);
}

BitString NumberFormat::read_metadata(const std::string& field,
                                      int64_t /*index*/) const {
  throw std::logic_error("format '" + name_ + "' has no metadata field '" +
                         field + "'");
}

void NumberFormat::write_metadata(const std::string& field, int64_t /*index*/,
                                  const BitString& /*bits*/) {
  throw std::logic_error("format '" + name_ + "' has no metadata field '" +
                         field + "'");
}

Tensor NumberFormat::decode_last_tensor() const {
  throw std::logic_error("format '" + name_ +
                         "' does not retain tensor state (no metadata)");
}

double NumberFormat::dynamic_range_db() const {
  const double mn = abs_min();
  if (mn <= 0.0) return 0.0;
  return 20.0 * std::log10(abs_max() / mn);
}

int floor_log2(float x) {
  int e = 0;
  const float m = std::frexp(std::fabs(x), &e);  // |x| = m * 2^e, m in [0.5,1)
  (void)m;
  return e - 1;
}

float pow2f(int e) { return std::ldexp(1.0f, e); }

}  // namespace ge::fmt
