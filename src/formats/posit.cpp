#include "formats/posit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"

namespace ge::fmt {

std::shared_ptr<const PositFormat::Tables> PositFormat::tables_for(int n,
                                                                   int es) {
  static std::mutex mu;
  static std::map<std::pair<int, int>, std::shared_ptr<const Tables>> cache;
  std::lock_guard<std::mutex> lk(mu);
  auto& slot = cache[{n, es}];
  if (!slot) {
    // Positive patterns are 0x0001 .. 0x7FFF... (sign bit clear, nonzero);
    // their decoded values are strictly increasing with the pattern — a
    // defining property of posits — so the table is sorted for free.
    auto t = std::make_shared<Tables>();
    const uint32_t count = uint32_t{1} << (n - 1);
    t->values.reserve(count - 1);
    t->patterns.reserve(count - 1);
    for (uint32_t p = 1; p < count; ++p) {
      t->values.push_back(decode_pattern(p, n, es));
      t->patterns.push_back(p);
    }
    slot = std::move(t);
  }
  return slot;
}

PositFormat::PositFormat(int n, int es)
    : NumberFormat("posit_" + std::to_string(n) + "_" + std::to_string(es),
                   n),
      n_(n),
      es_(es) {
  if (n < 3 || n > 16) {
    throw std::invalid_argument("PositFormat: n must be in [3, 16]");
  }
  if (es < 0 || es > 3) {
    throw std::invalid_argument("PositFormat: es must be in [0, 3]");
  }
  tables_ = tables_for(n, es);
}

double PositFormat::decode_pattern(uint32_t pattern, int n, int es) {
  const uint32_t mask = (uint32_t{1} << n) - 1;
  pattern &= mask;
  if (pattern == 0) return 0.0;
  const uint32_t nar = uint32_t{1} << (n - 1);
  if (pattern == nar) return std::numeric_limits<double>::quiet_NaN();

  double sign = 1.0;
  if (pattern & nar) {
    sign = -1.0;
    pattern = (~pattern + 1) & mask;  // two's complement negate
  }
  // regime: run of identical bits after the sign position
  int i = n - 2;  // index of the first regime bit
  const int first = (pattern >> i) & 1;
  int run = 0;
  while (i >= 0 && ((pattern >> i) & 1) == static_cast<uint32_t>(first)) {
    ++run;
    --i;
  }
  --i;  // skip the regime terminator bit (if present)
  const int k = first ? (run - 1) : -run;

  // exponent: up to es bits
  int e = 0;
  for (int b = 0; b < es; ++b) {
    e <<= 1;
    if (i >= 0) {
      e |= (pattern >> i) & 1;
      --i;
    }
  }
  // fraction: remaining bits
  double frac = 1.0;
  double w = 0.5;
  while (i >= 0) {
    if ((pattern >> i) & 1) frac += w;
    w *= 0.5;
    --i;
  }
  const double scale = std::ldexp(1.0, k * (1 << es) + e);
  return sign * scale * frac;
}

float PositFormat::quantize_value(float x) const {
  if (std::isnan(x)) return x;
  if (x == 0.0f) return 0.0f;
  const auto& vals = tables_->values;
  const double ax = std::fabs(x);
  const double sign = std::signbit(x) ? -1.0 : 1.0;
  // saturation: posits never round past maxpos / below minpos to zero
  if (ax >= vals.back()) {
    return static_cast<float>(sign * vals.back());
  }
  if (ax <= vals.front()) {
    return static_cast<float>(sign * vals.front());
  }
  const auto it = std::lower_bound(vals.begin(), vals.end(), ax);
  const size_t hi = static_cast<size_t>(it - vals.begin());
  const size_t lo = hi - 1;
  const double dlo = ax - vals[lo];
  const double dhi = vals[hi] - ax;
  size_t pick;
  if (dlo < dhi) {
    pick = lo;
  } else if (dhi < dlo) {
    pick = hi;
  } else {
    // tie: round to the even pattern (posit standard)
    pick = (tables_->patterns[lo] & 1) == 0 ? lo : hi;
  }
  return static_cast<float>(sign * vals[pick]);
}

void PositFormat::quantize_tensor_inplace(Tensor& t) {
  // Value-only format: elements quantize independently (table lookups are
  // read-only), so the loop chunks across threads.
  elementwise_inplace(t, [this](float x) { return quantize_value(x); });
}

BitString PositFormat::real_to_format(float value) const {
  if (std::isnan(value)) {
    return BitString(uint64_t{1} << (n_ - 1), n_);  // NaR
  }
  const float q = quantize_value(value);
  if (q == 0.0f) return BitString(0, n_);
  const double aq = std::fabs(q);
  const auto& vals = tables_->values;
  const auto it = std::lower_bound(vals.begin(), vals.end(), aq);
  if (it == vals.end() || *it != aq) {
    throw std::logic_error("PositFormat: quantised value not in table");
  }
  uint32_t pattern = tables_->patterns[static_cast<size_t>(it - vals.begin())];
  if (q < 0.0f) {
    const uint32_t mask = (uint32_t{1} << n_) - 1;
    pattern = (~pattern + 1) & mask;
  }
  return BitString(pattern, n_);
}

float PositFormat::format_to_real(const BitString& bits) const {
  if (bits.width() != n_) {
    throw std::invalid_argument("PositFormat: bitstring width mismatch");
  }
  return static_cast<float>(
      decode_pattern(static_cast<uint32_t>(bits.value()), n_, es_));
}

double PositFormat::abs_max() const { return tables_->values.back(); }

double PositFormat::abs_min() const { return tables_->values.front(); }

double PositFormat::useed() const { return std::ldexp(1.0, 1 << es_); }

std::string PositFormat::spec() const { return name_; }

std::unique_ptr<NumberFormat> PositFormat::clone() const {
  return std::make_unique<PositFormat>(*this);
}

}  // namespace ge::fmt
