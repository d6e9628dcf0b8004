#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace ge::ops {

namespace {

/// Elementwise kernels fall back to one chunk below this size; above it
/// they split into fixed 32k-element chunks (boundaries independent of the
/// thread count, so results are bitwise identical at any GE_NUM_THREADS).
constexpr int64_t kElementGrain = 32 * 1024;

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
}

template <typename F>
Tensor binary(const Tensor& a, const Tensor& b, const char* op, F f) {
  check_same_shape(a, b, op);
  Tensor out(a.shape());
  const float* pa = a.cdata();
  const float* pb = b.cdata();
  float* po = out.data();
  parallel::parallel_for(0, a.numel(), kElementGrain,
                         [&](int64_t lo, int64_t hi) {
                           for (int64_t i = lo; i < hi; ++i) {
                             po[i] = f(pa[i], pb[i]);
                           }
                         });
  return out;
}

template <typename F>
Tensor unary(const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* pa = a.cdata();
  float* po = out.data();
  parallel::parallel_for(0, a.numel(), kElementGrain,
                         [&](int64_t lo, int64_t hi) {
                           for (int64_t i = lo; i < hi; ++i) po[i] = f(pa[i]);
                         });
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary(a, b, "add", [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary(a, b, "sub", [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary(a, b, "mul", [](float x, float y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary(a, b, "div", [](float x, float y) { return x / y; });
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  float* pa = a.data();
  const float* pb = b.cdata();
  parallel::parallel_for(0, a.numel(), kElementGrain,
                         [&](int64_t lo, int64_t hi) {
                           for (int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
                         });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x * s; });
}
void mul_scalar_inplace(Tensor& a, float s) {
  for (float& v : a.flat()) v *= s;
}

Tensor neg(const Tensor& a) {
  return unary(a, [](float x) { return -x; });
}
Tensor exp(const Tensor& a) {
  return unary(a, [](float x) { return std::exp(x); });
}
Tensor abs(const Tensor& a) {
  return unary(a, [](float x) { return std::fabs(x); });
}
Tensor sqrt(const Tensor& a) {
  return unary(a, [](float x) { return std::sqrt(x); });
}
Tensor tanh(const Tensor& a) {
  return unary(a, [](float x) { return std::tanh(x); });
}
Tensor clamp(const Tensor& a, float lo, float hi) {
  return unary(a, [lo, hi](float x) { return std::clamp(x, lo, hi); });
}

Tensor map(const Tensor& a, const std::function<float(float)>& f) {
  return unary(a, [&f](float x) { return f(x); });
}
void map_inplace(Tensor& a, const std::function<float(float)>& f) {
  for (float& v : a.flat()) v = f(v);
}

float sum(const Tensor& a) {
  double s = 0.0;  // double accumulator: stable for large tensors
  for (float v : a.flat()) s += v;
  return static_cast<float>(s);
}

float mean(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("mean of empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

float max_abs(const Tensor& a) {
  float m = 0.0f;
  for (float v : a.flat()) m = std::max(m, std::fabs(v));
  return m;
}

float min_value(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("min of empty tensor");
  float m = std::numeric_limits<float>::infinity();
  for (float v : a.flat()) m = std::min(m, v);
  return m;
}

float max_value(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("max of empty tensor");
  float m = -std::numeric_limits<float>::infinity();
  for (float v : a.flat()) m = std::max(m, v);
  return m;
}

std::vector<int64_t> argmax_rows(const Tensor& a) {
  if (a.dim() < 1) throw std::invalid_argument("argmax_rows: rank-0 tensor");
  const int64_t cols = a.size(-1);
  if (cols == 0) throw std::invalid_argument("argmax_rows: empty rows");
  const int64_t rows = a.numel() / cols;
  std::vector<int64_t> out(static_cast<size_t>(rows));
  const float* p = a.cdata();
  parallel::parallel_for(
      0, rows, parallel::grain_for(cols), [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* row = p + r * cols;
          int64_t best = 0;
          for (int64_t c = 1; c < cols; ++c) {
            if (row[c] > row[best]) best = c;
          }
          out[static_cast<size_t>(r)] = best;
        }
      });
  return out;
}

// Accumulation contract (the matmul family and Conv2d's forward): every
// output element has one FP32 accumulator that starts at +0.0f and, for k
// ascending, takes one rounded product and one rounded add,
//   acc = acc + a[i][k] * b[k][j].
// No operand is skipped, except that `matmul` and `matmul_at` skip a k step
// for row i when a[i][k] compares equal to zero (+0 or -0). Against a finite
// b that skip changes nothing; against Inf or NaN (which faults produce) it
// decides between a number and NaN, so it is part of the contract. Conv adds
// its bias (or +0.0f) once, after the last tap. This is the emulated
// accelerator's native FP32 MAC fabric (DESIGN.md §1), and it makes the three
// variants agree bitwise on the same logical product. (One thing IEEE 754
// leaves open: when the accumulator and the product are both NaN, which
// payload the sum carries is up to the hardware and the register the
// compiler makes the destination. No digest reads NaN payloads.)
//
// One packed-panel micro-kernel implements it. B is packed k-major into
// panels of kNR columns once per call (never cached: weight faults and
// Emulator attach rewrite weights between calls), and a kMR x kNR tile of
// accumulators runs SIMD lanes across output columns, never across k. Tile
// shape, chunking and thread count therefore cannot move a bit of any
// output. The build passes -ffp-contract=off so no product and add are ever
// fused into an FMA.

namespace {

using f32x4 = float __attribute__((vector_size(16)));
constexpr int64_t kMR = 4;  // A rows per tile
constexpr int64_t kNR = 8;  // output columns per tile: two 4-lane vectors

/// Rows [0, R) of A times one packed panel `bp` (K x kNR, k-major). Row r
/// of A holds its k-th element at a[r * a_rs + k * a_ks]. Writes the first
/// `cols` columns of row r to c + r * c_rs, adding add[r] when `add` is set.
template <int R, bool kSkipZeroA>
void tile(int64_t K, const float* a, int64_t a_rs, int64_t a_ks,
          const float* bp, float* c, int64_t c_rs, int64_t cols,
          const float* add) {
  f32x4 acc[R][2] = {};
  for (int64_t k = 0; k < K; ++k) {
    f32x4 b0, b1;
    std::memcpy(&b0, bp + k * kNR, sizeof b0);
    std::memcpy(&b1, bp + k * kNR + 4, sizeof b1);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float av = a[r * a_rs + k * a_ks];
      if (kSkipZeroA && av == 0.0f) continue;
      const f32x4 va = {av, av, av, av};
      acc[r][0] += va * b0;
      acc[r][1] += va * b1;
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    float row[kNR];
    std::memcpy(row, acc[r], sizeof row);
    float* crow = c + r * c_rs;
    if (add) {
      for (int64_t j = 0; j < cols; ++j) crow[j] = row[j] + add[r];
    } else {
      for (int64_t j = 0; j < cols; ++j) crow[j] = row[j];
    }
  }
}

/// tile() for the `rows` (1..kMR) rows left in a row block.
template <bool kSkipZeroA>
void run_tile(int64_t rows, int64_t K, const float* a, int64_t a_rs,
              int64_t a_ks, const float* bp, float* c, int64_t c_rs,
              int64_t cols, const float* add) {
  switch (rows) {
    case 1:
      return tile<1, kSkipZeroA>(K, a, a_rs, a_ks, bp, c, c_rs, cols, add);
    case 2:
      return tile<2, kSkipZeroA>(K, a, a_rs, a_ks, bp, c, c_rs, cols, add);
    case 3:
      return tile<3, kSkipZeroA>(K, a, a_rs, a_ks, bp, c, c_rs, cols, add);
    default:
      return tile<4, kSkipZeroA>(K, a, a_rs, a_ks, bp, c, c_rs, cols, add);
  }
}

/// C (M x N, dense row-major) = A (M x K) * B (K x N) under the contract
/// above. A[i][k] = a[i * a_rs + k * a_ks]; B[k][j] = b[k * b_ks + j * b_js].
template <bool kSkipZeroA>
void gemm(int64_t M, int64_t N, int64_t K, const float* a, int64_t a_rs,
          int64_t a_ks, const float* b, int64_t b_ks, int64_t b_js,
          float* c) {
  if (M == 0 || N == 0) return;
  const int64_t panels = (N + kNR - 1) / kNR;
  // Panel p holds columns [p*kNR, p*kNR + kNR) k-major; lanes past N are
  // 0.0f and their results are never stored. The buffer is an arena block
  // (no heap traffic in a steady-state forward); it is repacked every call.
  Tensor packed_buf({panels * K * kNR});
  float* packed = packed_buf.data();
  parallel::parallel_for(
      0, panels, parallel::grain_for(K * kNR), [&](int64_t lo, int64_t hi) {
        for (int64_t p = lo; p < hi; ++p) {
          float* dst = packed + p * K * kNR;
          for (int64_t k = 0; k < K; ++k) {
            for (int64_t jj = 0; jj < kNR; ++jj) {
              const int64_t j = p * kNR + jj;
              *dst++ = j < N ? b[k * b_ks + j * b_js] : 0.0f;
            }
          }
        }
      });
  const int64_t row_blocks = (M + kMR - 1) / kMR;
  parallel::parallel_for(
      0, row_blocks * panels, parallel::grain_for(kMR * kNR * K),
      [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
          const int64_t i0 = (t / panels) * kMR;
          const int64_t p = t % panels;
          const int64_t j0 = p * kNR;
          run_tile<kSkipZeroA>(std::min(kMR, M - i0), K, a + i0 * a_rs, a_rs,
                               a_ks, packed + p * K * kNR,
                               c + i0 * N + j0, N, std::min(kNR, N - j0),
                               nullptr);
        }
      });
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.dim() != 2 || b.dim() != 2 || a.size(1) != b.size(0)) {
    throw std::invalid_argument("matmul: bad shapes " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  const int64_t M = a.size(0), K = a.size(1), N = b.size(1);
  Tensor out({M, N});
  gemm<true>(M, N, K, a.cdata(), K, 1, b.cdata(), N, 1, out.data());
  return out;
}

Tensor matmul_bt(const Tensor& a, const Tensor& b_t) {
  if (a.dim() != 2 || b_t.dim() != 2 || a.size(1) != b_t.size(1)) {
    throw std::invalid_argument("matmul_bt: bad shapes " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b_t.shape()) + "^T");
  }
  const int64_t M = a.size(0), K = a.size(1), N = b_t.size(0);
  Tensor out({M, N});
  gemm<false>(M, N, K, a.cdata(), K, 1, b_t.cdata(), 1, K, out.data());
  return out;
}

Tensor matmul_at(const Tensor& a_t, const Tensor& b) {
  if (a_t.dim() != 2 || b.dim() != 2 || a_t.size(0) != b.size(0)) {
    throw std::invalid_argument("matmul_at: bad shapes " +
                                shape_to_string(a_t.shape()) + "^T x " +
                                shape_to_string(b.shape()));
  }
  const int64_t K = a_t.size(0), M = a_t.size(1), N = b.size(1);
  Tensor out({M, N});
  gemm<true>(M, N, K, a_t.cdata(), 1, M, b.cdata(), N, 1, out.data());
  return out;
}

Tensor transpose2d(const Tensor& a) {
  if (a.dim() != 2) throw std::invalid_argument("transpose2d: need rank 2");
  const int64_t M = a.size(0), N = a.size(1);
  Tensor out({N, M});
  const float* pa = a.cdata();
  float* po = out.data();
  for (int64_t i = 0; i < M; ++i) {
    for (int64_t j = 0; j < N; ++j) po[j * M + i] = pa[i * N + j];
  }
  return out;
}

Tensor softmax_lastdim(const Tensor& a) {
  const int64_t cols = a.size(-1);
  const int64_t rows = a.numel() / cols;
  Tensor out(a.shape());
  const float* p = a.cdata();
  float* po = out.data();
  parallel::parallel_for(
      0, rows, parallel::grain_for(4 * cols), [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* row = p + r * cols;
          float* orow = po + r * cols;
          float mx = row[0];
          for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
          double s = 0.0;
          for (int64_t c = 0; c < cols; ++c) {
            orow[c] = std::exp(row[c] - mx);
            s += orow[c];
          }
          const float inv = static_cast<float>(1.0 / s);
          for (int64_t c = 0; c < cols; ++c) orow[c] *= inv;
        }
      });
  return out;
}

Tensor log_softmax_lastdim(const Tensor& a) {
  const int64_t cols = a.size(-1);
  const int64_t rows = a.numel() / cols;
  Tensor out(a.shape());
  const float* p = a.cdata();
  float* po = out.data();
  parallel::parallel_for(
      0, rows, parallel::grain_for(4 * cols), [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* row = p + r * cols;
          float* orow = po + r * cols;
          float mx = row[0];
          for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
          double s = 0.0;
          for (int64_t c = 0; c < cols; ++c) {
            s += std::exp(double(row[c]) - mx);
          }
          const float lse = mx + static_cast<float>(std::log(s));
          for (int64_t c = 0; c < cols; ++c) orow[c] = row[c] - lse;
        }
      });
  return out;
}

Tensor im2col(const Tensor& input, const Conv2dSpec& s) {
  if (input.dim() != 4) throw std::invalid_argument("im2col: need NCHW");
  const int64_t N = input.size(0), C = input.size(1), H = input.size(2),
                W = input.size(3);
  const int64_t OH = s.out_h(H), OW = s.out_w(W);
  if (OH <= 0 || OW <= 0) {
    throw std::invalid_argument("im2col: empty output window");
  }
  const int64_t patch = C * s.kernel_h * s.kernel_w;
  Tensor cols({N * OH * OW, patch});
  const float* pin = input.cdata();
  float* pc = cols.data();
  // Parallel over output rows r = (n*OH + oh)*OW + ow; each row writes a
  // disjoint `patch`-sized slice of `cols`.
  parallel::parallel_for(
      0, N * OH * OW, parallel::grain_for(patch), [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const int64_t ow = r % OW;
          const int64_t oh = (r / OW) % OH;
          const int64_t n = r / (OW * OH);
          float* dst = pc + r * patch;
          for (int64_t c = 0; c < C; ++c) {
            for (int64_t kh = 0; kh < s.kernel_h; ++kh) {
              const int64_t ih = oh * s.stride_h - s.pad_h + kh;
              for (int64_t kw = 0; kw < s.kernel_w; ++kw) {
                const int64_t iw = ow * s.stride_w - s.pad_w + kw;
                float v = 0.0f;
                if (ih >= 0 && ih < H && iw >= 0 && iw < W) {
                  v = pin[((n * C + c) * H + ih) * W + iw];
                }
                *dst++ = v;
              }
            }
          }
        }
      });
  return cols;
}

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const Conv2dSpec& s) {
  if (input.dim() != 4 || weight.dim() != 4 ||
      weight.size(1) != input.size(1) || weight.size(2) != s.kernel_h ||
      weight.size(3) != s.kernel_w) {
    throw std::invalid_argument("conv2d: bad shapes " +
                                shape_to_string(input.shape()) + " * " +
                                shape_to_string(weight.shape()));
  }
  const int64_t N = input.size(0), C = input.size(1), H = input.size(2),
                W = input.size(3), OC = weight.size(0);
  if (bias != nullptr && bias->numel() != OC) {
    throw std::invalid_argument("conv2d: bias size mismatch");
  }
  const int64_t OH = s.out_h(H), OW = s.out_w(W);
  if (OH <= 0 || OW <= 0) {
    throw std::invalid_argument("conv2d: empty output window");
  }
  const int64_t KH = s.kernel_h, KW = s.kernel_w;
  const int64_t patch = C * KH * KW;  // K of the GEMM: taps in (c, kh, kw)
  const int64_t P = OH * OW;          // output positions per image
  const int64_t panels = (P + kNR - 1) / kNR;
  std::vector<float> add(static_cast<size_t>(OC), 0.0f);
  if (bias != nullptr) std::copy_n(bias->cdata(), OC, add.begin());

  // Zero-pad the input once: pad taps then read +0.0f like any other tap,
  // and the panel gather below needs no bounds checks.
  const int64_t Hp = H + 2 * s.pad_h, Wp = W + 2 * s.pad_w;
  const float* src = input.cdata();
  Tensor padded;
  if (Hp != H || Wp != W) {
    padded = Tensor({N, C, Hp, Wp});
    float* pp = padded.data();
    parallel::parallel_for(
        0, N * C, parallel::grain_for(Hp * Wp), [&](int64_t lo, int64_t hi) {
          for (int64_t nc = lo; nc < hi; ++nc) {
            for (int64_t h = 0; h < H; ++h) {
              std::copy_n(src + (nc * H + h) * W, W,
                          pp + (nc * Hp + h + s.pad_h) * Wp + s.pad_w);
            }
          }
        });
    src = padded.cdata();
  }

  Tensor out({N, OC, OH, OW});
  const float* pw = weight.cdata();
  float* po = out.data();
  // Implicit im2col: each work item gathers the patch x kNR panel of one
  // image's next kNR output positions (k-major, the packed-B layout), then
  // runs every weight-row tile against it. Lanes past P repeat the last
  // position; their results are never stored. Each worker slot owns one
  // panel of an arena block: a slot runs its chunks one after another, and
  // a nested call runs all of them inline on slot 0.
  const int slots =
      parallel::in_parallel_region() ? 1 : parallel::num_threads();
  Tensor panel_buf({slots * patch * kNR});
  float* panels_by_slot = panel_buf.data();
  parallel::parallel_for_workers(
      0, N * panels, parallel::grain_for(OC * kNR * patch), slots,
      [&](int slot, int64_t lo, int64_t hi) {
        float* panel = panels_by_slot + slot * patch * kNR;
        int64_t base[kNR];  // window origin of each lane in a padded plane
        for (int64_t t = lo; t < hi; ++t) {
          const int64_t n = t / panels;
          const int64_t p0 = (t % panels) * kNR;
          const int64_t cols = std::min(kNR, P - p0);
          bool contiguous = true;
          for (int64_t jj = 0; jj < kNR; ++jj) {
            const int64_t pos = p0 + std::min(jj, cols - 1);
            base[jj] = (pos / OW) * s.stride_h * Wp + (pos % OW) * s.stride_w;
            contiguous = contiguous && base[jj] == base[0] + jj;
          }
          const float* img = src + n * C * Hp * Wp;
          float* dst = panel;
          for (int64_t c = 0; c < C; ++c) {
            for (int64_t kh = 0; kh < KH; ++kh) {
              for (int64_t kw = 0; kw < KW; ++kw, dst += kNR) {
                const float* tap = img + (c * Hp + kh) * Wp + kw;
                if (contiguous) {
                  std::memcpy(dst, tap + base[0], kNR * sizeof(float));
                } else {
                  for (int64_t jj = 0; jj < kNR; ++jj) dst[jj] = tap[base[jj]];
                }
              }
            }
          }
          float* cimg = po + n * OC * P + p0;
          for (int64_t oc = 0; oc < OC; oc += kMR) {
            run_tile<false>(std::min(kMR, OC - oc), patch, pw + oc * patch,
                            patch, 1, panel, cimg + oc * P, P, cols,
                            add.data() + oc);
          }
        }
      });
  return out;
}

Tensor col2im(const Tensor& cols, const Shape& input_shape,
              const Conv2dSpec& s) {
  if (input_shape.size() != 4) {
    throw std::invalid_argument("col2im: need NCHW target shape");
  }
  const int64_t N = input_shape[0], C = input_shape[1], H = input_shape[2],
                W = input_shape[3];
  const int64_t OH = s.out_h(H), OW = s.out_w(W);
  const int64_t patch = C * s.kernel_h * s.kernel_w;
  if (cols.dim() != 2 || cols.size(0) != N * OH * OW ||
      cols.size(1) != patch) {
    throw std::invalid_argument("col2im: cols shape mismatch");
  }
  Tensor out(input_shape);
  const float* pc = cols.cdata();
  float* pout = out.data();
  // Serial on purpose: overlapping windows scatter-add into the same input
  // cells, so a parallel version would race (or need per-thread partials
  // whose merge order breaks bitwise determinism).
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t oh = 0; oh < OH; ++oh) {
      for (int64_t ow = 0; ow < OW; ++ow) {
        const float* src = pc + ((n * OH + oh) * OW + ow) * patch;
        for (int64_t c = 0; c < C; ++c) {
          for (int64_t kh = 0; kh < s.kernel_h; ++kh) {
            const int64_t ih = oh * s.stride_h - s.pad_h + kh;
            for (int64_t kw = 0; kw < s.kernel_w; ++kw) {
              const int64_t iw = ow * s.stride_w - s.pad_w + kw;
              const float v = *src++;
              if (ih >= 0 && ih < H && iw >= 0 && iw < W) {
                pout[((n * C + c) * H + ih) * W + iw] += v;
              }
            }
          }
        }
      }
    }
  }
  return out;
}

Tensor maxpool2d(const Tensor& input, const Conv2dSpec& s,
                 std::vector<int64_t>* argmax_out) {
  if (input.dim() != 4) throw std::invalid_argument("maxpool2d: need NCHW");
  const int64_t N = input.size(0), C = input.size(1), H = input.size(2),
                W = input.size(3);
  const int64_t OH = s.out_h(H), OW = s.out_w(W);
  Tensor out({N, C, OH, OW});
  if (argmax_out) argmax_out->assign(static_cast<size_t>(out.numel()), -1);
  const float* pin = input.cdata();
  float* po = out.data();
  // Parallel over (n, c) planes; each plane owns a disjoint OH*OW output
  // slice, so `oidx` is computed from the plane index rather than carried
  // as a running counter.
  parallel::parallel_for(
      0, N * C, parallel::grain_for(OH * OW * s.kernel_h * s.kernel_w),
      [&](int64_t lo, int64_t hi) {
        for (int64_t nc = lo; nc < hi; ++nc) {
          const int64_t n = nc / C;
          const int64_t c = nc % C;
          const float* plane = pin + nc * H * W;
          int64_t oidx = nc * OH * OW;
          for (int64_t oh = 0; oh < OH; ++oh) {
            for (int64_t ow = 0; ow < OW; ++ow, ++oidx) {
              float best = -std::numeric_limits<float>::infinity();
              int64_t best_idx = -1;
              for (int64_t kh = 0; kh < s.kernel_h; ++kh) {
                const int64_t ih = oh * s.stride_h - s.pad_h + kh;
                if (ih < 0 || ih >= H) continue;
                for (int64_t kw = 0; kw < s.kernel_w; ++kw) {
                  const int64_t iw = ow * s.stride_w - s.pad_w + kw;
                  if (iw < 0 || iw >= W) continue;
                  const float v = plane[ih * W + iw];
                  if (v > best) {
                    best = v;
                    best_idx = (n * C + c) * H * W + ih * W + iw;
                  }
                }
              }
              po[oidx] = best;
              if (argmax_out) {
                (*argmax_out)[static_cast<size_t>(oidx)] = best_idx;
              }
            }
          }
        }
      });
  return out;
}

Tensor avgpool2d(const Tensor& input, const Conv2dSpec& s) {
  if (input.dim() != 4) throw std::invalid_argument("avgpool2d: need NCHW");
  const int64_t N = input.size(0), C = input.size(1), H = input.size(2),
                W = input.size(3);
  const int64_t OH = s.out_h(H), OW = s.out_w(W);
  Tensor out({N, C, OH, OW});
  const float window = static_cast<float>(s.kernel_h * s.kernel_w);
  const float* pin = input.cdata();
  float* po = out.data();
  parallel::parallel_for(
      0, N * C, parallel::grain_for(OH * OW * s.kernel_h * s.kernel_w),
      [&](int64_t lo, int64_t hi) {
        for (int64_t nc = lo; nc < hi; ++nc) {
          const float* plane = pin + nc * H * W;
          int64_t oidx = nc * OH * OW;
          for (int64_t oh = 0; oh < OH; ++oh) {
            for (int64_t ow = 0; ow < OW; ++ow, ++oidx) {
              double acc = 0.0;
              for (int64_t kh = 0; kh < s.kernel_h; ++kh) {
                const int64_t ih = oh * s.stride_h - s.pad_h + kh;
                if (ih < 0 || ih >= H) continue;
                for (int64_t kw = 0; kw < s.kernel_w; ++kw) {
                  const int64_t iw = ow * s.stride_w - s.pad_w + kw;
                  if (iw < 0 || iw >= W) continue;
                  acc += plane[ih * W + iw];
                }
              }
              po[oidx] = static_cast<float>(acc) / window;
            }
          }
        }
      });
  return out;
}

Tensor global_avgpool(const Tensor& input) {
  if (input.dim() != 4) {
    throw std::invalid_argument("global_avgpool: need NCHW");
  }
  const int64_t N = input.size(0), C = input.size(1),
                HW = input.size(2) * input.size(3);
  // 1x1 spatial: the mean of one element is the element (double-roundtrip
  // exact), so the pool is a reshape — share the storage, skip the copy.
  if (HW == 1) return input.reshape({N, C});
  Tensor out({N, C});
  const float* pin = input.cdata();
  float* po = out.data();
  parallel::parallel_for(
      0, N * C, parallel::grain_for(HW), [&](int64_t lo, int64_t hi) {
        for (int64_t nc = lo; nc < hi; ++nc) {
          const float* plane = pin + nc * HW;
          double acc = 0.0;
          for (int64_t i = 0; i < HW; ++i) acc += plane[i];
          po[nc] = static_cast<float>(acc / double(HW));
        }
      });
  return out;
}

}  // namespace ge::ops
