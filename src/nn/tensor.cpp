#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include "util/check.hpp"

namespace mlcr::nn {

Tensor::Tensor(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Tensor::Tensor(std::initializer_list<std::initializer_list<float>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    MLCR_CHECK_MSG(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Tensor Tensor::zeros(std::size_t rows, std::size_t cols) {
  return Tensor(rows, cols, 0.0F);
}

Tensor Tensor::he_uniform(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t(rows, cols);
  const float limit = std::sqrt(6.0F / static_cast<float>(rows));
  for (std::size_t i = 0; i < t.size(); ++i)
    t.data_[i] = static_cast<float>(rng.uniform(-limit, limit));
  return t;
}

Tensor Tensor::xavier_uniform(std::size_t rows, std::size_t cols,
                              util::Rng& rng) {
  Tensor t(rows, cols);
  const float limit = std::sqrt(6.0F / static_cast<float>(rows + cols));
  for (std::size_t i = 0; i < t.size(); ++i)
    t.data_[i] = static_cast<float>(rng.uniform(-limit, limit));
  return t;
}

float& Tensor::at(std::size_t r, std::size_t c) {
  MLCR_CHECK_MSG(r < rows_ && c < cols_, "index (" << r << "," << c
                                                   << ") out of " << rows_
                                                   << "x" << cols_);
  return (*this)(r, c);
}

float Tensor::at(std::size_t r, std::size_t c) const {
  MLCR_CHECK_MSG(r < rows_ && c < cols_, "index (" << r << "," << c
                                                   << ") out of " << rows_
                                                   << "x" << cols_);
  return (*this)(r, c);
}

void Tensor::fill(float value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::add_(const Tensor& other) {
  MLCR_CHECK(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::axpy_(float alpha, const Tensor& other) {
  MLCR_CHECK(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] += alpha * other.data_[i];
}

void Tensor::scale_(float alpha) noexcept {
  for (float& v : data_) v *= alpha;
}

void Tensor::add_row_broadcast_(const Tensor& bias) {
  MLCR_CHECK(bias.rows_ == 1 && bias.cols_ == cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    float* out = row(r);
    for (std::size_t c = 0; c < cols_; ++c) out[c] += bias.data_[c];
  }
}

Tensor Tensor::transposed() const {
  Tensor t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

float Tensor::sum() const noexcept {
  float s = 0.0F;
  for (float v : data_) s += v;
  return s;
}

float Tensor::max_abs() const noexcept {
  float m = 0.0F;
  for (float v : data_) m = std::max(m, std::abs(v));
  return m;
}

float Tensor::squared_norm() const noexcept {
  float s = 0.0F;
  for (float v : data_) s += v * v;
  return s;
}

namespace {

// The one GEMM kernel behind matmul, matmul_tn and matmul_nt. Every output
// element is the same sum the textbook loop forms,
//   c_ij = ((0 + a_i0 * b_0j) + a_i1 * b_1j) + ...,  k ascending,
// with a rounded multiply and a rounded add per term (this library is built
// with -ffp-contract=off, so no FMA). Only independent outputs share a
// vector: 16 adjacent columns j per lane group, and a block of up to 4 rows
// whose accumulators stay in registers. No reduction is ever reordered, so
// results are bit-identical on every ISA the loader may pick.
using Lanes = float __attribute__((vector_size(64)));
constexpr std::size_t kLanes = 16;
constexpr std::size_t kRowBlock = 4;
constexpr std::size_t kMaxVecs = 3;  // 4 x 3 accumulators fit 32 zmm

/// c[0:R, 0:cols) = a[0:R, 0:k) . b[0:k, 0:V * kLanes), a's rows k apart.
/// b's rows hold V full lane groups (zero-padded past the matrix); only
/// `cols` columns are stored.
template <std::size_t R, std::size_t V>
[[gnu::always_inline]] inline void gemm_block(const float* a, const float* b,
                                              std::size_t ldb, float* c,
                                              std::size_t ldc, std::size_t k,
                                              std::size_t cols) {
  // The R x V loops are fully unrolled at -O2 too (the default build type),
  // so every accumulator stays in a register.
  Lanes acc[R][V] = {};
  for (std::size_t p = 0; p < k; ++p) {
    Lanes bv[V];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v)
      __builtin_memcpy(&bv[v], b + p * ldb + v * kLanes, sizeof(Lanes));
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const float ar = a[r * k + p];
#pragma GCC unroll 4
      for (std::size_t v = 0; v < V; ++v) acc[r][v] += ar * bv[v];
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      const std::size_t from = v * kLanes;
      const std::size_t n = std::min(kLanes, cols - from);
      __builtin_memcpy(c + r * ldc + from, &acc[r][v], n * sizeof(float));
    }
  }
}

template <std::size_t R>
[[gnu::always_inline]] inline void gemm_rows(std::size_t vecs, const float* a,
                                             const float* b, std::size_t ldb,
                                             float* c, std::size_t ldc,
                                             std::size_t k, std::size_t cols) {
  switch (vecs) {
    case 1: gemm_block<R, 1>(a, b, ldb, c, ldc, k, cols); break;
    case 2: gemm_block<R, 2>(a, b, ldb, c, ldc, k, cols); break;
    default: gemm_block<R, kMaxVecs>(a, b, ldb, c, ldc, k, cols); break;
  }
}

// The loader's ifunc resolver picks the widest clone of gemm() the CPU
// runs. ThreadSanitizer instruments that resolver, which runs before the
// TSan runtime is up and crashes, so a TSan build keeps only the portable
// clone (which gives the same bits as the others).
#if defined(__SANITIZE_THREAD__)
#define MLCR_GEMM_CLONES
#else
#define MLCR_GEMM_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#endif

/// c (m x n) = a (m x k) . b (k x n), a and c dense row-major. Every row of
/// b (leading dimension ldb) must be readable, zero-padded, up to the next
/// multiple of kLanes columns.
MLCR_GEMM_CLONES void gemm(
    const float* a, const float* b, std::size_t ldb, float* c, std::size_t m,
    std::size_t k, std::size_t n) {
  for (std::size_t j = 0; j < n; j += kMaxVecs * kLanes) {
    const std::size_t cols = std::min(n - j, kMaxVecs * kLanes);
    const std::size_t vecs = (cols + kLanes - 1) / kLanes;
    for (std::size_t i = 0; i < m; i += kRowBlock) {
      const float* ai = a + i * k;
      float* ci = c + i * n + j;
      switch (std::min(m - i, kRowBlock)) {
        case 1: gemm_rows<1>(vecs, ai, b + j, ldb, ci, n, k, cols); break;
        case 2: gemm_rows<2>(vecs, ai, b + j, ldb, ci, n, k, cols); break;
        case 3: gemm_rows<3>(vecs, ai, b + j, ldb, ci, n, k, cols); break;
        default:
          gemm_rows<kRowBlock>(vecs, ai, b + j, ldb, ci, n, k, cols);
          break;
      }
    }
  }
}

/// a . op(b), op(b) = b or b^T. op(b) goes to gemm() in place when it is b
/// and its rows are whole lane groups, and through a zero-padded copy
/// otherwise.
Tensor product(const Tensor& a, const Tensor& b, bool transpose_b) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = transpose_b ? b.rows() : b.cols();
  Tensor out(m, n);
  if (!transpose_b && n % kLanes == 0) {
    gemm(a.data(), b.data(), n, out.data(), m, k, n);
    return out;
  }
  const std::size_t ld = (n + kLanes - 1) / kLanes * kLanes;
  std::vector<float> panel(k * ld, 0.0F);
  for (std::size_t r = 0; r < b.rows(); ++r) {
    const float* in = b.row(r);
    for (std::size_t c = 0; c < b.cols(); ++c)
      panel[transpose_b ? c * ld + r : r * ld + c] = in[c];
  }
  gemm(a.data(), panel.data(), ld, out.data(), m, k, n);
  return out;
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  MLCR_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch: "
                                           << a.rows() << "x" << a.cols()
                                           << " . " << b.rows() << "x"
                                           << b.cols());
  return product(a, b, /*transpose_b=*/false);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  MLCR_CHECK_MSG(a.rows() == b.rows(), "matmul_tn shape mismatch");
  return product(a.transposed(), b, /*transpose_b=*/false);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  MLCR_CHECK_MSG(a.cols() == b.cols(), "matmul_nt shape mismatch");
  return product(a, b, /*transpose_b=*/true);
}

Tensor softmax_rows(const Tensor& logits) {
  Tensor out(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row(r);
    float* o = out.row(r);
    float max_v = in[0];
    for (std::size_t c = 1; c < logits.cols(); ++c)
      max_v = std::max(max_v, in[c]);
    float denom = 0.0F;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      o[c] = std::exp(in[c] - max_v);
      denom += o[c];
    }
    for (std::size_t c = 0; c < logits.cols(); ++c) o[c] /= denom;
  }
  return out;
}

Tensor softmax_rows_backward(const Tensor& y, const Tensor& grad_y) {
  MLCR_CHECK(y.same_shape(grad_y));
  Tensor grad_x(y.rows(), y.cols());
  for (std::size_t r = 0; r < y.rows(); ++r) {
    const float* yr = y.row(r);
    const float* gy = grad_y.row(r);
    float* gx = grad_x.row(r);
    float dot = 0.0F;
    for (std::size_t c = 0; c < y.cols(); ++c) dot += yr[c] * gy[c];
    for (std::size_t c = 0; c < y.cols(); ++c)
      gx[c] = yr[c] * (gy[c] - dot);
  }
  return grad_x;
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  os << "Tensor(" << t.rows() << "x" << t.cols() << ")[";
  for (std::size_t r = 0; r < t.rows(); ++r) {
    os << (r ? "; " : "");
    for (std::size_t c = 0; c < t.cols(); ++c)
      os << (c ? " " : "") << t(r, c);
  }
  return os << "]";
}

}  // namespace mlcr::nn
