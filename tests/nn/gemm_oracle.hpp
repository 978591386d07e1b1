// Scalar reference GEMMs: the textbook triple loops nn::matmul, matmul_tn
// and matmul_nt must reproduce bit for bit. Each output element is
// ((0 + a_i0 * b_0j) + a_i1 * b_1j) + ..., k ascending, one rounded multiply
// and one rounded add per term. matmul and matmul_tn skip a zero left
// factor, as the library's kernels once did; for finite inputs that skip
// never changes a result (see DESIGN.md, "The GEMM kernel").
//
// This translation unit is built with -ffp-contract=off (tests/CMakeLists),
// so the compiler cannot fuse a multiply-add here either.
#pragma once

#include <gtest/gtest.h>

#include <cstring>

#include "nn/tensor.hpp"
#include "util/check.hpp"

namespace mlcr::nn::oracle {

/// Bitwise equality: tells -0 from +0 and would catch a single ulp.
inline ::testing::AssertionResult same_bits(const Tensor& got,
                                            const Tensor& want) {
  if (!got.same_shape(want))
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " vs "
           << want.rows() << "x" << want.cols();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0)
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got.data()[i] << " vs "
             << want.data()[i];
  }
  return ::testing::AssertionSuccess();
}

/// out = a * b; (m x k) . (k x n) -> (m x n), i-k-j order.
[[nodiscard]] inline Tensor matmul(const Tensor& a, const Tensor& b) {
  MLCR_CHECK(a.cols() == b.rows());
  Tensor out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    float* orow = out.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float aik = arow[k];
      if (aik == 0.0F) continue;
      const float* brow = b.row(k);
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

/// out = a^T * b; (k x m) . (k x n) -> (m x n), k-i-j order.
[[nodiscard]] inline Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  MLCR_CHECK(a.rows() == b.rows());
  Tensor out(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const float* arow = a.row(k);
    const float* brow = b.row(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float aki = arow[i];
      if (aki == 0.0F) continue;
      float* orow = out.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += aki * brow[j];
    }
  }
  return out;
}

/// out = a * b^T; (m x k) . (n x k) -> (m x n), one serial dot per output.
[[nodiscard]] inline Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  MLCR_CHECK(a.cols() == b.cols());
  Tensor out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    float* orow = out.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const float* brow = b.row(j);
      float dot = 0.0F;
      for (std::size_t k = 0; k < a.cols(); ++k) dot += arow[k] * brow[k];
      orow[j] = dot;
    }
  }
  return out;
}

}  // namespace mlcr::nn::oracle
