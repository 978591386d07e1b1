// Minimal dense 2-D float tensor with the operations the policy network
// needs. Row-major, value semantics. This is deliberately small: the DQN in
// this repo processes one token matrix (tokens x features) at a time, and the
// matrices are tiny (tens of rows, ~48-96 columns). Even so, the matrix
// products are nearly all of a forward pass, and a scalar triple loop leaves
// most of the CPU's vector width unused: the three products share one
// vectorised kernel (tensor.cpp; contract in DESIGN.md §15) that returns the
// triple loop's results bit for bit.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

#include "util/rng.hpp"

namespace mlcr::nn {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, float fill = 0.0F);
  /// 2-D initializer list, e.g. Tensor({{1, 2}, {3, 4}}).
  Tensor(std::initializer_list<std::initializer_list<float>> rows);

  [[nodiscard]] static Tensor zeros(std::size_t rows, std::size_t cols);
  /// He-uniform initialization: U(-limit, limit), limit = sqrt(6 / fan_in).
  [[nodiscard]] static Tensor he_uniform(std::size_t rows, std::size_t cols,
                                         util::Rng& rng);
  /// Xavier-uniform: limit = sqrt(6 / (fan_in + fan_out)).
  [[nodiscard]] static Tensor xavier_uniform(std::size_t rows,
                                             std::size_t cols, util::Rng& rng);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] float& at(std::size_t r, std::size_t c);
  [[nodiscard]] float at(std::size_t r, std::size_t c) const;
  [[nodiscard]] float& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }
  [[nodiscard]] float* row(std::size_t r) noexcept {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] const float* row(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

  void fill(float value) noexcept;
  /// this += other (same shape).
  void add_(const Tensor& other);
  /// this += alpha * other (same shape).
  void axpy_(float alpha, const Tensor& other);
  /// this *= alpha.
  void scale_(float alpha) noexcept;
  /// Adds `bias` (1 x cols) to every row.
  void add_row_broadcast_(const Tensor& bias);

  [[nodiscard]] Tensor transposed() const;
  /// Sum of all elements.
  [[nodiscard]] float sum() const noexcept;
  /// Largest absolute element (0 for empty tensors).
  [[nodiscard]] float max_abs() const noexcept;
  /// Squared Frobenius norm.
  [[nodiscard]] float squared_norm() const noexcept;

  [[nodiscard]] bool same_shape(const Tensor& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }
  [[nodiscard]] bool operator==(const Tensor& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// out = a * b; shapes (m x k) . (k x n) -> (m x n). Each element is
/// ((0 + a_i0 * b_0j) + a_i1 * b_1j) + ..., k ascending, with a separately
/// rounded multiply and add; matmul_tn and matmul_nt sum in the same order.
/// Inputs must be finite (DESIGN.md §15).
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);
/// out = a^T * b; shapes (k x m) . (k x n) -> (m x n).
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// out = a * b^T; shapes (m x k) . (n x k) -> (m x n).
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Row-wise numerically-stable softmax.
[[nodiscard]] Tensor softmax_rows(const Tensor& logits);
/// Backward of softmax_rows: given y = softmax(x) and dL/dy, return dL/dx.
[[nodiscard]] Tensor softmax_rows_backward(const Tensor& y,
                                           const Tensor& grad_y);

std::ostream& operator<<(std::ostream& os, const Tensor& t);

}  // namespace mlcr::nn
