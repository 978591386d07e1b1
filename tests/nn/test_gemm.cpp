// The vectorised GEMM behind nn::matmul / matmul_tn / matmul_nt against the
// scalar loops in gemm_oracle.hpp, bit for bit: on every shape QNetwork
// multiplies (forward, batched forward and backward) and on the lane and
// row-block tails around them.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "nn/gemm_oracle.hpp"
#include "nn/tensor.hpp"

namespace mlcr::nn {
namespace {

using oracle::same_bits;

/// Uniform values with the sign patterns the kernel must not disturb:
/// exact zeros, negative zeros, and (when `relu`) whole rows clamped at 0
/// as a ReLU leaves them, plus an all-zero row.
Tensor awkward(std::size_t rows, std::size_t cols, util::Rng& rng,
               bool relu) {
  Tensor t = Tensor::he_uniform(rows, cols, rng);
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = t.row(r);
    for (std::size_t c = 0; c < cols; ++c) {
      if (relu && row[c] < 0.0F) row[c] = 0.0F;
      if ((r * cols + c) % 7 == 3) row[c] = -0.0F;
      if ((r * cols + c) % 11 == 5) row[c] = 0.0F;
    }
    if (r % 5 == 4)
      for (std::size_t c = 0; c < cols; ++c) row[c] = 0.0F;
  }
  return t;
}

struct Shape {
  std::size_t m, k, n;
};

/// (m x k) . (k x n) for every matmul in QNetwork at the default MLCR
/// config: 26 tokens, 16 features, d = 48, 2 heads of 24, FFN 96.
const std::vector<Shape>& network_shapes() {
  static const std::vector<Shape> shapes = {
      {26, 16, 48},   // input projection
      {26, 48, 48},   // q/k/v/out projections
      {26, 48, 96},   // FFN up
      {26, 96, 48},   // FFN down
      {26, 48, 1},    // value head
      {26, 24, 26},   // scores = q_h . k_h^T
      {26, 26, 24},   // attention . v_h
      {208, 48, 48},  // forward_batch over 8 states
      {208, 48, 1},
      // backward: weight grads x^T . g and input grads g . W^T
      {48, 26, 48},
      {96, 26, 48},
      {48, 26, 96},
      {16, 26, 48},
      {48, 26, 1},
      {24, 26, 24},
      {26, 1, 48},
  };
  return shapes;
}

/// Tails: n in {1, 24, 26, 144} (inside one lane group, one group plus a
/// part, several 48-column passes), k in {1, 16}, and every row-block
/// remainder m mod 4.
std::vector<Shape> tail_shapes() {
  std::vector<Shape> shapes;
  for (const std::size_t m : {1, 2, 3, 4, 5, 7, 26})
    for (const std::size_t k : {1, 16})
      for (const std::size_t n : {1, 24, 26, 144}) shapes.push_back({m, k, n});
  return shapes;
}

void expect_all_variants_match(const Shape& s, util::Rng& rng) {
  const std::string where = std::to_string(s.m) + "x" + std::to_string(s.k) +
                            " . " + std::to_string(s.k) + "x" +
                            std::to_string(s.n);
  const Tensor a = awkward(s.m, s.k, rng, /*relu=*/true);
  const Tensor b = awkward(s.k, s.n, rng, /*relu=*/false);
  EXPECT_TRUE(same_bits(matmul(a, b), oracle::matmul(a, b))) << where;

  const Tensor at = awkward(s.k, s.m, rng, /*relu=*/true);
  EXPECT_TRUE(same_bits(matmul_tn(at, b), oracle::matmul_tn(at, b)))
      << "tn " << where;

  const Tensor bt = awkward(s.n, s.k, rng, /*relu=*/false);
  EXPECT_TRUE(same_bits(matmul_nt(a, bt), oracle::matmul_nt(a, bt)))
      << "nt " << where;
}

TEST(Gemm, BitIdenticalToOracleOnNetworkShapes) {
  util::Rng rng(17);
  for (const Shape& s : network_shapes()) expect_all_variants_match(s, rng);
}

TEST(Gemm, BitIdenticalToOracleOnTails) {
  util::Rng rng(18);
  for (const Shape& s : tail_shapes()) expect_all_variants_match(s, rng);
}

TEST(Gemm, EmptyInnerDimensionGivesPositiveZeros) {
  const Tensor out = matmul(Tensor(3, 0), Tensor(0, 20));
  ASSERT_EQ(out.rows(), 3U);
  ASSERT_EQ(out.cols(), 20U);
  EXPECT_TRUE(same_bits(out, Tensor(3, 20)));
}

TEST(Gemm, NegativeZeroProductsLeaveAPositiveZero) {
  // Every term is -0 or +0; the accumulator starts at +0, so each output is
  // +0, exactly as the oracle's zero-skipping loop leaves it.
  const Tensor a = {{-0.0F, 1.0F, -2.0F}};
  const Tensor b = {{3.0F, -0.0F}, {-0.0F, 0.0F}, {0.0F, 0.0F}};
  const Tensor out = matmul(a, b);
  EXPECT_TRUE(same_bits(out, oracle::matmul(a, b)));
  EXPECT_FALSE(std::signbit(out(0, 0)));
  EXPECT_FALSE(std::signbit(out(0, 1)));
}

}  // namespace
}  // namespace mlcr::nn
