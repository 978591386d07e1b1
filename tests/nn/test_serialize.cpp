#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>

#include "nn/attention.hpp"
#include "util/check.hpp"

namespace mlcr::nn {
namespace {

Sequential make_net(std::uint64_t seed) {
  util::Rng rng(seed);
  Sequential seq;
  seq.add(std::make_unique<Linear>(4, 8, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(8, 2, rng));
  return seq;
}

TEST(Serialize, RoundTripPreservesOutputs) {
  Sequential src = make_net(1);
  Sequential dst = make_net(2);
  util::Rng rng(3);
  const Tensor x = Tensor::he_uniform(3, 4, rng);
  const Tensor before = src.forward(x);

  std::stringstream buffer;
  save_parameters(src, buffer);
  load_parameters(dst, buffer);
  const Tensor after = dst.forward(x);
  EXPECT_TRUE(before == after);
}

TEST(Serialize, RejectsGarbageMagic) {
  Sequential net = make_net(1);
  std::stringstream buffer("definitely not a model file");
  EXPECT_THROW(load_parameters(net, buffer), util::CheckError);
}

TEST(Serialize, RejectsStructureMismatch) {
  Sequential src = make_net(1);
  std::stringstream buffer;
  save_parameters(src, buffer);

  util::Rng rng(9);
  Linear different(4, 8, rng);
  EXPECT_THROW(load_parameters(different, buffer), util::CheckError);
}

TEST(Serialize, RejectsTruncatedFile) {
  Sequential src = make_net(1);
  std::stringstream buffer;
  save_parameters(src, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  Sequential dst = make_net(2);
  EXPECT_THROW(load_parameters(dst, truncated), util::CheckError);
}

/// Byte offset of each parameter's first f32 value in a saved stream,
/// walked along the format in serialize.hpp.
std::vector<std::size_t> value_offsets(const std::string& bytes) {
  const auto u64_at = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  std::size_t at = 8;  // magic
  const std::uint64_t count = u64_at(at);
  at += 8;
  std::vector<std::size_t> out;
  for (std::uint64_t i = 0; i < count; ++i) {
    at += 8 + u64_at(at);  // name
    const std::uint64_t rows = u64_at(at);
    const std::uint64_t cols = u64_at(at + 8);
    at += 16;
    out.push_back(at);
    at += rows * cols * sizeof(float);
  }
  EXPECT_EQ(at, bytes.size());
  return out;
}

TEST(Serialize, RejectsNonFiniteWeightsNamingTheParameter) {
  Sequential src = make_net(1);
  std::stringstream buffer;
  save_parameters(src, buffer);
  const std::string clean = buffer.str();
  const std::vector<std::size_t> offsets = value_offsets(clean);
  const std::vector<Parameter*> params = src.parameters();
  ASSERT_EQ(offsets.size(), params.size());

  // Mutation loop: for every parameter, set all exponent bits of its first,
  // middle and last value (-> inf when the mantissa is zero, NaN otherwise),
  // and also write an explicit quiet NaN and -inf there.
  std::size_t mutants = 0;
  for (std::size_t p = 0; p < params.size(); ++p) {
    const std::size_t n = params[p]->value.size();
    for (const std::size_t element : {std::size_t{0}, n / 2, n - 1}) {
      const std::size_t at = offsets[p] + element * sizeof(float);
      std::uint32_t bits = 0;
      std::memcpy(&bits, clean.data() + at, sizeof(bits));
      for (const std::uint32_t mutated :
           {bits | 0x7F800000U, 0x7FC00000U, 0xFF800000U}) {
        std::string bad = clean;
        std::memcpy(bad.data() + at, &mutated, sizeof(mutated));
        std::stringstream in(bad);
        Sequential dst = make_net(2);
        try {
          load_parameters(dst, in);
          ADD_FAILURE() << "loaded a non-finite value in parameter " << p;
        } catch (const util::CheckError& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find("parameter #" + std::to_string(p) + " '" +
                              params[p]->name + "' at element " +
                              std::to_string(element)),
                    std::string::npos)
              << what;
        }
        ++mutants;
      }
    }
  }
  EXPECT_EQ(mutants, params.size() * 9);

  // The unmutated stream still loads.
  std::stringstream in(clean);
  Sequential dst = make_net(2);
  EXPECT_NO_THROW(load_parameters(dst, in));
}

TEST(Serialize, FileRoundTrip) {
  Sequential src = make_net(1);
  Sequential dst = make_net(2);
  const std::string path = ::testing::TempDir() + "/mlcr_net.bin";
  save_parameters(src, path);
  load_parameters(dst, path);
  util::Rng rng(5);
  const Tensor x = Tensor::he_uniform(2, 4, rng);
  EXPECT_TRUE(src.forward(x) == dst.forward(x));
}

TEST(Serialize, CopyParametersMakesNetworksIdentical) {
  Sequential a = make_net(1);
  Sequential b = make_net(2);
  copy_parameters(a, b);
  util::Rng rng(4);
  const Tensor x = Tensor::he_uniform(2, 4, rng);
  EXPECT_TRUE(a.forward(x) == b.forward(x));
}

TEST(Serialize, SoftUpdateInterpolates) {
  Sequential a = make_net(1);
  Sequential b = make_net(2);
  const float b0 = b.parameters()[0]->value(0, 0);
  const float a0 = a.parameters()[0]->value(0, 0);
  soft_update_parameters(a, b, 0.25F);
  EXPECT_NEAR(b.parameters()[0]->value(0, 0), 0.75F * b0 + 0.25F * a0, 1e-6F);
  // tau = 1 -> full copy.
  soft_update_parameters(a, b, 1.0F);
  EXPECT_FLOAT_EQ(b.parameters()[0]->value(0, 0), a0);
}

TEST(Serialize, AttentionModuleRoundTrips) {
  util::Rng rng1(1), rng2(2), rngx(3);
  MultiHeadAttention a(8, 2, rng1), b(8, 2, rng2);
  std::stringstream buffer;
  save_parameters(a, buffer);
  load_parameters(b, buffer);
  const Tensor x = Tensor::he_uniform(3, 8, rngx);
  EXPECT_TRUE(a.forward(x) == b.forward(x));
}

}  // namespace
}  // namespace mlcr::nn
