#include "nn/serialize.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/check.hpp"

namespace mlcr::nn {

namespace {
constexpr char kMagic[] = "MLCRNN1\n";
constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;
/// Hard cap on serialized parameter-name length: a truncated or corrupt file
/// can yield an arbitrary 64-bit length, which would otherwise be fed
/// straight into a string allocation.
constexpr std::uint64_t kMaxNameLen = 1 << 16;

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  MLCR_CHECK_MSG(is.good(), "truncated parameter file");
  return v;
}
}  // namespace

void save_parameters(Module& module, std::ostream& os) {
  const auto params = module.parameters();
  os.write(kMagic, static_cast<std::streamsize>(kMagicLen));
  write_u64(os, params.size());
  for (const Parameter* p : params) {
    write_u64(os, p->name.size());
    os.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    write_u64(os, p->value.rows());
    write_u64(os, p->value.cols());
    os.write(reinterpret_cast<const char*>(p->value.data()),
             static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
  MLCR_CHECK_MSG(os.good(), "failed writing parameters");
}

void save_parameters(Module& module, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  MLCR_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  save_parameters(module, os);
}

void load_parameters(Module& module, std::istream& is) {
  char magic[kMagicLen] = {};
  is.read(magic, static_cast<std::streamsize>(kMagicLen));
  MLCR_CHECK_MSG(is.good() && std::string(magic, kMagicLen) == kMagic,
                 "not a MLCR parameter file");
  const auto params = module.parameters();
  const std::uint64_t count = read_u64(is);
  MLCR_CHECK_MSG(count == params.size(),
                 "parameter count mismatch: file has "
                     << count << ", module has " << params.size());
  for (std::size_t index = 0; index < params.size(); ++index) {
    Parameter* p = params[index];
    const std::uint64_t name_len = read_u64(is);
    MLCR_CHECK_MSG(name_len <= kMaxNameLen,
                   "implausible parameter-name length "
                       << name_len << " — corrupt or truncated file");
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    MLCR_CHECK_MSG(is.good(), "truncated parameter file reading name");
    MLCR_CHECK_MSG(name == p->name, "parameter name mismatch: file '"
                                        << name << "' vs module '" << p->name
                                        << "'");
    const std::uint64_t rows = read_u64(is);
    const std::uint64_t cols = read_u64(is);
    MLCR_CHECK_MSG(rows == p->value.rows() && cols == p->value.cols(),
                   "shape mismatch for " << name);
    is.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.size() * sizeof(float)));
    MLCR_CHECK_MSG(is.good(), "truncated parameter file at " << name);
    // A flipped exponent bit reads as inf or NaN. NaN compares false with
    // everything, so the masked argmax would quietly pick the first allowed
    // action; and the GEMM kernels assume finite inputs (DESIGN.md).
    for (std::size_t i = 0; i < p->value.size(); ++i)
      MLCR_CHECK_MSG(std::isfinite(p->value.data()[i]),
                     "non-finite value " << p->value.data()[i]
                                         << " in parameter #" << index << " '"
                                         << name << "' at element " << i);
  }
}

void load_parameters(Module& module, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  MLCR_CHECK_MSG(is.is_open(), "cannot open " << path << " for reading");
  load_parameters(module, is);
}

void copy_parameters(Module& src, Module& dst) {
  const auto s = src.parameters();
  const auto d = dst.parameters();
  MLCR_CHECK(s.size() == d.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    MLCR_CHECK(s[i]->value.same_shape(d[i]->value));
    d[i]->value = s[i]->value;
  }
}

void soft_update_parameters(Module& src, Module& dst, float tau) {
  MLCR_CHECK(tau >= 0.0F && tau <= 1.0F);
  const auto s = src.parameters();
  const auto d = dst.parameters();
  MLCR_CHECK(s.size() == d.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    MLCR_CHECK(s[i]->value.same_shape(d[i]->value));
    d[i]->value.scale_(1.0F - tau);
    d[i]->value.axpy_(tau, s[i]->value);
  }
}

}  // namespace mlcr::nn
