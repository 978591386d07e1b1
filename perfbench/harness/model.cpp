#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "util/check.hpp"

namespace perfbench {

LoadedModel load_model(const std::string& path) {
  LoadedModel out;
  out.path = path;
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec))
    throw std::runtime_error("model file " + path + " is missing");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("model file " + path + " is unreadable");
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string data = bytes.str();
  out.bytes = data.size();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  out.fnv1a64 = hex;

  out.config = mlcr::core::make_default_mlcr_config();
  out.agent = std::make_shared<mlcr::rl::DqnAgent>(out.config.dqn,
                                                   mlcr::util::Rng(42));
  try {
    out.agent->load(path);
  } catch (const std::exception& e) {
    throw std::runtime_error("model file " + path +
                             " is incompatible with the default MLCR "
                             "configuration: " + e.what());
  }
  return out;
}

}  // namespace perfbench
