#include "fleet/fleet_index.hpp"

#include <algorithm>
#include <bit>

#include "sim/env.hpp"
#include "util/check.hpp"

namespace mlcr::fleet {

namespace {

/// Prefix depth of a match level: kL1 is the OS list alone, kL2 adds
/// language, kL3 adds runtime.
[[nodiscard]] std::size_t level_depth(containers::MatchLevel level) {
  MLCR_CHECK(containers::reusable(level));
  return static_cast<std::size_t>(level);
}

constexpr std::size_t kMaxDepth = 3;

[[nodiscard]] const std::vector<containers::PackageId>& image_list(
    const containers::ImageSpec& image, std::size_t l) {
  return image.level(static_cast<containers::Level>(l));
}

}  // namespace

std::size_t FleetIndex::PrefixHash::operator()(
    const PrefixView& v) const noexcept {
  // Only picks a bucket: PrefixEqual compares the lists themselves.
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  std::uint64_t h = v.depth;
  for (std::size_t l = 0; l < v.depth; ++l) {
    const auto& list = image_list(*v.image, l);
    h = (h ^ list.size()) * kMul;
    for (const containers::PackageId p : list) h = (h ^ p) * kMul;
  }
  return static_cast<std::size_t>(h ^ (h >> 32));
}

std::size_t FleetIndex::PrefixHash::operator()(
    const LevelPrefix& p) const noexcept {
  return (*this)(PrefixView{&p.image, p.depth});
}

bool FleetIndex::PrefixEqual::operator()(const PrefixView& v,
                                         const LevelPrefix& p) const noexcept {
  if (v.depth != p.depth) return false;
  for (std::size_t l = 0; l < v.depth; ++l)
    if (image_list(*v.image, l) != image_list(p.image, l)) return false;
  return true;
}

bool FleetIndex::PrefixEqual::operator()(const LevelPrefix& a,
                                         const LevelPrefix& b) const noexcept {
  return (*this)(PrefixView{&a.image, a.depth}, b);
}

FleetIndex::MinTournament::MinTournament(std::size_t leaves)
    : width_(std::bit_ceil(leaves)), slots_(2 * width_, kIneligible) {}

void FleetIndex::MinTournament::set(std::size_t leaf, std::uint64_t key) {
  std::size_t slot = width_ + leaf;
  slots_[slot] = key;
  // Once a parent keeps its value, every ancestor above it does too.
  for (slot /= 2; slot >= 1; slot /= 2) {
    const std::uint64_t m = std::min(slots_[2 * slot], slots_[2 * slot + 1]);
    if (slots_[slot] == m) break;
    slots_[slot] = m;
  }
}

FleetIndex::FleetIndex(std::size_t nodes, bool track_warm)
    : track_warm_(track_warm),
      nodes_(nodes),
      routable_(nodes),
      load_all_(nodes),
      load_healthy_(nodes) {
  MLCR_CHECK(nodes > 0);
  MLCR_CHECK(nodes < UINT32_MAX);  // packed into a tournament key's low half
}

void FleetIndex::refresh_load(std::size_t node) {
  const NodeEntry& entry = nodes_[node];
  const bool eligible = entry.in_load && entry.routable;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(entry.busy) << 32) | node;
  load_all_.set(node, eligible ? key : MinTournament::kIneligible);
  load_healthy_.set(node,
                    eligible && entry.up ? key : MinTournament::kIneligible);
}

FleetIndex::KeyId FleetIndex::intern(const containers::ImageSpec& image,
                                     std::size_t depth) {
  const auto it = key_ids_.find(PrefixView{&image, depth});
  if (it != key_ids_.end()) return it->second;
  MLCR_CHECK(warm_.size() < UINT32_MAX);
  LevelPrefix prefix;
  prefix.depth = depth;
  for (std::size_t l = 0; l < depth; ++l)
    prefix.image.set_level(static_cast<containers::Level>(l),
                           image_list(image, l));
  const auto id = static_cast<KeyId>(warm_.size());
  key_ids_.emplace(std::move(prefix), id);
  warm_.emplace_back();
  return id;
}

void FleetIndex::update(std::size_t node, const sim::ClusterEnv& env) {
  MLCR_CHECK(node < nodes_.size());
  NodeEntry& entry = nodes_[node];
  entry.busy = env.busy_count();
  MLCR_CHECK(entry.busy < UINT32_MAX);  // the key's high half
  entry.up = !env.down();
  // A crashed node keeps its last free_mb reading: its pool object survives
  // the crash (emptied, not destroyed), and routers never consult down
  // nodes' memory anyway.
  entry.free_mb = env.pool().free_mb();
  entry.in_load = true;
  refresh_load(node);

  if (!track_warm_) return;
  fresh_.clear();
  env.pool().for_each_idle([&](const containers::Container& c) {
    for (std::size_t depth = 1; depth <= kMaxDepth; ++depth)
      fresh_.push_back(intern(c.image, depth));
  });
  std::sort(fresh_.begin(), fresh_.end());
  fresh_.erase(std::unique(fresh_.begin(), fresh_.end()), fresh_.end());
  if (fresh_ == entry.keys) return;

  // Merge the two sorted lists: drop the node from keys it lost, add it to
  // keys it gained, leave shared keys' node lists untouched.
  auto old_it = entry.keys.cbegin();
  auto new_it = fresh_.cbegin();
  while (old_it != entry.keys.cend() || new_it != fresh_.cend()) {
    if (new_it == fresh_.cend() ||
        (old_it != entry.keys.cend() && *old_it < *new_it)) {
      auto& holders = warm_[*old_it++];
      const auto pos = std::lower_bound(holders.begin(), holders.end(), node);
      MLCR_CHECK(pos != holders.end() && *pos == node);
      holders.erase(pos);
    } else if (old_it == entry.keys.cend() || *new_it < *old_it) {
      auto& holders = warm_[*new_it++];
      holders.insert(std::lower_bound(holders.begin(), holders.end(), node),
                     node);
    } else {
      ++old_it;
      ++new_it;
    }
  }
  entry.keys.assign(fresh_.cbegin(), fresh_.cend());
}

void FleetIndex::set_routable(std::size_t node, bool routable) {
  MLCR_CHECK(node < nodes_.size());
  NodeEntry& entry = nodes_[node];
  if (entry.routable == routable) return;
  entry.routable = routable;
  if (routable) ++routable_;
  else --routable_;
  refresh_load(node);
}

std::size_t FleetIndex::least_outstanding() const {
  const std::uint64_t best = load_all_.min();
  MLCR_CHECK_MSG(best != MinTournament::kIneligible,
                 "least_outstanding() before any update()");
  return static_cast<std::size_t>(best & UINT32_MAX);
}

std::optional<std::size_t> FleetIndex::least_outstanding_healthy() const {
  const std::uint64_t best = load_healthy_.min();
  if (best == MinTournament::kIneligible) return std::nullopt;
  return static_cast<std::size_t>(best & UINT32_MAX);
}

FleetIndex::NodeLoad FleetIndex::node_load(std::size_t node) const {
  MLCR_CHECK(node < nodes_.size());
  const NodeEntry& entry = nodes_[node];
  return {entry.busy, entry.up, entry.free_mb, entry.in_load, entry.routable};
}

const std::vector<std::size_t>* FleetIndex::nodes_matching(
    const containers::ImageSpec& image, containers::MatchLevel level) const {
  MLCR_CHECK_MSG(track_warm_, "warm lookup on a load-only index");
  const auto it = key_ids_.find(PrefixView{&image, level_depth(level)});
  if (it == key_ids_.end()) return nullptr;
  const std::vector<std::size_t>& holders = warm_[it->second];
  return holders.empty() ? nullptr : &holders;
}

}  // namespace mlcr::fleet
