// Incrementally maintained fleet-wide routing state (DESIGN.md §10). The
// event-driven FleetEnv::run keeps one FleetIndex current so routers that
// need cluster-wide views — least-outstanding load, warm-pool match lookup,
// the failover scan — read it in O(1) instead of rescanning every node per
// invocation. The serving plane (src/serve) keeps one too, behind a single
// shared lock (DESIGN.md §11). The class itself does no locking; every
// const member is a pure read, safe from many readers at once.
//
// Two structures, neither of which builds a string or walks a tree:
//   Load minima — two flat min-tournaments (over all routable nodes, and
//                 over healthy routable nodes) whose leaves hold the packed
//                 key busy << 32 | node, UINT64_MAX when the node is not
//                 eligible. The root is exactly the node a linear "min
//                 busy, lowest index on ties" scan would pick, so
//                 index-based routing is bit-identical to the scan.
//   Warm index  — each image's level-1..ℓ package-list prefix is interned,
//                 on first sight, into a dense KeyId; per KeyId the index
//                 keeps the ascending list of nodes holding at least one
//                 idle container with that prefix. Package lists are kept
//                 sorted/deduplicated by ImageSpec, so prefix equality is
//                 exactly Table-I level-by-level set equality: a container
//                 matches a function at level >= ℓ iff their level-ℓ
//                 prefixes are equal. A hash only picks the bucket; the
//                 full package lists decide equality, so there are no
//                 false matches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "containers/image.hpp"
#include "containers/matching.hpp"

namespace mlcr::sim {
class ClusterEnv;
}

namespace mlcr::fleet {

class FleetIndex {
 public:
  /// `track_warm` enables the warm index; without it update() skips the
  /// per-pool key recompute (routers that never consult warm state should
  /// not pay for it — see Router::needs_warm_index()).
  FleetIndex(std::size_t nodes, bool track_warm);

  /// Re-derive node `node`'s contributions from its environment. Called by
  /// the fleet after every event that touches the node (offer/step,
  /// completion drain, TTL expiry, crash, recover). Cost: O(log nodes) for
  /// the load minima plus O(pool) hash lookups for the warm keys when
  /// tracking is on. Allocates only when the pool's key set changed.
  void update(std::size_t node, const sim::ClusterEnv& env);

  /// Include/exclude node `node` from the load minima. Non-routable nodes
  /// (cold spares awaiting a crash event, DESIGN.md §14) are still
  /// update()d but never surfaced by the least_outstanding lookups. Every
  /// node starts routable.
  void set_routable(std::size_t node, bool routable);

  /// Node with the fewest in-flight executions over all *routable* nodes
  /// (down nodes included), lowest index on ties — the linear-scan contract
  /// of LeastOutstandingRouter and WarmAwareRouter's cold fallback. Throws
  /// when no routable node has been update()d.
  [[nodiscard]] std::size_t least_outstanding() const;

  /// Same, restricted to healthy routable nodes; nullopt when the whole
  /// routable fleet is down. The contract of FailoverRouter and run()'s
  /// reroute path.
  [[nodiscard]] std::optional<std::size_t> least_outstanding_healthy() const;

  /// Per-node snapshot of the last update(): in-flight executions, health,
  /// and free pool memory — the inputs of the warm-aware tie-break, so
  /// routing never touches a node's env.
  struct NodeLoad {
    std::size_t busy = 0;
    bool up = true;
    double free_mb = 0.0;
    bool seen = false;      ///< false before the node's first update()
    bool routable = true;   ///< false for spares awaiting activation
  };
  [[nodiscard]] NodeLoad node_load(std::size_t node) const;

  [[nodiscard]] bool tracks_warm() const noexcept { return track_warm_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  /// Nodes currently routable (spares join as set_routable admits them).
  [[nodiscard]] std::size_t routable_count() const noexcept {
    return routable_;
  }

  /// Nodes holding at least one idle container matching `image` at level
  /// >= `level`, in ascending node order, or nullptr when no node has such
  /// a match. Requires tracks_warm(). Allocation-free.
  [[nodiscard]] const std::vector<std::size_t>* nodes_matching(
      const containers::ImageSpec& image, containers::MatchLevel level) const;

 private:
  using KeyId = std::uint32_t;

  /// An interned level prefix: the first `depth` package lists of an image
  /// (depth 1 = OS, 2 = + language, 3 = + runtime); deeper levels empty.
  struct LevelPrefix {
    containers::ImageSpec image;
    std::size_t depth = 0;
  };
  /// The lookup form of a prefix: borrowed from an image, never copied.
  struct PrefixView {
    const containers::ImageSpec* image;
    std::size_t depth;
  };
  struct PrefixHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(const LevelPrefix& p) const noexcept;
    [[nodiscard]] std::size_t operator()(const PrefixView& v) const noexcept;
  };
  struct PrefixEqual {
    using is_transparent = void;
    [[nodiscard]] bool operator()(const LevelPrefix& a,
                                  const LevelPrefix& b) const noexcept;
    [[nodiscard]] bool operator()(const PrefixView& v,
                                  const LevelPrefix& p) const noexcept;
  };

  /// Min-tournament over packed (busy << 32 | node) keys: leaves at
  /// [width, 2 * width), each inner slot the minimum of its two children,
  /// the root at slot 1. Setting a leaf fixes one leaf-to-root path.
  class MinTournament {
   public:
    static constexpr std::uint64_t kIneligible = UINT64_MAX;
    explicit MinTournament(std::size_t leaves);
    void set(std::size_t leaf, std::uint64_t key);
    [[nodiscard]] std::uint64_t min() const noexcept { return slots_[1]; }

   private:
    std::size_t width_;
    std::vector<std::uint64_t> slots_;
  };

  struct NodeEntry {
    std::size_t busy = 0;
    bool up = true;
    double free_mb = 0.0;
    bool in_load = false;   ///< false until the first update()
    bool routable = true;   ///< excluded from the load minima when false
    /// Sorted, unique KeyIds of every prefix (all three depths) held by at
    /// least one of this node's idle containers.
    std::vector<KeyId> keys;
  };

  /// Refresh node `node`'s leaves in both tournaments from its entry.
  void refresh_load(std::size_t node);
  /// KeyId of `image`'s depth-`depth` prefix, interning it on first sight.
  KeyId intern(const containers::ImageSpec& image, std::size_t depth);

  bool track_warm_;
  std::vector<NodeEntry> nodes_;
  std::size_t routable_;
  MinTournament load_all_;
  MinTournament load_healthy_;
  /// Prefix -> KeyId. Only ever looked up, never iterated.
  std::unordered_map<LevelPrefix, KeyId, PrefixHash, PrefixEqual> key_ids_;
  /// KeyId -> ascending nodes holding that prefix (empty once the last
  /// holder drops it; interned keys are never forgotten).
  std::vector<std::vector<std::size_t>> warm_;
  /// update()'s reusable buffer for a node's fresh key list.
  std::vector<KeyId> fresh_;
};

}  // namespace mlcr::fleet
