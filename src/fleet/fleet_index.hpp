// Incrementally maintained fleet-wide routing state (DESIGN.md §10). The
// event-driven FleetEnv::run keeps one FleetIndex current so routers that
// need cluster-wide views — least-outstanding load, warm-pool match lookup,
// the failover scan — read it in O(log nodes) instead of rescanning every
// node per invocation. The serving plane (src/serve) keeps one too, behind
// a single shared lock (DESIGN.md §11). The class itself does no locking.
//
// Two structures:
//   Load index  — ordered (busy_count, node) sets over all nodes and over
//                 healthy nodes only. The minimum element is exactly the
//                 node a linear "min busy, lowest index on ties" scan would
//                 pick, so index-based routing is bit-identical to the scan.
//   Warm index  — per match level ℓ, a map from the canonical byte key of
//                 an image's level-1..ℓ package lists to the nodes holding
//                 at least one idle container with that prefix. Package
//                 lists are kept sorted/deduplicated by ImageSpec, so key
//                 equality is exactly Table-I level-by-level set equality:
//                 a container matches a function at level >= ℓ iff their
//                 level-ℓ keys are byte-equal. No hashing, no collisions.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
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
  /// the load sets plus O(pool) for the warm keys when tracking is on.
  void update(std::size_t node, const sim::ClusterEnv& env);

  /// Include/exclude node `node` from the load minima. Non-routable nodes
  /// (cold spares awaiting a crash event, DESIGN.md §14) are still
  /// update()d but never surfaced by the least_outstanding lookups. Every
  /// node starts routable.
  void set_routable(std::size_t node, bool routable);

  /// Node with the fewest in-flight executions over all *routable* nodes
  /// (down nodes included), lowest index on ties — the linear-scan contract
  /// of LeastOutstandingRouter and WarmAwareRouter's cold fallback.
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
  /// >= `level`, as a node -> container-count map (ascending node order),
  /// or nullptr when no node has such a match. Requires tracks_warm().
  [[nodiscard]] const std::map<std::size_t, std::size_t>* nodes_matching(
      const containers::ImageSpec& image, containers::MatchLevel level) const;

  /// Canonical byte key of `image`'s level-1..level prefix ("os|lang|rt"
  /// with comma-separated package ids). Exposed for tests.
  [[nodiscard]] static std::string level_key(const containers::ImageSpec& image,
                                            containers::MatchLevel level);

 private:
  struct NodeEntry {
    std::size_t busy = 0;
    bool up = true;
    double free_mb = 0.0;
    bool in_load = false;   ///< false until the first update()
    bool routable = true;   ///< excluded from the load sets when false
    /// This node's current warm-key multiset, one map per match level.
    std::array<std::map<std::string, std::size_t>, 3> keys;
  };

  bool track_warm_;
  std::vector<NodeEntry> nodes_;
  std::size_t routable_;
  std::set<std::pair<std::size_t, std::size_t>> load_all_;
  std::set<std::pair<std::size_t, std::size_t>> load_healthy_;
  /// level -> key -> node -> idle container count.
  std::array<std::map<std::string, std::map<std::size_t, std::size_t>>, 3>
      warm_;
};

}  // namespace mlcr::fleet
