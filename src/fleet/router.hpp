// Front-end request routing for a multi-node fleet. The router decides
// *which node* sees an invocation before that node's own scheduler decides
// *which container* serves it — at cluster scale this placement step
// dominates cold-start outcomes, because a warm container on the wrong node
// is worth nothing.
//
// Five policies:
//   Random            — seeded uniform choice; the sanity floor.
//   Round-Robin       — classic load spreading, oblivious to warm state.
//   Least-Outstanding — fewest in-flight executions (power-of-all-choices).
//   Hash-Affinity     — consistent hashing on the function image's OS +
//                       language levels: functions sharing a package stack
//                       colocate, so Table-I L2/L3 matches stay possible,
//                       and the mapping is stable as nodes are added.
//   Warm-Aware        — inspect every node's pool and route to the best
//                       Table-I match for this invocation (the fleet analog
//                       of Greedy-Match; an upper bound for state-aware
//                       routing at O(nodes × pool) cost per request).
//
// Each policy is one class serving both planes. As a Router it routes
// FleetEnv::run / run_lockstep; as an IndexRouter it routes the concurrent
// serving plane (src/serve), which sees only a FleetIndex. The decision is
// written once, over the index: the FleetEnv overload delegates to it while
// the event core keeps an index live, and keeps a linear scan only for
// run_lockstep, the equivalence oracle.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/invocation.hpp"
#include "util/rng.hpp"

namespace mlcr::sim {
class FunctionTable;
}

namespace mlcr::fleet {

class FleetEnv;
class FleetIndex;

class Router {
 public:
  virtual ~Router() = default;

  /// Called once per episode, before the first route(); resets per-episode
  /// state and lets ring-based routers size themselves to the fleet.
  virtual void on_episode_start(const FleetEnv& fleet) { (void)fleet; }

  /// Pick the node (in [0, fleet.node_count())) that serves `inv`.
  [[nodiscard]] virtual std::size_t route(const FleetEnv& fleet,
                                          const sim::Invocation& inv) = 0;

  /// True when this policy consults warm-pool state, so the event-driven
  /// fleet maintains the FleetIndex's warm side (an O(pool) recompute per
  /// node touch that load-only policies should not pay). Routers read the
  /// index via FleetEnv::index() when one is active and fall back to a
  /// linear scan otherwise; both paths are bit-identical by construction
  /// (asserted in tests/fleet).
  [[nodiscard]] virtual bool needs_warm_index() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// A routing policy that reads only a FleetIndex — never a node
/// environment — so the serving plane can route from many worker threads
/// under one shared index lock. route() must be safe to call concurrently:
/// stateful policies guard their own state.
class IndexRouter {
 public:
  virtual ~IndexRouter() = default;

  /// Called once per episode, before the first route(), with the size of
  /// the initial routable set.
  virtual void on_episode_start(std::size_t routable) { (void)routable; }

  /// Pick the routable node that serves `inv`.
  [[nodiscard]] virtual std::size_t route(const FleetIndex& index,
                                          const sim::FunctionTable& functions,
                                          const sim::Invocation& inv) = 0;

  /// As Router::needs_warm_index(): the index must track warm pools.
  [[nodiscard]] virtual bool needs_warm_index() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Common base of the five standard policies: one class answers both
/// interfaces, so each policy's decision exists once.
class StandardRouter : public Router, public IndexRouter {
 public:
  using Router::on_episode_start;
  using IndexRouter::on_episode_start;
  using Router::route;
  using IndexRouter::route;
  [[nodiscard]] bool needs_warm_index() const override { return false; }
};

/// Seeded uniform-random node choice over the routable set. Draws are
/// serialized on a mutex, so a single-threaded caller sees one stream.
class RandomRouter final : public StandardRouter {
 public:
  explicit RandomRouter(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  void on_episode_start(const FleetEnv& fleet) override;
  void on_episode_start(std::size_t routable) override;
  [[nodiscard]] std::size_t route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::size_t route(const FleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override { return "Random"; }

 private:
  [[nodiscard]] std::size_t draw(std::size_t routable);

  std::uint64_t seed_;
  std::mutex mutex_;
  util::Rng rng_;
};

/// Cycles through the routable nodes in index order; the cursor advances
/// by compare-and-swap, so concurrent callers never share a pick.
class RoundRobinRouter final : public StandardRouter {
 public:
  void on_episode_start(const FleetEnv& fleet) override;
  void on_episode_start(std::size_t routable) override;
  [[nodiscard]] std::size_t route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::size_t route(const FleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override { return "Round-Robin"; }

 private:
  [[nodiscard]] std::size_t advance(std::size_t routable);

  std::atomic<std::size_t> next_{0};
};

/// Node with the fewest in-flight executions; ties break to the lowest
/// index, so results are deterministic.
class LeastOutstandingRouter final : public StandardRouter {
 public:
  [[nodiscard]] std::size_t route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::size_t route(const FleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override {
    return "Least-Outstanding";
  }
};

/// Consistent hashing with virtual nodes over the function image's OS and
/// language package levels. Functions that share an OS + language stack map
/// to the same node (preserving multi-level reuse), a single function type
/// always maps to one node (preserving classic L3 warm starts), and only
/// ~1/N of keys move when the fleet grows by one node.
class ConsistentHashRouter final : public StandardRouter {
 public:
  explicit ConsistentHashRouter(std::size_t virtual_nodes = 64);

  void on_episode_start(const FleetEnv& fleet) override;
  void on_episode_start(std::size_t routable) override;
  [[nodiscard]] std::size_t route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::size_t route(const FleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::string name() const override { return "Hash-Affinity"; }

  /// One virtual node on the ring.
  struct RingPoint {
    std::uint64_t hash = 0;
    std::size_t node = 0;
  };

 private:
  [[nodiscard]] std::size_t pick(const sim::FunctionTable& functions,
                                 const sim::Invocation& inv) const;

  std::size_t virtual_nodes_;
  std::vector<RingPoint> ring_;  ///< sorted by hash
};

/// Routes to the node holding the best Table-I match for the invocation's
/// image. Ties break to the node with fewer in-flight executions, then more
/// free pool memory, then the lowest index. When no node holds any match (a
/// fleet-wide cold start), falls back to least-outstanding placement.
class WarmAwareRouter final : public StandardRouter {
 public:
  [[nodiscard]] std::size_t route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] std::size_t route(const FleetIndex& index,
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] bool needs_warm_index() const override { return true; }
  [[nodiscard]] std::string name() const override { return "Warm-Aware"; }
};

/// Wraps any router with crash awareness: when the inner policy picks a
/// node that is down, the invocation moves to the healthy node with the
/// fewest in-flight executions (lowest index on ties). When every node is
/// down the inner choice is returned unchanged and FleetEnv::run() counts
/// the invocation as lost. The inner router still observes every request,
/// so its per-episode state (round-robin cursor, hash ring) stays intact.
class FailoverRouter final : public Router {
 public:
  explicit FailoverRouter(std::unique_ptr<Router> inner);

  void on_episode_start(const FleetEnv& fleet) override;
  [[nodiscard]] std::size_t route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] bool needs_warm_index() const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::unique_ptr<Router> inner_;
};

/// Health-aware recovery baseline (DESIGN.md §14): wraps any router with a
/// per-node failure-rate tracker. Every route() observation folds each
/// node's state into an EWMA — signal 1 while the node is down or it failed
/// an invocation since the last look, 0 otherwise — and when the inner
/// policy picks a node that is down *or* whose EWMA exceeds the threshold,
/// the invocation steers to the healthy routable node with the lowest EWMA
/// (ties: fewer in-flight executions, then lowest index). Crashed and
/// recently-flaky nodes shed load until their EWMA decays, which spreads
/// the recovery cold-start storm instead of replaying it into the node
/// that just rejoined. Purely a function of observed simulator state: no
/// RNG, deterministic and replayable under SimClock.
class HealthAwareRouter final : public Router {
 public:
  explicit HealthAwareRouter(std::unique_ptr<Router> inner,
                             double alpha = 0.3, double threshold = 0.5);

  void on_episode_start(const FleetEnv& fleet) override;
  [[nodiscard]] std::size_t route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) override;
  [[nodiscard]] bool needs_warm_index() const override;
  [[nodiscard]] std::string name() const override;

 private:
  /// Fold the fleet's current health into the per-node EWMAs.
  void observe(const FleetEnv& fleet);

  std::unique_ptr<Router> inner_;
  double alpha_;      ///< EWMA smoothing factor, in (0, 1]
  double threshold_;  ///< steer away above this failure rate, in [0, 1]
  std::vector<double> ewma_;  ///< per-node failure-rate estimate
  std::vector<std::size_t> last_failed_;  ///< failed_count() at last look
};

/// A named router source, so benches can sweep policies the way they sweep
/// systems (each episode gets a fresh router instance).
struct RouterSpec {
  std::string name;
  std::function<std::unique_ptr<Router>()> make;
};

/// The same for the serving plane's index-only interface.
struct IndexRouterSpec {
  std::string name;
  std::function<std::unique_ptr<IndexRouter>()> make;
};

/// The five standard policies. `seed` feeds the random router.
[[nodiscard]] std::vector<RouterSpec> standard_routers(std::uint64_t seed = 1);

/// The same five classes, produced through their IndexRouter interface.
[[nodiscard]] std::vector<IndexRouterSpec> standard_index_routers(
    std::uint64_t seed = 1);

/// Wrap a RouterSpec so every produced instance is failover-aware.
[[nodiscard]] RouterSpec with_failover(RouterSpec spec);

/// Wrap a RouterSpec so every produced instance is health-aware (EWMA
/// failure tracking; see HealthAwareRouter).
[[nodiscard]] RouterSpec with_health_aware(RouterSpec spec,
                                           double alpha = 0.3,
                                           double threshold = 0.5);

}  // namespace mlcr::fleet
