#include "fleet/router.hpp"

#include <algorithm>
#include <optional>

#include "containers/matching.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/fleet_index.hpp"
#include "util/check.hpp"

namespace mlcr::fleet {

namespace {

using RingPoint = ConsistentHashRouter::RingPoint;

/// One splitmix64 pass: a cheap, well-mixed 64-bit hash step.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) noexcept {
  return util::splitmix64(x);
}

/// FleetIndex::least_outstanding() when an index is live, else its
/// linear-scan oracle (run_lockstep): min busy over the routable prefix,
/// lowest index on ties.
[[nodiscard]] std::size_t least_outstanding_node(const FleetEnv& fleet) {
  if (const FleetIndex* index = fleet.index())
    return index->least_outstanding();
  std::size_t best = 0;
  for (std::size_t i = 1; i < fleet.routable_count(); ++i)
    if (fleet.node(i).busy_count() < fleet.node(best).busy_count()) best = i;
  return best;
}

/// Healthy routable node with the fewest in-flight executions (lowest index
/// on ties); nullopt when the whole routable fleet is down. The failover
/// contract of FailoverRouter and FleetEnv::run()'s reroute path.
[[nodiscard]] std::optional<std::size_t> least_outstanding_healthy_node(
    const FleetEnv& fleet) {
  if (const FleetIndex* index = fleet.index())
    return index->least_outstanding_healthy();
  std::size_t best = fleet.routable_count();
  for (std::size_t i = 0; i < fleet.routable_count(); ++i) {
    if (!fleet.node_up(i)) continue;
    if (best == fleet.routable_count() ||
        fleet.node(i).busy_count() < fleet.node(best).busy_count())
      best = i;
  }
  if (best == fleet.routable_count()) return std::nullopt;
  return best;
}

/// Hash of the OS + language package lists of an image: the affinity key.
/// The runtime level is deliberately excluded so that functions differing
/// only in their runtime packages still colocate (and can serve each other
/// at Table-I L2).
[[nodiscard]] std::uint64_t affinity_key(
    const containers::ImageSpec& image) noexcept {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const containers::Level level :
       {containers::Level::kOs, containers::Level::kLanguage})
    for (const containers::PackageId id : image.level(level))
      h = mix(h ^ (static_cast<std::uint64_t>(id) + 1));
  return h;
}

/// The sorted ring of `nodes` x `virtual_nodes` deterministic points.
[[nodiscard]] std::vector<RingPoint> build_hash_ring(
    std::size_t nodes, std::size_t virtual_nodes) {
  MLCR_CHECK(nodes > 0 && virtual_nodes > 0);
  std::vector<RingPoint> ring;
  ring.reserve(nodes * virtual_nodes);
  for (std::size_t node = 0; node < nodes; ++node) {
    // Each (node, replica) pair gets a deterministic ring position; the
    // double-mix decorrelates adjacent indices.
    std::uint64_t h = mix(0xF1EE7000ULL + node);
    for (std::size_t v = 0; v < virtual_nodes; ++v) {
      h = mix(h + v + 1);
      ring.push_back({h, node});
    }
  }
  std::sort(ring.begin(), ring.end(),
            [](const RingPoint& a, const RingPoint& b) {
              if (a.hash != b.hash) return a.hash < b.hash;
              return a.node < b.node;  // deterministic on (improbable) ties
            });
  return ring;
}

/// Generic over the spec type, so both interfaces share one policy list.
template <class Spec>
[[nodiscard]] std::vector<Spec> standard_specs(std::uint64_t seed) {
  std::vector<Spec> specs;
  specs.push_back(
      {"Random", [seed] { return std::make_unique<RandomRouter>(seed); }});
  specs.push_back(
      {"Round-Robin", [] { return std::make_unique<RoundRobinRouter>(); }});
  specs.push_back({"Least-Outstanding",
                   [] { return std::make_unique<LeastOutstandingRouter>(); }});
  specs.push_back({"Hash-Affinity",
                   [] { return std::make_unique<ConsistentHashRouter>(); }});
  specs.push_back(
      {"Warm-Aware", [] { return std::make_unique<WarmAwareRouter>(); }});
  return specs;
}

}  // namespace

void RandomRouter::on_episode_start(const FleetEnv& fleet) {
  on_episode_start(fleet.routable_count());
}

void RandomRouter::on_episode_start(std::size_t routable) {
  (void)routable;
  std::lock_guard lock(mutex_);
  rng_ = util::Rng(seed_);
}

std::size_t RandomRouter::draw(std::size_t routable) {
  std::lock_guard lock(mutex_);
  return rng_.uniform_index(routable);
}

std::size_t RandomRouter::route(const FleetEnv& fleet,
                                const sim::Invocation& inv) {
  (void)inv;
  MLCR_CHECK_MSG(fleet.routable_count() > 0, "route() over an empty fleet");
  return draw(fleet.routable_count());
}

std::size_t RandomRouter::route(const FleetIndex& index,
                                const sim::FunctionTable& functions,
                                const sim::Invocation& inv) {
  (void)functions;
  (void)inv;
  MLCR_CHECK_MSG(index.routable_count() > 0, "route() over an empty fleet");
  return draw(index.routable_count());
}

void RoundRobinRouter::on_episode_start(const FleetEnv& fleet) {
  on_episode_start(fleet.routable_count());
}

void RoundRobinRouter::on_episode_start(std::size_t routable) {
  (void)routable;
  next_.store(0, std::memory_order_relaxed);
}

std::size_t RoundRobinRouter::advance(std::size_t routable) {
  // The routable set only grows within an episode (spares join), so the
  // cursor never points past it.
  std::size_t node = next_.load(std::memory_order_relaxed);
  while (!next_.compare_exchange_weak(node, (node + 1) % routable,
                                      std::memory_order_relaxed)) {
  }
  MLCR_CHECK_MSG(node < routable, "round-robin cursor outside the fleet");
  return node;
}

std::size_t RoundRobinRouter::route(const FleetEnv& fleet,
                                    const sim::Invocation& inv) {
  (void)inv;
  MLCR_CHECK_MSG(fleet.routable_count() > 0, "route() over an empty fleet");
  return advance(fleet.routable_count());
}

std::size_t RoundRobinRouter::route(const FleetIndex& index,
                                    const sim::FunctionTable& functions,
                                    const sim::Invocation& inv) {
  (void)functions;
  (void)inv;
  MLCR_CHECK_MSG(index.routable_count() > 0, "route() over an empty fleet");
  return advance(index.routable_count());
}

std::size_t LeastOutstandingRouter::route(const FleetEnv& fleet,
                                          const sim::Invocation& inv) {
  MLCR_CHECK_MSG(fleet.routable_count() > 0, "route() over an empty fleet");
  if (const FleetIndex* index = fleet.index())
    return route(*index, fleet.functions(), inv);
  return least_outstanding_node(fleet);
}

std::size_t LeastOutstandingRouter::route(const FleetIndex& index,
                                          const sim::FunctionTable& functions,
                                          const sim::Invocation& inv) {
  (void)functions;
  (void)inv;
  MLCR_CHECK_MSG(index.routable_count() > 0, "route() over an empty fleet");
  return index.least_outstanding();
}

ConsistentHashRouter::ConsistentHashRouter(std::size_t virtual_nodes)
    : virtual_nodes_(virtual_nodes) {
  MLCR_CHECK(virtual_nodes_ > 0);
}

void ConsistentHashRouter::on_episode_start(const FleetEnv& fleet) {
  on_episode_start(fleet.routable_count());
}

void ConsistentHashRouter::on_episode_start(std::size_t routable) {
  // The ring covers the episode's initial routable set. Spares admitted
  // mid-episode stay off the ring — affinity keys keep their mapping and
  // spares absorb traffic through failover / least-outstanding paths.
  ring_ = build_hash_ring(routable, virtual_nodes_);
}

std::size_t ConsistentHashRouter::pick(const sim::FunctionTable& functions,
                                       const sim::Invocation& inv) const {
  const std::uint64_t key = affinity_key(functions.get(inv.function).image);
  auto it = std::lower_bound(ring_.begin(), ring_.end(), key,
                             [](const RingPoint& p, std::uint64_t k) {
                               return p.hash < k;
                             });
  if (it == ring_.end()) it = ring_.begin();
  return it->node;
}

std::size_t ConsistentHashRouter::route(const FleetEnv& fleet,
                                        const sim::Invocation& inv) {
  MLCR_CHECK_MSG(!ring_.empty(), "route() before on_episode_start()");
  return pick(fleet.functions(), inv);
}

std::size_t ConsistentHashRouter::route(const FleetIndex& index,
                                        const sim::FunctionTable& functions,
                                        const sim::Invocation& inv) {
  (void)index;
  MLCR_CHECK_MSG(!ring_.empty(), "route() before on_episode_start()");
  return pick(functions, inv);
}

std::size_t WarmAwareRouter::route(const FleetEnv& fleet,
                                   const sim::Invocation& inv) {
  MLCR_CHECK_MSG(fleet.routable_count() > 0, "route() over an empty fleet");
  const FleetIndex* index = fleet.index();
  if (index != nullptr && index->tracks_warm())
    return route(*index, fleet.functions(), inv);

  // Linear-scan oracle for run_lockstep: the same choice, read from every
  // node's pool directly.
  const auto& fn_image = fleet.functions().get(inv.function).image;
  std::size_t best_node = fleet.node_count();
  containers::MatchLevel best_level = containers::MatchLevel::kNoMatch;
  for (std::size_t i = 0; i < fleet.routable_count(); ++i) {
    const sim::ClusterEnv& env = fleet.node(i);
    containers::MatchLevel node_best = containers::MatchLevel::kNoMatch;
    for (const containers::Container* c : env.pool().idle_containers()) {
      node_best = std::max(node_best, containers::match(fn_image, c->image));
      if (node_best == containers::MatchLevel::kL3) break;
    }
    if (!containers::reusable(node_best)) continue;
    if (best_node == fleet.node_count()) {
      best_node = i;
      best_level = node_best;
      continue;
    }
    const sim::ClusterEnv& best_env = fleet.node(best_node);
    const bool better =
        node_best > best_level ||
        (node_best == best_level &&
         (env.busy_count() < best_env.busy_count() ||
          (env.busy_count() == best_env.busy_count() &&
           env.pool().free_mb() > best_env.pool().free_mb())));
    if (better) {
      best_node = i;
      best_level = node_best;
    }
  }
  if (best_node != fleet.node_count()) return best_node;
  // Fleet-wide cold start: place it where the least work is outstanding.
  return least_outstanding_node(fleet);
}

std::size_t WarmAwareRouter::route(const FleetIndex& index,
                                   const sim::FunctionTable& functions,
                                   const sim::Invocation& inv) {
  MLCR_CHECK_MSG(index.routable_count() > 0, "route() over an empty fleet");
  const auto& fn_image = functions.get(inv.function).image;
  // The warm index maps a level key to the nodes holding a match at >= that
  // level, so the best level is the first non-empty lookup from L3 down. At
  // that level every candidate's best match is exactly the level (a better
  // one would have answered the higher lookup), so the (busy, free memory,
  // index) tie-break over the candidates' load entries reproduces the
  // scan's choice bit for bit.
  for (const containers::MatchLevel level :
       {containers::MatchLevel::kL3, containers::MatchLevel::kL2,
        containers::MatchLevel::kL1}) {
    const auto* candidates = index.nodes_matching(fn_image, level);
    if (candidates == nullptr) continue;
    auto it = candidates->begin();
    std::size_t best = it->first;
    FleetIndex::NodeLoad best_load = index.node_load(best);
    for (++it; it != candidates->end(); ++it) {
      const FleetIndex::NodeLoad load = index.node_load(it->first);
      if (load.busy < best_load.busy ||
          (load.busy == best_load.busy && load.free_mb > best_load.free_mb)) {
        best = it->first;
        best_load = load;
      }
    }
    return best;
  }
  // Fleet-wide cold start: place it where the least work is outstanding.
  return index.least_outstanding();
}

FailoverRouter::FailoverRouter(std::unique_ptr<Router> inner)
    : inner_(std::move(inner)) {
  MLCR_CHECK(inner_ != nullptr);
}

void FailoverRouter::on_episode_start(const FleetEnv& fleet) {
  inner_->on_episode_start(fleet);
}

std::size_t FailoverRouter::route(const FleetEnv& fleet,
                                  const sim::Invocation& inv) {
  const std::size_t target = inner_->route(fleet, inv);
  MLCR_CHECK_MSG(target < fleet.routable_count(),
                 "inner router picked an invalid node");
  if (fleet.node_up(target)) return target;
  // Every node down: return the inner choice; FleetEnv::run() counts the
  // invocation as lost.
  return least_outstanding_healthy_node(fleet).value_or(target);
}

bool FailoverRouter::needs_warm_index() const {
  return inner_->needs_warm_index();
}

std::string FailoverRouter::name() const {
  return "Failover(" + inner_->name() + ")";
}

HealthAwareRouter::HealthAwareRouter(std::unique_ptr<Router> inner,
                                     double alpha, double threshold)
    : inner_(std::move(inner)), alpha_(alpha), threshold_(threshold) {
  MLCR_CHECK(inner_ != nullptr);
  MLCR_CHECK_MSG(alpha_ > 0.0 && alpha_ <= 1.0,
                 "EWMA smoothing factor must be in (0, 1], got " << alpha_);
  MLCR_CHECK_MSG(threshold_ >= 0.0 && threshold_ <= 1.0,
                 "failure-rate threshold must be in [0, 1], got "
                     << threshold_);
}

void HealthAwareRouter::on_episode_start(const FleetEnv& fleet) {
  inner_->on_episode_start(fleet);
  ewma_.assign(fleet.node_count(), 0.0);
  last_failed_.assign(fleet.node_count(), 0);
}

void HealthAwareRouter::observe(const FleetEnv& fleet) {
  // One EWMA step per route() call, over every node (spares included, so
  // their signal is current the moment they become routable). The failure
  // signal is 1 while the node is down or failed an invocation since the
  // last observation, 0 otherwise — all read from deterministic simulator
  // state, so the router is replayable under SimClock.
  for (std::size_t i = 0; i < fleet.node_count(); ++i) {
    const std::size_t failed = fleet.node(i).metrics().failed_count();
    const double signal =
        (!fleet.node_up(i) || failed > last_failed_[i]) ? 1.0 : 0.0;
    ewma_[i] = alpha_ * signal + (1.0 - alpha_) * ewma_[i];
    last_failed_[i] = failed;
  }
}

std::size_t HealthAwareRouter::route(const FleetEnv& fleet,
                                     const sim::Invocation& inv) {
  MLCR_CHECK_MSG(ewma_.size() == fleet.node_count(),
                 "route() before on_episode_start()");
  observe(fleet);
  const std::size_t target = inner_->route(fleet, inv);
  MLCR_CHECK_MSG(target < fleet.routable_count(),
                 "inner router picked an invalid node");
  if (fleet.node_up(target) && ewma_[target] <= threshold_) return target;
  // Steer to the healthy routable node with the lowest failure EWMA; ties
  // break to fewer in-flight executions, then the lowest index.
  std::size_t best = fleet.routable_count();
  for (std::size_t i = 0; i < fleet.routable_count(); ++i) {
    if (!fleet.node_up(i)) continue;
    if (best == fleet.routable_count()) {
      best = i;
      continue;
    }
    if (ewma_[i] < ewma_[best] ||
        (ewma_[i] == ewma_[best] &&
         fleet.node(i).busy_count() < fleet.node(best).busy_count()))
      best = i;
  }
  // Whole routable fleet down: return the inner choice; FleetEnv::run()
  // counts the invocation as lost.
  if (best == fleet.routable_count()) return target;
  return best;
}

bool HealthAwareRouter::needs_warm_index() const {
  return inner_->needs_warm_index();
}

std::string HealthAwareRouter::name() const {
  return "Health-Aware(" + inner_->name() + ")";
}

std::vector<RouterSpec> standard_routers(std::uint64_t seed) {
  return standard_specs<RouterSpec>(seed);
}

std::vector<IndexRouterSpec> standard_index_routers(std::uint64_t seed) {
  return standard_specs<IndexRouterSpec>(seed);
}

RouterSpec with_failover(RouterSpec spec) {
  RouterSpec wrapped;
  wrapped.name = "Failover(" + spec.name + ")";
  wrapped.make = [make = std::move(spec.make)] {
    return std::make_unique<FailoverRouter>(make());
  };
  return wrapped;
}

RouterSpec with_health_aware(RouterSpec spec, double alpha, double threshold) {
  RouterSpec wrapped;
  wrapped.name = "Health-Aware(" + spec.name + ")";
  wrapped.make = [make = std::move(spec.make), alpha, threshold] {
    return std::make_unique<HealthAwareRouter>(make(), alpha, threshold);
  };
  return wrapped;
}

}  // namespace mlcr::fleet
