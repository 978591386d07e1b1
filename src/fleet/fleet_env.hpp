// FleetEnv: a multi-node serverless cluster. Each of the N worker nodes is
// an independent ClusterEnv — its own warm pool, eviction policy and
// scheduler built from the SystemSpec registry — and a front-end Router
// assigns every invocation of a global trace to one node.
//
// The single-node decision problem of the paper (which warm container
// absorbs an invocation) is unchanged inside each node; the fleet layer adds
// the placement step that precedes it. Determinism is preserved: the trace
// is processed in arrival order, every node draws from an Rng stream split
// off the fleet seed, and a 1-node fleet reproduces run_episode() exactly
// (asserted in tests/fleet).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "fleet/fleet_index.hpp"
#include "fleet/metrics.hpp"
#include "policies/baselines.hpp"
#include "sim/env.hpp"
#include "util/rng.hpp"

namespace mlcr::faults {
class FaultInjector;
}

namespace mlcr::obs {
class Tracer;
}

namespace mlcr::fleet {

class Router;

struct FleetConfig {
  /// Number of worker nodes in the initial routable set.
  std::size_t nodes = 1;
  /// Cold spare nodes built alongside the fleet but kept out of the
  /// routable set until a crash event admits them, one per crash, in index
  /// order (elastic scale-out, DESIGN.md §14). Spares start with empty
  /// pools and never leave the routable set once admitted. 0 (the default)
  /// keeps every code path bit-identical to the pre-spare fleet.
  std::size_t spare_nodes = 0;
  /// Per-node environment knobs (pool capacity is per node, so a fixed
  /// cluster-wide budget should be divided by `nodes` by the caller).
  /// keep_alive_ttl_s / reuse_semantics are overridden per node from the
  /// SystemSpec, exactly as policies::run_system does.
  sim::EnvConfig node_env;
  /// Master seed; each node's factory receives an independent split stream.
  std::uint64_t seed = 1;
  /// Fault configuration (DESIGN.md §9). The default plan is faultless and
  /// keeps run() bit-identical to the pre-fault fleet: no injectors are
  /// attached and no crash machinery runs. With a faulted plan, every node
  /// gets a FaultInjector on its own stream split off the fleet seed, crash
  /// windows are applied in arrival order, and invocations routed at a down
  /// node fail over to the least-loaded healthy node.
  faults::FaultPlan faults;
};

/// Builds the per-node system (scheduler + eviction + TTL + reuse
/// semantics). Called once per node at construction; `node` is the node
/// index and `rng` an independent stream split from the fleet seed, for
/// stochastic schedulers.
using NodeSystemFactory =
    std::function<policies::SystemSpec(std::size_t node, util::Rng rng)>;

/// Adapts a parameterless SystemSpec factory (e.g. make_greedy_match_system)
/// to a NodeSystemFactory: every node gets an identical, independent system.
[[nodiscard]] NodeSystemFactory uniform_system(
    std::function<policies::SystemSpec()> make);

class FleetEnv {
 public:
  FleetEnv(const sim::FunctionTable& functions,
           const containers::PackageCatalog& catalog,
           const sim::StartupCostModel& cost_model, FleetConfig config,
           const NodeSystemFactory& make_system);

  /// Total nodes built, spares included.
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  /// Nodes routers may currently pick from: the prefix [0, routable_count())
  /// of the fleet. Starts at config().nodes each episode and grows by one as
  /// crash events admit spares (DESIGN.md §14); without spares it equals
  /// node_count() and routing is unchanged.
  [[nodiscard]] std::size_t routable_count() const noexcept {
    return routable_count_;
  }
  /// True when node `i` is inside the routable set (spares join on demand).
  [[nodiscard]] bool node_routable(std::size_t i) const noexcept {
    return i < routable_count_;
  }
  [[nodiscard]] const sim::ClusterEnv& node(std::size_t i) const;
  /// False while node `i` is inside a crash window (routers must not place
  /// work there; FailoverRouter and run()'s re-route path consult this).
  [[nodiscard]] bool node_up(std::size_t i) const;

  /// Mutable access to node `i`'s environment / scheduler for the serving
  /// layer (src/serve), which drives the nodes' streaming episodes directly
  /// under its own dispatch mutex. Must not be interleaved with this fleet's
  /// own run()/run_lockstep().
  [[nodiscard]] sim::ClusterEnv& node_env(std::size_t i);
  [[nodiscard]] policies::Scheduler& node_scheduler(std::size_t i);
  [[nodiscard]] const sim::FunctionTable& functions() const noexcept {
    return functions_;
  }
  [[nodiscard]] const containers::PackageCatalog& catalog() const noexcept {
    return catalog_;
  }
  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }
  /// Name of the per-node scheduler system (node 0's; all nodes share it
  /// when built via uniform_system).
  [[nodiscard]] const std::string& system_name() const noexcept {
    return system_name_;
  }

  /// Attach a tracer: each node's lifecycle events go to its own
  /// (obs::Tracer::kSimPid, node-index) track, run() names the tracks and
  /// emits one routing-decision instant per invocation on the target node's
  /// track. The fleet does not own the tracer; nullptr detaches.
  void set_tracer(obs::Tracer* tracer) noexcept;
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

  /// Route and execute `trace`: every invocation is assigned to a node by
  /// `router` (observing current fleet state), then offered to that node's
  /// streaming episode and scheduled by the node's own scheduler. Resets
  /// all nodes.
  ///
  /// Event-driven (DESIGN.md §10): instead of advancing every node to every
  /// arrival, run() drains a time-ordered event core — per-node
  /// next-event heap entries (completions, TTL expiries) merged with the
  /// pre-sorted crash/recover list — so each event costs O(log nodes), and
  /// maintains a FleetIndex so state-aware routers read fleet-wide load and
  /// warm-pool views without rescanning nodes_. Bit-identical to
  /// run_lockstep() (asserted in tests/fleet): between arrivals nodes only
  /// interact through routing, and ClusterEnv::advance_to composes, so
  /// advancing a node event-by-event reproduces the lockstep state.
  FleetSummary run(const sim::Trace& trace, Router& router);

  /// The pre-event-core reference implementation: every node's clock is
  /// advanced to every arrival (O(nodes) per invocation) and routers scan
  /// nodes_ directly. Kept as the oracle the event-driven run() is pinned
  /// against, and as the baseline bench/fleet_throughput measures.
  FleetSummary run_lockstep(const sim::Trace& trace, Router& router);

  /// Replace the fault plan (validated against the node count) and rebuild
  /// the pre-sorted crash/recover event list. The per-node fault streams
  /// are unchanged — they were split off the fleet seed at construction —
  /// so a plan swap never shifts any other stream.
  void set_fault_plan(faults::FaultPlan faults);

  /// The routing index maintained during an event-driven run(); nullptr
  /// outside one (routers then fall back to scanning nodes_).
  [[nodiscard]] const FleetIndex* index() const noexcept {
    return index_.get();
  }

  /// The fault stream node `node` of an `nodes`-node fleet seeded with
  /// `seed` receives in run(). Exposed so a single ClusterEnv driven with
  /// an injector on this stream reproduces a 1-node fleet bit-for-bit
  /// (asserted in tests/faults). `nodes` counts spares too.
  [[nodiscard]] static util::Rng node_fault_stream(std::uint64_t seed,
                                                   std::size_t nodes,
                                                   std::size_t node);

  /// One crash or recovery transition of the fault plan. The list is built
  /// and sorted once (construction / set_fault_plan), not per run: at equal
  /// times recoveries fire before crashes (a node's up_at may equal its
  /// next down_at, and capacity freed by a recovery should be routable
  /// before a concurrent crash removes more), then lowest node first.
  struct FaultEvent {
    double time = 0.0;
    bool is_recovery = false;
    std::size_t node = 0;
    bool partial = false;  ///< partial crash: the node's warm pool survives
    /// Failure domain of the originating window; faults::kNoDomain for
    /// independent windows.
    std::size_t domain = 0;
    /// First crash of a (domain, down_at) group: counts/traces the
    /// domain-level event exactly once however many members it hit.
    bool domain_lead = false;
  };

  /// The pre-sorted crash/recover transitions of the current plan. The
  /// serving layer merges this list into its own episode loop so live
  /// serving and run_replay() fire faults in the same order (DESIGN.md §14).
  [[nodiscard]] const std::vector<FaultEvent>& fault_events() const noexcept {
    return fault_events_;
  }

  /// On a faulted plan, build one injector per node (spares included) on
  /// its own stream split off fault_root_ (in node order) and attach them;
  /// empty otherwise. Public for the serving layer, which drives the nodes'
  /// streaming episodes itself; the injectors must outlive the episode and
  /// be detached with set_fault_injector(nullptr) afterwards.
  [[nodiscard]] std::vector<std::unique_ptr<faults::FaultInjector>>
  make_injectors();

  /// Reset the routable set to the initial config().nodes prefix. The
  /// serving layer calls this at episode start; FleetEnv's own runs do it
  /// via start_episode().
  void reset_routable() noexcept { routable_count_ = config_.nodes; }

  /// Admit the next spare into the routable set (no-op when none are
  /// left); returns its index. Called on every crash event.
  [[nodiscard]] std::optional<std::size_t> activate_spare() noexcept {
    if (routable_count_ >= nodes_.size()) return std::nullopt;
    return routable_count_++;
  }

 private:
  struct Node {
    policies::SystemSpec spec;
    std::unique_ptr<sim::ClusterEnv> env;
  };

  /// Validate `trace` before routing anything: arrival times must be
  /// non-decreasing and every function id known, with the offending
  /// invocation index named in the error.
  void validate_trace(const sim::Trace& trace) const;

  /// Rebuild fault_events_ from config_.faults (sorted as above).
  void rebuild_fault_events();

  /// Reset every node's streaming episode, notify schedulers and the
  /// router, and name the tracer tracks. Returns the router's name when
  /// tracing (used by the per-invocation route instants).
  std::string start_episode(Router& router, bool traced);

  /// Offer `inv` to node `target` and let the node's scheduler handle it
  /// (with the route instant / outstanding counter when traced).
  void dispatch(const sim::Invocation& inv, std::size_t target, bool traced,
                const std::string& router_name);

  /// Apply one fault event to its node: crash (partial-aware, counting and
  /// tracing the domain event on the lead window, admitting a spare) or
  /// recover. With `clamp`, times are clamped to the node's clock and
  /// recoveries are skipped on healthy nodes (the finish_run tail).
  /// Returns the spare admitted by a crash, so run() can index-touch it.
  std::optional<std::size_t> fire_fault_event(const FaultEvent& ev, bool clamp,
                                              std::size_t& domain_crashes,
                                              std::size_t& spares_activated,
                                              bool traced);

  /// Fire every fault event from `next_fault` on (clamped to each node's
  /// clock), drain the nodes, aggregate, and detach the injectors — the
  /// shared tail of run() and run_lockstep().
  FleetSummary finish_run(
      const sim::Trace& trace, Router& router, std::size_t next_fault,
      std::size_t lost, std::size_t rerouted, std::size_t domain_crashes,
      std::size_t spares_activated,
      const std::vector<std::unique_ptr<faults::FaultInjector>>& injectors);

  const sim::FunctionTable& functions_;
  const containers::PackageCatalog& catalog_;
  FleetConfig config_;
  std::vector<Node> nodes_;
  std::string system_name_;
  obs::Tracer* tracer_ = nullptr;
  /// Split off the fleet seed in the constructor; run() copies it, so
  /// repeated runs inject identical faults.
  util::Rng fault_root_;
  /// Crash/recover transitions of config_.faults, pre-sorted (see
  /// FaultEvent) — hoisted out of run(), which used to rebuild and re-sort
  /// the list on every run of the same fleet.
  std::vector<FaultEvent> fault_events_;
  /// Size of the routable prefix: config_.nodes at episode start, +1 per
  /// crash event while spares remain.
  std::size_t routable_count_ = 0;
  /// Live only inside an event-driven run().
  std::unique_ptr<FleetIndex> index_;
};

}  // namespace mlcr::fleet
