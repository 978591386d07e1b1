// SchedulerService: the online serving front-end over an MLCR fleet
// (DESIGN.md §11). Producers submit() invocations into bounded per-worker
// queues; worker threads drain them in batches and dispatch each request to
// a node picked by a routing policy (a fleet::IndexRouter — the same class
// FleetEnv::run routes with) over one fleet::FleetIndex. The node's own
// scheduler (any SystemSpec, including MLCR) then makes the container-reuse
// decision, exactly as in FleetEnv::run.
//
// Concurrency model (one index, one lock):
//   - routing holds the index lock shared for the whole decision — policy
//     route(), the up-check and failover — and never reads a node
//     environment;
//   - every node-state mutation (dispatch, janitor, the apply_* admin calls,
//     spare admission) runs under the one dispatch mutex, and takes the
//     index lock unique only around FleetIndex::update()/set_routable(), so
//     readers never observe a node mid-step;
//   - lock order is dispatch mutex -> inference mutex -> index lock, never
//     reversed; the index lock is a leaf.
//
// Backpressure: a submit() that finds its queue at/above `degrade_depth` is
// accepted *degraded* — it will be served with a forced cold start, skipping
// the scheduler (the serving twin of the faults layer's
// degrade-rather-than-fail semantics); a submit() that finds the queue full
// is rejected outright. Always: submitted == routed + rejected + lost.
//
// Time never comes from the OS directly — an injected serve::Clock drives
// the janitor (and live arrival stamps), so the same service runs live
// (WallClock) or bit-reproducibly under run_replay() (SimClock).
//
// Faults (DESIGN.md §14): on a faulted fleet the service attaches per-node
// injectors at begin_episode() and fires the plan two ways — run_replay()
// merges the fleet's pre-sorted fault-event list into its episode loop
// (faults before node advances at equal times, exactly as FleetEnv::run),
// while live chaos drives apply_crash()/apply_recover()/apply_domain_crash()
// from ONE admin thread (the spare-admission and fleet routable-set state is
// not atomic; a single chaos driver concurrent with the workers is the
// supported model, and what the TSan tests pin). Crash events admit cold
// spares into the index's routable set, so recovery capacity appears on the
// failover path without restarting the episode.
#pragma once

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "faults/injector.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/fleet_index.hpp"
#include "fleet/metrics.hpp"
#include "fleet/router.hpp"
#include "serve/clock.hpp"
#include "serve/queue.hpp"
#include "util/thread_pool.hpp"

namespace mlcr::core {
class MlcrScheduler;
}

namespace mlcr::serve {

class Telemetry;

struct ServeConfig {
  /// Worker threads; each owns one ingestion queue (submit round-robins).
  std::size_t workers = 1;
  /// Per-worker queue bound; a push into a full queue is rejected.
  std::size_t queue_capacity = 1024;
  /// Queue depth at/above which an accepted request is served degraded
  /// (forced cold start, scheduler bypassed). 0 disables degradation.
  std::size_t degrade_depth = 0;
  /// Max requests drained per worker wake-up — and, on an MLCR fleet, the
  /// max wave width batched through one QNetwork::forward_batch call.
  std::size_t batch = 8;
};

/// Service-level accounting for one episode (all counters monotone).
struct ServeStats {
  std::size_t submitted = 0;  ///< every submit() call
  std::size_t routed = 0;     ///< dispatched to (and executed on) a node
  std::size_t rejected = 0;   ///< dropped at ingestion: queue full
  std::size_t degraded = 0;   ///< of routed: served with a forced cold start
  std::size_t lost = 0;       ///< accepted but no healthy node remained
  std::size_t rerouted = 0;   ///< target node down -> deterministic failover
  std::size_t batches = 0;    ///< consumer drains that served >= 1 request
  std::size_t inference_calls = 0;  ///< MLCR decide_batch invocations
  std::size_t max_wave = 0;         ///< widest single decide_batch

  // Fault-plane accounting (DESIGN.md §14); all 0 on a faultless episode.
  std::size_t node_crashes = 0;     ///< crash events fired (partial included)
  std::size_t node_recoveries = 0;  ///< recovery events fired
  std::size_t domain_crashes = 0;   ///< domain-level crash events (lead only)
  std::size_t partial_crashes = 0;  ///< of node_crashes: warm pool survived
  std::size_t spares_activated = 0;  ///< cold spares admitted by crashes
};

/// Episode result: the fleet-level summary (same accounting as
/// FleetEnv::run — summarize_env + aggregate_fleet per node) plus the
/// service-level counters.
struct ServeSummary {
  fleet::FleetSummary fleet;
  ServeStats stats;
};

class SchedulerService {
 public:
  /// The fleet must outlive the service. A faulted fleet is served too: the
  /// service attaches the fleet's injectors per episode and fires the crash
  /// schedule itself (run_replay's event merge, or the apply_* admin APIs
  /// live). `clock` is borrowed; `policy` is owned.
  SchedulerService(fleet::FleetEnv& fleet, Clock& clock,
                   std::unique_ptr<fleet::IndexRouter> policy,
                   ServeConfig config);
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Attach the telemetry plane (borrowed, may be null to detach; must
  /// outlive the service's episodes). Set it before begin_episode() so the
  /// episode reset and track metadata are recorded. Every request lifecycle
  /// event, the janitor's window advance, and the episode boundaries are
  /// reported; a null telemetry pointer costs one predicted branch per site.
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Reset every node's streaming episode and scheduler, rebuild the
  /// index, create fresh queues, and zero the counters. Detects an MLCR
  /// fleet (all node schedulers are MlcrScheduler — mixed fleets are
  /// rejected) and switches dispatch to batched wave inference.
  void begin_episode();

  /// Spawn the worker threads (requires begin_episode()).
  void start();

  /// Enqueue one invocation; false when its queue was full (rejected).
  /// Thread-safe. Arrival stamps should come from the service clock (live)
  /// or the trace (replay); dispatch clamps them to the target node's clock.
  [[nodiscard]] bool submit(const sim::Invocation& inv);

  /// Single-threaded drive path for deterministic tests: drain and serve
  /// everything currently queued on the caller's thread (no workers may be
  /// running). Returns the number of requests served or dropped.
  std::size_t pump_once();

  /// Close the queues, drain what remains (joining the workers when
  /// start()ed), finish every node's streaming episode and aggregate the
  /// fleet summary. Ends the episode.
  [[nodiscard]] ServeSummary finish_episode();

  /// Deterministic replay: run `trace` through the full service path —
  /// index, routing policy, per-node schedulers — single-threadedly in
  /// arrival order, advancing the SimClock and the nodes' event cores
  /// exactly as FleetEnv::run does. Every policy makes the same decision
  /// over an up-to-date index as FleetEnv::run's router, so the returned
  /// fleet summary equals FleetEnv::run's on a faultless plan (asserted in
  /// tests/serve). On a faulted plan the fleet's fault-event list is merged
  /// into the loop, firing before node advances at equal times. Requires a
  /// SimClock. Runs its own episode.
  [[nodiscard]] ServeSummary run_replay(const sim::Trace& trace);

  // Live chaos admin APIs (DESIGN.md §14). Thread-safe against the workers,
  // but at most ONE admin thread may drive them at a time (spare admission
  // mutates non-atomic fleet state).

  /// Crash `node` now (clamped to its clock). False when it was already
  /// down. A partial crash kills only in-flight work; the warm pool
  /// survives. Every successful crash admits one cold spare while any
  /// remain.
  bool apply_crash(std::size_t node, bool partial = false);

  /// Recover `node` now. False when it was already up.
  bool apply_recover(std::size_t node);

  /// Crash every member of the configured failure domain `domain_id` (in
  /// ascending node order), counting/tracing the domain-level event once.
  /// Returns how many members actually went down.
  std::size_t apply_domain_crash(std::size_t domain_id, bool partial = false);

  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }
  [[nodiscard]] const fleet::IndexRouter& policy() const noexcept {
    return *policy_;
  }
  [[nodiscard]] bool mlcr_mode() const noexcept { return mlcr_mode_; }
  /// Live counters (racy-but-monotone snapshot while workers run).
  [[nodiscard]] ServeStats stats() const;

 private:
  struct Request {
    sim::Invocation inv;
    bool degraded = false;
  };

  /// Routing decision for one request; `lost` when no healthy node exists.
  struct RouteOutcome {
    bool lost = false;
    std::size_t node = 0;
    bool rerouted = false;
  };

  [[nodiscard]] RouteOutcome pick_target(const sim::Invocation& inv) const;

  /// Route + dispatch one request (used by the non-MLCR path and replay).
  /// Returns the node served, or nullopt when the request was lost.
  std::optional<std::size_t> serve_one(const Request& req);

  /// Offer/decide/step/observe on `target` under the dispatch mutex, then
  /// refresh the index entry. Mirrors FleetEnv::dispatch. `rerouted` is
  /// routing context forwarded to telemetry. Returns false, touching
  /// nothing, when `target` went down after it was routed to.
  [[nodiscard]] bool dispatch_one(const Request& req, std::size_t target,
                                  bool rerouted);

  /// Serve `batch[begin..]` up to one MLCR wave: route requests until a
  /// target node repeats or the wave reaches config_.batch, then offer all,
  /// decide the whole wave in one forward_batch, and step each. Returns the
  /// index of the first unserved request. A request whose target went down
  /// after routing is appended to `retry` instead, to be routed again.
  std::size_t dispatch_wave(const std::vector<Request>& batch,
                            std::size_t begin, std::vector<Request>& retry);

  void process_batch(const std::vector<Request>& batch);

  /// Advance one node (round-robin) to the service clock so idle nodes
  /// still see completions and TTL expiry; called after every batch.
  void janitor_step();

  void worker_loop(std::size_t worker);
  void drain_queues_on_caller();
  void note_wave(std::size_t width);

  /// Re-derive `node`'s index entry under the unique index lock. Callers
  /// hold the dispatch mutex, or run single-threaded.
  void refresh_index(std::size_t node);

  /// Admit `spare` into the routable set (index entry refreshed and flipped
  /// routable) after a crash at `at`; counted and reported.
  void admit_spare(std::size_t spare, double at);

  /// Replay-path twin of FleetEnv::fire_fault_event: fire one pre-planned
  /// transition (single-threaded; no dispatch mutex). `clamp` is the
  /// episode-tail mode — times clamp to the node clock and stale recoveries
  /// are skipped. Returns the spare admitted by a crash, if any.
  std::optional<std::size_t> apply_fault_event(
      const fleet::FleetEnv::FaultEvent& ev, bool clamp);

  fleet::FleetEnv& fleet_;
  Clock& clock_;
  std::unique_ptr<fleet::IndexRouter> policy_;
  ServeConfig config_;
  Telemetry* telemetry_ = nullptr;

  bool in_episode_ = false;
  bool mlcr_mode_ = false;
  std::unique_ptr<fleet::FleetIndex> index_;
  /// Guards index_: shared while routing, unique around its writes.
  mutable std::shared_mutex index_mutex_;
  /// Per-node fault injectors on a faulted plan (empty otherwise); owned
  /// here because the service, not FleetEnv::run, drives the episode. The
  /// envs borrow them, so they detach at finish_episode().
  std::vector<std::unique_ptr<faults::FaultInjector>> injectors_;
  /// Per node: its scheduler as MlcrScheduler, set only in MLCR mode.
  std::vector<core::MlcrScheduler*> mlcr_;
  /// unique_ptr: queues are neither movable nor copyable.
  std::vector<std::unique_ptr<BoundedQueue<Request>>> queues_;
  /// Serializes every node-state mutation.
  std::mutex dispatch_mutex_;
  /// Serializes forward_batch on the shared agent across workers.
  std::mutex inference_mutex_;

  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::future<void>> workers_;

  std::atomic<std::size_t> submit_cursor_{0};
  std::atomic<std::size_t> janitor_cursor_{0};
  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> routed_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> degraded_{0};
  std::atomic<std::size_t> lost_{0};
  std::atomic<std::size_t> rerouted_{0};
  std::atomic<std::size_t> batches_{0};
  std::atomic<std::size_t> inference_calls_{0};
  std::atomic<std::size_t> max_wave_{0};
  std::atomic<std::size_t> node_crashes_{0};
  std::atomic<std::size_t> node_recoveries_{0};
  std::atomic<std::size_t> domain_crashes_{0};
  std::atomic<std::size_t> partial_crashes_{0};
  std::atomic<std::size_t> spares_activated_{0};
};

}  // namespace mlcr::serve
