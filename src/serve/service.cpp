#include "serve/service.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "core/mlcr.hpp"
#include "policies/runner.hpp"
#include "serve/telemetry.hpp"
#include "util/check.hpp"
#include "util/lock_audit.hpp"

namespace mlcr::serve {

SchedulerService::SchedulerService(fleet::FleetEnv& fleet, Clock& clock,
                                   std::unique_ptr<fleet::IndexRouter> policy,
                                   ServeConfig config)
    : fleet_(fleet),
      clock_(clock),
      policy_(std::move(policy)),
      config_(config) {
  MLCR_CHECK(policy_ != nullptr);
  MLCR_CHECK_MSG(config_.workers > 0, "the service needs at least one worker");
  MLCR_CHECK_MSG(config_.batch > 0, "batch must drain at least one request");
  MLCR_CHECK_MSG(config_.queue_capacity > 0, "queues need room for one item");
  MLCR_CHECK_MSG(
      config_.degrade_depth <= config_.queue_capacity,
      "degrade_depth beyond the queue capacity would never trigger");
}

SchedulerService::~SchedulerService() {
  for (auto& queue : queues_) queue->close();
  for (auto& worker : workers_) {
    if (!worker.valid()) continue;
    try {
      worker.get();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
      // A worker that died mid-episode has nothing left to report here.
    }
  }
  workers_.clear();
  pool_.reset();
}

void SchedulerService::begin_episode() {
  MLCR_CHECK_MSG(pool_ == nullptr, "begin_episode() while workers run");
  const std::size_t nodes = fleet_.node_count();

  // MLCR detection: batched wave dispatch only makes sense when every node
  // consults the same DQN; a fleet mixing MLCR and heuristic nodes has no
  // coherent batching story, so reject it outright.
  mlcr_.assign(nodes, nullptr);
  std::size_t mlcr_nodes = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    mlcr_[i] = dynamic_cast<core::MlcrScheduler*>(&fleet_.node_scheduler(i));
    if (mlcr_[i] != nullptr) ++mlcr_nodes;
  }
  MLCR_CHECK_MSG(mlcr_nodes == 0 || mlcr_nodes == nodes,
                 "fleets mixing MLCR and non-MLCR nodes are unsupported");
  mlcr_mode_ = mlcr_nodes == nodes;

  for (std::size_t i = 0; i < nodes; ++i) {
    fleet_.node_env(i).reset_streaming();
    fleet_.node_scheduler(i).on_episode_start(fleet_.node_env(i));
  }
  // Per-node fault injectors (empty on a faultless plan — that path is
  // bit-identical to the pre-§14 service).
  injectors_ = fleet_.make_injectors();
  fleet_.reset_routable();
  // Policies route over the initial routable prefix; spares admitted later
  // are reachable through the index's failover/least-outstanding queries.
  policy_->on_episode_start(fleet_.routable_count());

  index_ = std::make_unique<fleet::FleetIndex>(nodes,
                                               policy_->needs_warm_index());
  for (std::size_t i = 0; i < nodes; ++i) {
    index_->update(i, fleet_.node_env(i));
    index_->set_routable(i, fleet_.node_routable(i));
  }

  queues_.clear();
  for (std::size_t w = 0; w < config_.workers; ++w)
    queues_.push_back(
        std::make_unique<BoundedQueue<Request>>(config_.queue_capacity));

  submit_cursor_.store(0, std::memory_order_relaxed);
  janitor_cursor_.store(0, std::memory_order_relaxed);
  for (auto* counter :
       {&submitted_, &routed_, &rejected_, &degraded_, &lost_, &rerouted_,
        &batches_, &inference_calls_, &max_wave_, &node_crashes_,
        &node_recoveries_, &domain_crashes_, &partial_crashes_,
        &spares_activated_})
    counter->store(0, std::memory_order_relaxed);
  in_episode_ = true;
  if (telemetry_ != nullptr)
    telemetry_->begin_episode(nodes, config_.workers, clock_.now_s());
}

void SchedulerService::start() {
  MLCR_CHECK_MSG(in_episode_, "start() before begin_episode()");
  MLCR_CHECK_MSG(pool_ == nullptr, "start() while workers already run");
  pool_ = std::make_unique<util::ThreadPool>(config_.workers);
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w)
    workers_.push_back(pool_->submit([this, w] { worker_loop(w); }));
}

bool SchedulerService::submit(const sim::Invocation& inv) {
  MLCR_CHECK_MSG(in_episode_, "submit() outside an episode");
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t slot =
      submit_cursor_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  BoundedQueue<Request>& queue = *queues_[slot];
  const std::size_t depth = queue.size();
  const bool degraded =
      config_.degrade_depth > 0 && depth >= config_.degrade_depth;
  const bool accepted = queue.try_push({inv, degraded});
  if (!accepted) rejected_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr)
    telemetry_->on_submit(inv, slot, depth, degraded, accepted,
                          clock_.now_s());
  return accepted;
}

std::size_t SchedulerService::pump_once() {
  MLCR_CHECK_MSG(in_episode_, "pump_once() outside an episode");
  MLCR_CHECK_MSG(pool_ == nullptr,
                 "pump_once() is the single-threaded drive path");
  std::size_t processed = 0;
  std::vector<Request> batch;
  batch.reserve(config_.batch);
  for (auto& queue : queues_) {
    for (;;) {
      batch.clear();
      if (queue->drain_nowait(batch, config_.batch) == 0) break;
      processed += batch.size();
      process_batch(batch);
    }
  }
  return processed;
}

void SchedulerService::worker_loop(std::size_t worker) {
  BoundedQueue<Request>& queue = *queues_[worker];
  std::vector<Request> batch;
  batch.reserve(config_.batch);
  for (;;) {
    batch.clear();
    if (queue.pop_batch(batch, config_.batch) == 0) return;
    process_batch(batch);
  }
}

void SchedulerService::drain_queues_on_caller() {
  std::vector<Request> batch;
  batch.reserve(config_.batch);
  for (auto& queue : queues_) {
    for (;;) {
      batch.clear();
      if (queue->drain_nowait(batch, config_.batch) == 0) break;
      process_batch(batch);
    }
  }
}

ServeSummary SchedulerService::finish_episode() {
  MLCR_CHECK_MSG(in_episode_, "finish_episode() outside an episode");
  for (auto& queue : queues_) queue->close();
  if (pool_ != nullptr) {
    for (auto& worker : workers_) worker.get();
    workers_.clear();
    pool_.reset();
  } else {
    // Pump-driven episode: serve whatever is still queued, as a worker
    // draining after close() would.
    drain_queues_on_caller();
  }

  // Any node still inside a crash window recovers before the episode closes
  // (the fleet twin fires the plan's tail recoveries in finish_run; live
  // chaos may simply never have recovered a node). Counted like any other
  // recovery.
  for (std::size_t i = 0; i < fleet_.node_count(); ++i)
    if (fleet_.node_env(i).down()) (void)apply_recover(i);

  ServeSummary out;
  out.stats = stats();
  std::vector<fleet::NodeObservation> observations;
  observations.reserve(fleet_.node_count());
  for (std::size_t i = 0; i < fleet_.node_count(); ++i) {
    sim::ClusterEnv& env = fleet_.node_env(i);
    env.finish_streaming();
    observations.push_back(
        {policies::summarize_env(env, fleet_.node_scheduler(i).name()),
         &env.metrics()});
  }
  out.fleet =
      fleet::aggregate_fleet(policy_->name(), fleet_.system_name(),
                             observations);
  out.fleet.lost = out.stats.lost;
  out.fleet.rerouted = out.stats.rerouted;
  out.fleet.node_crashes = out.stats.node_crashes;
  out.fleet.node_recoveries = out.stats.node_recoveries;
  out.fleet.domain_crashes = out.stats.domain_crashes;
  out.fleet.partial_crashes = out.stats.partial_crashes;
  out.fleet.spares_activated = out.stats.spares_activated;

  // Conservation: every submission ends in exactly one bucket, and every
  // dispatched request became exactly one node invocation.
  MLCR_CHECK_MSG(out.stats.submitted ==
                     out.stats.routed + out.stats.rejected + out.stats.lost,
                 "service lost track of " << out.stats.submitted << " - ("
                                          << out.stats.routed << " + "
                                          << out.stats.rejected << " + "
                                          << out.stats.lost << ") requests");
  MLCR_CHECK_MSG(out.stats.routed == out.fleet.total.invocations,
                 "routed " << out.stats.routed << " requests but the nodes "
                           << "recorded " << out.fleet.total.invocations
                           << " invocations");

  if (telemetry_ != nullptr) telemetry_->end_episode(clock_.now_s());

  // The envs borrow the injectors; detach before the service drops them.
  if (!injectors_.empty())
    for (std::size_t i = 0; i < fleet_.node_count(); ++i)
      fleet_.node_env(i).set_fault_injector(nullptr);
  injectors_.clear();

  in_episode_ = false;
  index_.reset();
  queues_.clear();
  return out;
}

ServeStats SchedulerService::stats() const {
  ServeStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.routed = routed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.lost = lost_.load(std::memory_order_relaxed);
  s.rerouted = rerouted_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.inference_calls = inference_calls_.load(std::memory_order_relaxed);
  s.max_wave = max_wave_.load(std::memory_order_relaxed);
  s.node_crashes = node_crashes_.load(std::memory_order_relaxed);
  s.node_recoveries = node_recoveries_.load(std::memory_order_relaxed);
  s.domain_crashes = domain_crashes_.load(std::memory_order_relaxed);
  s.partial_crashes = partial_crashes_.load(std::memory_order_relaxed);
  s.spares_activated = spares_activated_.load(std::memory_order_relaxed);
  return s;
}

bool SchedulerService::apply_crash(std::size_t node, bool partial) {
  MLCR_CHECK_MSG(in_episode_, "apply_crash() outside an episode");
  MLCR_CHECK_MSG(node < fleet_.node_count(),
                 "apply_crash() on unknown node " << node);
  std::lock_guard lock(dispatch_mutex_);
  const util::LockRankScope lock_rank(util::lock_ranks::kDispatch,
                                      "dispatch mutex");
  sim::ClusterEnv& env = fleet_.node_env(node);
  if (env.down()) return false;
  const double at = std::max(clock_.now_s(), env.now());
  env.crash(at, partial);
  refresh_index(node);
  node_crashes_.fetch_add(1, std::memory_order_relaxed);
  if (partial) partial_crashes_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr) telemetry_->on_node_crash(node, partial, at);
  if (const auto spare = fleet_.activate_spare())
    admit_spare(*spare, clock_.now_s());
  return true;
}

bool SchedulerService::apply_recover(std::size_t node) {
  MLCR_CHECK_MSG(in_episode_, "apply_recover() outside an episode");
  MLCR_CHECK_MSG(node < fleet_.node_count(),
                 "apply_recover() on unknown node " << node);
  std::lock_guard lock(dispatch_mutex_);
  const util::LockRankScope lock_rank(util::lock_ranks::kDispatch,
                                      "dispatch mutex");
  sim::ClusterEnv& env = fleet_.node_env(node);
  if (!env.down()) return false;
  const double at = std::max(clock_.now_s(), env.now());
  env.recover(at);
  refresh_index(node);
  node_recoveries_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr) telemetry_->on_node_recover(node, at);
  return true;
}

std::size_t SchedulerService::apply_domain_crash(std::size_t domain_id,
                                                 bool partial) {
  MLCR_CHECK_MSG(in_episode_, "apply_domain_crash() outside an episode");
  const faults::FailureDomain* domain = nullptr;
  for (const faults::FailureDomain& d : fleet_.config().faults.domains)
    if (d.id == domain_id) domain = &d;
  MLCR_CHECK_MSG(domain != nullptr, "apply_domain_crash() on unknown domain "
                                        << domain_id);
  std::vector<std::size_t> members = domain->nodes;
  std::sort(members.begin(), members.end());
  std::size_t crashed = 0;
  for (const std::size_t node : members) {
    if (!apply_crash(node, partial)) continue;
    if (crashed == 0) {
      // First member down leads the domain event, as in the planned path.
      domain_crashes_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry_ != nullptr)
        telemetry_->on_domain_crash(domain_id, partial, clock_.now_s());
    }
    ++crashed;
  }
  return crashed;
}

void SchedulerService::refresh_index(std::size_t node) {
  std::unique_lock lock(index_mutex_);
  const util::LockRankScope lock_rank(util::lock_ranks::kIndex, "index lock");
  index_->update(node, fleet_.node_env(node));
}

void SchedulerService::admit_spare(std::size_t spare, double at) {
  {
    std::unique_lock lock(index_mutex_);
    const util::LockRankScope lock_rank(util::lock_ranks::kIndex,
                                        "index lock");
    index_->update(spare, fleet_.node_env(spare));
    index_->set_routable(spare, true);
  }
  spares_activated_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr) telemetry_->on_spare_activated(spare, at);
}

std::optional<std::size_t> SchedulerService::apply_fault_event(
    const fleet::FleetEnv::FaultEvent& ev, bool clamp) {
  sim::ClusterEnv& env = fleet_.node_env(ev.node);
  const double at = clamp ? std::max(ev.time, env.now()) : ev.time;
  if (ev.is_recovery) {
    if (clamp && !env.down()) return std::nullopt;
    env.recover(at);
    refresh_index(ev.node);
    node_recoveries_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry_ != nullptr) telemetry_->on_node_recover(ev.node, at);
    return std::nullopt;
  }
  env.crash(at, ev.partial);
  refresh_index(ev.node);
  node_crashes_.fetch_add(1, std::memory_order_relaxed);
  if (ev.partial) partial_crashes_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr) telemetry_->on_node_crash(ev.node, ev.partial, at);
  if (ev.domain_lead) {
    domain_crashes_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry_ != nullptr)
      telemetry_->on_domain_crash(ev.domain, ev.partial, at);
  }
  const std::optional<std::size_t> spare = fleet_.activate_spare();
  if (spare) admit_spare(*spare, at);
  return spare;
}

SchedulerService::RouteOutcome SchedulerService::pick_target(
    const sim::Invocation& inv) const {
  // One shared lock over the whole decision: the policy's pick, the
  // up-check and the failover all read the same index state.
  std::shared_lock lock(index_mutex_);
  const util::LockRankScope lock_rank(util::lock_ranks::kIndex, "index lock");
  RouteOutcome out;
  out.node = policy_->route(*index_, fleet_.functions(), inv);
  MLCR_CHECK_MSG(out.node < fleet_.node_count(),
                 "policy picked an invalid node");
  if (!index_->node_load(out.node).up) {
    // Deterministic failover, as in FleetEnv::run: least outstanding work
    // among healthy nodes, lowest index on ties.
    const auto best = index_->least_outstanding_healthy();
    if (!best) {
      out.lost = true;
      return out;
    }
    out.node = *best;
    out.rerouted = true;
  }
  return out;
}

std::optional<std::size_t> SchedulerService::serve_one(const Request& req) {
  bool counted_reroute = false;
  for (;;) {
    const RouteOutcome route = pick_target(req.inv);
    if (route.lost) {
      lost_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry_ != nullptr) telemetry_->on_lost(req.inv, clock_.now_s());
      return std::nullopt;
    }
    if (route.rerouted && !counted_reroute) {
      rerouted_.fetch_add(1, std::memory_order_relaxed);
      counted_reroute = true;
    }
    if (telemetry_ != nullptr)
      telemetry_->on_route(req.inv, route.node, route.rerouted,
                           clock_.now_s());
    if (dispatch_one(req, route.node, route.rerouted)) return route.node;
    // An admin crash took the target down between routing and the dispatch
    // mutex. The crash updated the index under that mutex, so routing again
    // fails over to a healthy node.
  }
}

bool SchedulerService::dispatch_one(const Request& req, std::size_t target,
                                    bool rerouted) {
  std::lock_guard lock(dispatch_mutex_);
  const util::LockRankScope lock_rank(util::lock_ranks::kDispatch,
                                      "dispatch mutex");
  sim::ClusterEnv& env = fleet_.node_env(target);
  if (env.down()) return false;
  sim::Invocation inv = req.inv;
  // Concurrent ingestion can deliver a request after the node's clock moved
  // past its stamped arrival; clamping keeps offer()'s non-decreasing
  // arrival contract. A no-op in ordered single-threaded replay.
  if (inv.arrival_s < env.now()) inv.arrival_s = env.now();
  env.offer(inv);
  policies::Scheduler& scheduler = fleet_.node_scheduler(target);
  const sim::Action action =
      req.degraded ? sim::Action::cold() : scheduler.decide(env, inv);
  const sim::StepResult result = env.step(action);
  if (!req.degraded) scheduler.on_step_result(env, result);
  refresh_index(target);
  routed_.fetch_add(1, std::memory_order_relaxed);
  if (req.degraded) degraded_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr)
    telemetry_->on_dispatch(req.inv, target, req.degraded, rerouted, result,
                            clock_.now_s());
  return true;
}

void SchedulerService::note_wave(std::size_t width) {
  inference_calls_.fetch_add(1, std::memory_order_relaxed);
  std::size_t prev = max_wave_.load(std::memory_order_relaxed);
  while (prev < width && !max_wave_.compare_exchange_weak(
                             prev, width, std::memory_order_relaxed)) {
  }
}

std::size_t SchedulerService::dispatch_wave(const std::vector<Request>& batch,
                                            std::size_t begin,
                                            std::vector<Request>& retry) {
  // Phase 1 — route. Every wave member must target a *distinct* node:
  // ClusterEnv requires offer -> step before the next offer on a node, and
  // a wave steps only after the batched forward. The whole wave routes
  // against the wave-start index (the documented batched-serving
  // semantics); a repeated target closes the wave and that request
  // re-routes at the head of the next one.
  struct Entry {
    const Request* req;
    std::size_t target;
    bool rerouted;
  };
  std::vector<Entry> wave;
  wave.reserve(config_.batch);
  std::size_t next = begin;
  while (next < batch.size() && wave.size() < config_.batch) {
    const Request& req = batch[next];
    const RouteOutcome route = pick_target(req.inv);
    if (route.lost) {
      lost_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry_ != nullptr) telemetry_->on_lost(req.inv, clock_.now_s());
      ++next;
      continue;
    }
    const bool repeat =
        std::any_of(wave.begin(), wave.end(), [&](const Entry& e) {
          return e.target == route.node;
        });
    if (repeat) break;
    if (telemetry_ != nullptr)
      telemetry_->on_route(req.inv, route.node, route.rerouted,
                           clock_.now_s());
    wave.push_back({&req, route.node, route.rerouted});
    ++next;
  }
  if (wave.empty()) return next;

  // Phase 2 — take the dispatch mutex for the rest of the wave. An admin
  // crash may have taken a target down since Phase 1. Its request leaves
  // the wave for `retry`, which process_batch() routes again once the mutex
  // is released; the crash updated the index under this mutex, so routing
  // then fails over.
  std::lock_guard lock(dispatch_mutex_);
  const util::LockRankScope lock_rank(util::lock_ranks::kDispatch,
                                      "dispatch mutex");
  std::vector<Entry> up;
  up.reserve(wave.size());
  for (const Entry& entry : wave) {
    if (fleet_.node_env(entry.target).down()) retry.push_back(*entry.req);
    else up.push_back(entry);
  }
  wave.swap(up);

  // Phase 3 — offer every wave member (clamped), then decide the
  // non-degraded ones in a single forward_batch under the inference mutex.
  std::vector<sim::Invocation> offered;
  offered.reserve(wave.size());
  for (const Entry& entry : wave) {
    sim::ClusterEnv& env = fleet_.node_env(entry.target);
    sim::Invocation inv = entry.req->inv;
    if (inv.arrival_s < env.now()) inv.arrival_s = env.now();
    env.offer(inv);
    offered.push_back(inv);
  }
  std::vector<sim::Action> actions(wave.size(), sim::Action::cold());
  std::vector<std::size_t> ask;
  ask.reserve(wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i)
    if (!wave[i].req->degraded) ask.push_back(i);
  if (!ask.empty()) {
    std::vector<core::MlcrScheduler*> schedulers;
    std::vector<const sim::ClusterEnv*> envs;
    std::vector<const sim::Invocation*> invs;
    schedulers.reserve(ask.size());
    envs.reserve(ask.size());
    invs.reserve(ask.size());
    for (const std::size_t i : ask) {
      schedulers.push_back(mlcr_[wave[i].target]);
      envs.push_back(&fleet_.node_env(wave[i].target));
      invs.push_back(&offered[i]);
    }
    std::lock_guard inference_lock(inference_mutex_);
    const util::LockRankScope inference_rank(util::lock_ranks::kInference,
                                             "inference mutex");
    const std::vector<sim::Action> decided =
        core::MlcrScheduler::decide_batch(schedulers, envs, invs);
    for (std::size_t j = 0; j < ask.size(); ++j) actions[ask[j]] = decided[j];
    note_wave(ask.size());
  }

  // Phase 4 — step every member and refresh its index entry before the
  // dispatch mutex drops.
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const Entry& entry = wave[i];
    sim::ClusterEnv& env = fleet_.node_env(entry.target);
    const sim::StepResult result = env.step(actions[i]);
    if (!entry.req->degraded)
      fleet_.node_scheduler(entry.target).on_step_result(env, result);
    refresh_index(entry.target);
    routed_.fetch_add(1, std::memory_order_relaxed);
    if (entry.req->degraded)
      degraded_.fetch_add(1, std::memory_order_relaxed);
    if (entry.rerouted) rerouted_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry_ != nullptr)
      telemetry_->on_dispatch(entry.req->inv, entry.target,
                              entry.req->degraded, entry.rerouted, result,
                              clock_.now_s());
  }
  return next;
}

void SchedulerService::process_batch(const std::vector<Request>& batch) {
  if (batch.empty()) return;
  batches_.fetch_add(1, std::memory_order_relaxed);
  if (mlcr_mode_) {
    std::vector<Request> retry;
    std::size_t i = 0;
    while (i < batch.size()) i = dispatch_wave(batch, i, retry);
    while (!retry.empty()) {
      const std::vector<Request> again = std::move(retry);
      retry.clear();
      for (i = 0; i < again.size();) i = dispatch_wave(again, i, retry);
    }
  } else {
    for (const Request& req : batch) (void)serve_one(req);
  }
  janitor_step();
}

void SchedulerService::janitor_step() {
  const double now = clock_.now_s();
  // The janitor is the telemetry plane's heartbeat: SLO windows advance on
  // the injected clock, never the OS's.
  if (telemetry_ != nullptr) telemetry_->advance(now);
  const std::size_t node =
      janitor_cursor_.fetch_add(1, std::memory_order_relaxed) %
      fleet_.node_count();
  std::lock_guard lock(dispatch_mutex_);
  const util::LockRankScope lock_rank(util::lock_ranks::kDispatch,
                                      "dispatch mutex");
  sim::ClusterEnv& env = fleet_.node_env(node);
  if (env.now() >= now) return;
  env.advance_idle(now);
  refresh_index(node);
}

ServeSummary SchedulerService::run_replay(const sim::Trace& trace) {
  auto* sim_clock = dynamic_cast<SimClock*>(&clock_);
  MLCR_CHECK_MSG(sim_clock != nullptr,
                 "run_replay() requires a simulated clock");
  MLCR_CHECK_MSG(pool_ == nullptr, "run_replay() while workers run");
  begin_episode();

  // The event core of FleetEnv::run, replicated over the service: one
  // lazily-invalidated heap entry per node holds its next self-scheduled
  // event (completion or TTL expiry); stale entries are discarded on pop.
  // The plan's fault events stay in the fleet's pre-sorted list and are
  // merged by time, firing before node advances at equal times — the order
  // FleetEnv::run uses.
  struct AdvanceEntry {
    double time;
    std::size_t node;
    std::uint64_t version;
  };
  struct AdvanceLater {
    bool operator()(const AdvanceEntry& a, const AdvanceEntry& b) const {
      if (a.time != b.time) return a.time > b.time;  // min-heap on time
      return a.node > b.node;                        // deterministic ties
    }
  };
  std::priority_queue<AdvanceEntry, std::vector<AdvanceEntry>, AdvanceLater>
      heap;
  std::vector<std::uint64_t> versions(fleet_.node_count(), 0);
  const auto reschedule = [&](std::size_t node) {
    ++versions[node];
    if (const auto at = fleet_.node_env(node).next_event_time())
      heap.push({*at, node, versions[node]});
  };
  for (std::size_t i = 0; i < fleet_.node_count(); ++i) reschedule(i);

  const auto drain = [&](double t, bool inclusive) {
    for (;;) {
      while (!heap.empty() && heap.top().version != versions[heap.top().node])
        heap.pop();
      if (heap.empty()) return;
      if (inclusive ? heap.top().time > t : heap.top().time >= t) return;
      const AdvanceEntry entry = heap.top();
      heap.pop();
      sim::ClusterEnv& env = fleet_.node_env(entry.node);
      env.advance_to(entry.time);
      refresh_index(entry.node);
      reschedule(entry.node);
    }
  };
  const auto& fault_events = fleet_.fault_events();
  std::size_t next_fault = 0;
  // Fire one pre-planned transition: node advances strictly before it run
  // first, then the event, then the touched nodes reschedule.
  const auto fire_fault = [&](const fleet::FleetEnv::FaultEvent& ev,
                              bool clamp) {
    if (!clamp) drain(ev.time, /*inclusive=*/false);
    const std::optional<std::size_t> spare = apply_fault_event(ev, clamp);
    reschedule(ev.node);
    if (spare) reschedule(*spare);
  };

  double last_arrival = 0.0;
  for (const sim::Invocation& inv : trace.invocations()) {
    MLCR_CHECK_MSG(inv.arrival_s >= last_arrival,
                   "replay traces must be sorted by arrival");
    last_arrival = inv.arrival_s;
    while (next_fault < fault_events.size() &&
           fault_events[next_fault].time <= inv.arrival_s) {
      const fleet::FleetEnv::FaultEvent& ev = fault_events[next_fault++];
      sim_clock->advance_to(ev.time);
      fire_fault(ev, /*clamp=*/false);
    }
    sim_clock->advance_to(inv.arrival_s);
    drain(inv.arrival_s, /*inclusive=*/true);
    submitted_.fetch_add(1, std::memory_order_relaxed);
    // Replay bypasses the queues, so the ingest hook fires here: queue slot
    // as submit() would round-robin it, depth 0 (nothing ever queues).
    if (telemetry_ != nullptr)
      telemetry_->on_submit(inv, inv.seq % config_.workers, 0, false, true,
                            inv.arrival_s);
    // Strictly sequential dispatch — MLCR decides per request, exactly as
    // FleetEnv::dispatch does, so the replay is bit-identical to run().
    if (const auto target = serve_one({inv, false})) reschedule(*target);
    // No janitor runs in replay; advance the SLO windows off the SimClock
    // directly so the telemetry stream stays a pure function of the trace.
    if (telemetry_ != nullptr) telemetry_->advance(inv.arrival_s);
  }
  // Episode tail: fire what remains of the plan (clamped to node clocks, as
  // FleetEnv::finish_run does) so crash/recovery counts match it.
  for (; next_fault < fault_events.size(); ++next_fault) {
    const fleet::FleetEnv::FaultEvent& ev = fault_events[next_fault];
    if (ev.time > sim_clock->now_s()) sim_clock->advance_to(ev.time);
    fire_fault(ev, /*clamp=*/true);
  }
  return finish_episode();
}

}  // namespace mlcr::serve
