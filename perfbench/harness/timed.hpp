// Bench-owned decorators that time calls into the program's public layer
// interfaces from outside: fleet::Router::route, serve::RoutePolicy::route
// and policies::Scheduler::decide (plus the step that follows it, which ends
// at the scheduler's on_step_result hook). Each writes steady-clock stamps
// into a per-request slot indexed by invocation seq, so concurrent workers
// serving different requests never share a slot.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet/router.hpp"
#include "policies/scheduler.hpp"
#include "serve/policy.hpp"
#include "stats.hpp"

namespace perfbench {

using StampTable = std::vector<Stamps>;

class TimedRouter final : public mlcr::fleet::Router {
 public:
  TimedRouter(std::unique_ptr<mlcr::fleet::Router> inner, StampTable& stamps)
      : inner_(std::move(inner)), stamps_(stamps) {}

  void on_episode_start(const mlcr::fleet::FleetEnv& fleet) override {
    inner_->on_episode_start(fleet);
  }
  [[nodiscard]] std::size_t route(const mlcr::fleet::FleetEnv& fleet,
                                  const mlcr::sim::Invocation& inv) override {
    Stamps& s = stamps_[inv.seq];
    s.route_start = now_ns();
    const std::size_t node = inner_->route(fleet, inv);
    s.route_ns = now_ns() - s.route_start;
    return node;
  }
  [[nodiscard]] bool needs_warm_index() const override {
    return inner_->needs_warm_index();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<mlcr::fleet::Router> inner_;
  StampTable& stamps_;
};

/// serve::RoutePolicy decorator. route() may run on any worker, and on an
/// MLCR fleet a request can be routed twice (a repeated target closes the
/// wave and the request re-routes in the next one): the first call's start
/// is kept and the durations add up. `on_route`, when set, is told which
/// request the calling thread routed (the traced run uses it to find the
/// worker batch that served it).
class TimedPolicy final : public mlcr::serve::RoutePolicy {
 public:
  TimedPolicy(std::unique_ptr<mlcr::serve::RoutePolicy> inner,
              StampTable& stamps)
      : inner_(std::move(inner)), stamps_(stamps) {}

  void set_route_hook(void (*on_route)(std::uint64_t seq)) {
    on_route_ = on_route;
  }

  void on_episode_start(std::size_t node_count) override {
    inner_->on_episode_start(node_count);
  }
  [[nodiscard]] std::size_t route(const mlcr::serve::ShardedFleetIndex& index,
                                  const mlcr::sim::FunctionTable& functions,
                                  const mlcr::sim::Invocation& inv) override {
    Stamps& s = stamps_[inv.seq];
    const std::int64_t t0 = now_ns();
    const bool first = s.route_start == 0;
    if (first) s.route_start = t0;
    const std::size_t node = inner_->route(index, functions, inv);
    s.route_ns += now_ns() - t0;
    if (first && on_route_ != nullptr) on_route_(inv.seq);
    return node;
  }
  [[nodiscard]] bool needs_warm_index() const override {
    return inner_->needs_warm_index();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<mlcr::serve::RoutePolicy> inner_;
  StampTable& stamps_;
  void (*on_route_)(std::uint64_t) = nullptr;
};

/// policies::Scheduler decorator: times decide(), and with `time_step` the
/// node step that follows it (decide end -> on_step_result). One instance
/// per node; a node is only ever driven by one thread at a time.
class TimedScheduler final : public mlcr::policies::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<mlcr::policies::Scheduler> inner,
                 StampTable& stamps, bool time_step)
      : inner_(std::move(inner)), stamps_(stamps), time_step_(time_step) {}

  /// Off: decide() and on_step_result() only forward. Switch between
  /// episodes, never while workers run.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void on_episode_start(const mlcr::sim::ClusterEnv& env) override {
    inner_->on_episode_start(env);
  }
  [[nodiscard]] mlcr::sim::Action decide(
      const mlcr::sim::ClusterEnv& env,
      const mlcr::sim::Invocation& inv) override {
    if (!enabled_) return inner_->decide(env, inv);
    Stamps& s = stamps_[inv.seq];
    s.decide_start = now_ns();
    const mlcr::sim::Action a = inner_->decide(env, inv);
    s.decide_end = now_ns();
    current_ = inv.seq;
    return a;
  }
  void on_step_result(const mlcr::sim::ClusterEnv& env,
                      const mlcr::sim::StepResult& result) override {
    if (enabled_ && time_step_) stamps_[current_].step_end = now_ns();
    inner_->on_step_result(env, result);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<mlcr::policies::Scheduler> inner_;
  StampTable& stamps_;
  bool time_step_;
  bool enabled_ = true;
  std::uint64_t current_ = 0;
};

}  // namespace perfbench
