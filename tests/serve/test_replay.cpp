// Deterministic replay: a SimClock-driven SchedulerService episode over a
// fixed trace — routing via the service's locked index, dispatch via its
// dispatch-mutex path — must reproduce FleetEnv::run's summary exactly, for
// every standard routing policy (with and without a cold spare that never
// joins) and for an MLCR fleet. This is the pin that says the serving
// subsystem adds concurrency machinery without changing a single scheduling
// decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/mlcr.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/router.hpp"
#include "fstartbench/workloads.hpp"
#include "policies/baselines.hpp"
#include "serve/service.hpp"
#include "testing/fixtures.hpp"
#include "util/check.hpp"

namespace mlcr::serve {
namespace {

using mlcr::testing::TinyWorld;

void expect_summaries_equal(const fleet::FleetSummary& replay,
                            const fleet::FleetSummary& reference) {
  EXPECT_EQ(replay.router, reference.router);
  EXPECT_EQ(replay.system, reference.system);
  EXPECT_EQ(replay.nodes, reference.nodes);
  EXPECT_EQ(replay.total.invocations, reference.total.invocations);
  EXPECT_DOUBLE_EQ(replay.total.total_latency_s,
                   reference.total.total_latency_s);
  EXPECT_DOUBLE_EQ(replay.total.average_latency_s,
                   reference.total.average_latency_s);
  EXPECT_EQ(replay.total.cold_starts, reference.total.cold_starts);
  EXPECT_EQ(replay.total.warm_l1, reference.total.warm_l1);
  EXPECT_EQ(replay.total.warm_l2, reference.total.warm_l2);
  EXPECT_EQ(replay.total.warm_l3, reference.total.warm_l3);
  EXPECT_DOUBLE_EQ(replay.total.peak_pool_mb, reference.total.peak_pool_mb);
  EXPECT_EQ(replay.total.evictions, reference.total.evictions);
  EXPECT_EQ(replay.total.rejections, reference.total.rejections);
  EXPECT_EQ(replay.lost, reference.lost);
  EXPECT_EQ(replay.rerouted, reference.rerouted);
  EXPECT_DOUBLE_EQ(replay.routing_imbalance, reference.routing_imbalance);
  ASSERT_EQ(replay.per_node.size(), reference.per_node.size());
  for (std::size_t n = 0; n < replay.per_node.size(); ++n) {
    EXPECT_EQ(replay.per_node[n].invocations,
              reference.per_node[n].invocations)
        << "node " << n;
    EXPECT_DOUBLE_EQ(replay.per_node[n].total_latency_s,
                     reference.per_node[n].total_latency_s)
        << "node " << n;
    EXPECT_EQ(replay.per_node[n].cold_starts, reference.per_node[n].cold_starts)
        << "node " << n;
  }
}

TEST(ServeReplay, MatchesFleetRunForEveryStandardPolicy) {
  const auto bench = fstartbench::make_benchmark();
  const sim::StartupCostModel cost(bench.catalog,
                                   fstartbench::default_cost_config());
  util::Rng trace_rng(99);
  const sim::Trace trace =
      fstartbench::make_overall_workload(bench, 200, trace_rng);

  const auto routers = fleet::standard_routers();
  // A spare sits outside the routable set all episode (no fault admits
  // it): no policy may ever pick it.
  for (const std::size_t spares : {0U, 1U}) {
    for (const fleet::IndexRouterSpec& policy_spec :
         fleet::standard_index_routers()) {
      SCOPED_TRACE(policy_spec.name + " with " + std::to_string(spares) +
                   " spare(s)");
      const auto router_spec =
          std::find_if(routers.begin(), routers.end(),
                       [&](const fleet::RouterSpec& r) {
                         return r.name == policy_spec.name;
                       });
      ASSERT_NE(router_spec, routers.end());

      fleet::FleetConfig cfg;
      cfg.nodes = 4;
      cfg.spare_nodes = spares;
      cfg.node_env.pool_capacity_mb = 1500.0;
      fleet::FleetEnv fleet(
          bench.functions, bench.catalog, cost, cfg,
          fleet::uniform_system(policies::make_greedy_match_system));

      const auto router = router_spec->make();
      const fleet::FleetSummary reference = fleet.run(trace, *router);

      // Same FleetEnv, fresh episode: the service resets every node itself.
      SimClock clock;
      ServeConfig serve_cfg;
      serve_cfg.workers = 2;  // irrelevant: replay is strictly sequential
      SchedulerService service(fleet, clock, policy_spec.make(), serve_cfg);
      const ServeSummary replay = service.run_replay(trace);

      expect_summaries_equal(replay.fleet, reference);
      EXPECT_EQ(replay.stats.submitted, trace.size());
      EXPECT_EQ(replay.stats.routed + replay.stats.lost, trace.size());
      EXPECT_EQ(replay.stats.rejected, 0U);
      EXPECT_DOUBLE_EQ(clock.now_s(),
                       trace.invocations().back().arrival_s);
    }
  }
}

TEST(ServeReplay, MatchesFleetRunOnAnMlcrFleet) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  core::MlcrConfig mlcr_cfg = core::make_default_mlcr_config(/*num_slots=*/4,
                                                             /*embed_dim=*/16);
  mlcr_cfg.dqn.network.ffn_dim = 32;
  auto agent = std::make_shared<rl::DqnAgent>(mlcr_cfg.dqn, util::Rng(11));

  std::vector<sim::Invocation> invs;
  const sim::FunctionTypeId fns[] = {world.fn_py_flask, world.fn_py_numpy,
                                     world.fn_js, world.fn_other_os};
  for (std::size_t i = 0; i < 40; ++i)
    invs.push_back(TinyWorld::inv(fns[i % 4], 0.5 * static_cast<double>(i),
                                  0.4));
  const sim::Trace trace{std::move(invs)};

  const auto make_fleet = [&] {
    fleet::FleetConfig cfg;
    cfg.nodes = 3;
    cfg.node_env.pool_capacity_mb = 2048.0;
    return fleet::FleetEnv(world.functions, world.catalog, cost, cfg,
                           fleet::uniform_system([&] {
                             return core::make_mlcr_system(agent,
                                                           mlcr_cfg.encoder);
                           }));
  };

  fleet::FleetEnv fleet = make_fleet();
  fleet::LeastOutstandingRouter router;
  const fleet::FleetSummary reference = fleet.run(trace, router);

  SimClock clock;
  ServeConfig serve_cfg;
  SchedulerService service(fleet, clock,
                           std::make_unique<fleet::LeastOutstandingRouter>(),
                           serve_cfg);
  const ServeSummary replay = service.run_replay(trace);
  expect_summaries_equal(replay.fleet, reference);
  EXPECT_EQ(replay.fleet.system, "MLCR");
}

TEST(ServeReplay, RequiresASimulatedClock) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  fleet::FleetConfig cfg;
  cfg.nodes = 2;
  cfg.node_env.pool_capacity_mb = 2048.0;
  fleet::FleetEnv fleet(world.functions, world.catalog, cost, cfg,
                        fleet::uniform_system(
                            policies::make_greedy_match_system));
  WallClock clock;
  SchedulerService service(fleet, clock, std::make_unique<fleet::RoundRobinRouter>(),
                           ServeConfig{});
  const sim::Trace trace = TinyWorld::make_trace(
      {TinyWorld::inv(world.fn_py_flask, 0.0, 0.1)});
  EXPECT_THROW((void)service.run_replay(trace), util::CheckError);
}

}  // namespace
}  // namespace mlcr::serve
