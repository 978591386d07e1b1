// The serving plane under faults (DESIGN.md §14): deterministic replay of a
// correlated-domain fault schedule must match FleetEnv::run decision for
// decision, two replays must be byte-identical through the whole telemetry
// plane, the live chaos admin APIs must keep the service accounting exact,
// and a domain crash racing concurrent dispatch must stay data-race-free
// (the TSan CI job runs this suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "faults/fault_plan.hpp"
#include "fleet/fleet_env.hpp"
#include "fleet/router.hpp"
#include "obs/sink.hpp"
#include "obs/tracer.hpp"
#include "policies/baselines.hpp"
#include "serve/service.hpp"
#include "serve/telemetry.hpp"
#include "testing/fixtures.hpp"

namespace mlcr::serve {
namespace {

using mlcr::testing::TinyWorld;

/// 6 primaries in two racks + 1 cold spare, correlated windows sampled from
/// the plan's stream plus one hand-placed partial window, SLO deadline on
/// one function — every §14 fault path in one fixture.
fleet::FleetConfig domain_fleet_config() {
  faults::FaultPlan plan;
  plan.startup_failure_prob = 0.2;
  plan.retry.max_attempts = 3;
  plan.domains = {{0, {0, 1, 2}}, {1, {3, 4, 5}}};
  plan.crashes.push_back({0, 2.0, 5.0, false, 0});
  plan.crashes.push_back({1, 2.0, 4.5, false, 0});
  plan.crashes.push_back({2, 2.0, 4.0, true, 0});
  plan.crashes.push_back({4, 7.0, 9.0, true, faults::kNoDomain});
  plan.function_timeouts_s.push_back({0, 30.0});

  fleet::FleetConfig cfg;
  cfg.nodes = 6;
  cfg.spare_nodes = 1;
  cfg.seed = 77;
  cfg.node_env.pool_capacity_mb = 1024.0;
  cfg.faults = plan;
  return cfg;
}

fleet::FleetEnv make_fleet(const TinyWorld& world,
                           const sim::StartupCostModel& cost) {
  return fleet::FleetEnv(world.functions, world.catalog, cost,
                         domain_fleet_config(),
                         fleet::uniform_system(
                             policies::make_greedy_match_system));
}

sim::Trace make_trace(const TinyWorld& world, std::size_t n, double step_s) {
  const sim::FunctionTypeId fns[] = {world.fn_py_flask, world.fn_py_numpy,
                                     world.fn_js, world.fn_other_os};
  std::vector<sim::Invocation> invs;
  invs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    invs.push_back(TinyWorld::inv(fns[i % 4],
                                  step_s * static_cast<double>(i), 0.4));
  return sim::Trace{std::move(invs)};
}

TEST(ServeFaults, CorrelatedReplayMatchesFleetRun) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  const sim::Trace trace = make_trace(world, 60, 0.2);

  const auto routers = fleet::standard_routers();
  for (const fleet::IndexRouterSpec& policy_spec :
       fleet::standard_index_routers()) {
    SCOPED_TRACE(policy_spec.name);
    const auto router_spec =
        std::find_if(routers.begin(), routers.end(),
                     [&](const fleet::RouterSpec& r) {
                       return r.name == policy_spec.name;
                     });
    ASSERT_NE(router_spec, routers.end());

    fleet::FleetEnv reference_fleet = make_fleet(world, cost);
    fleet::FailoverRouter router(router_spec->make());
    const fleet::FleetSummary reference = reference_fleet.run(trace, router);
    // The schedule must actually exercise the §14 paths.
    ASSERT_GE(reference.node_crashes, 4U);
    ASSERT_EQ(reference.domain_crashes, 1U);
    ASSERT_GE(reference.partial_crashes, 2U);
    ASSERT_EQ(reference.spares_activated, 1U);

    fleet::FleetEnv replay_fleet = make_fleet(world, cost);
    SimClock clock;
    ServeConfig serve_cfg;
    SchedulerService service(replay_fleet, clock, policy_spec.make(),
                             serve_cfg);
    const ServeSummary replay = service.run_replay(trace);

    // The service routes with the same policy class; its own reroute path
    // mirrors FailoverRouter. Fault accounting and every scheduling outcome
    // must agree.
    EXPECT_EQ(replay.fleet.total.invocations, reference.total.invocations);
    EXPECT_EQ(replay.fleet.total.cold_starts, reference.total.cold_starts);
    EXPECT_EQ(replay.fleet.total.warm_l1, reference.total.warm_l1);
    EXPECT_EQ(replay.fleet.total.warm_l2, reference.total.warm_l2);
    EXPECT_EQ(replay.fleet.total.warm_l3, reference.total.warm_l3);
    EXPECT_EQ(replay.fleet.total.failed, reference.total.failed);
    EXPECT_EQ(replay.fleet.total.retries, reference.total.retries);
    EXPECT_DOUBLE_EQ(replay.fleet.total.total_latency_s,
                     reference.total.total_latency_s);
    EXPECT_EQ(replay.fleet.lost, reference.lost);
    EXPECT_EQ(replay.fleet.node_crashes, reference.node_crashes);
    EXPECT_EQ(replay.fleet.node_recoveries, reference.node_recoveries);
    EXPECT_EQ(replay.fleet.domain_crashes, reference.domain_crashes);
    EXPECT_EQ(replay.fleet.partial_crashes, reference.partial_crashes);
    EXPECT_EQ(replay.fleet.spares_activated, reference.spares_activated);
    EXPECT_EQ(replay.stats.node_crashes, reference.node_crashes);
    EXPECT_EQ(replay.stats.domain_crashes, reference.domain_crashes);
    EXPECT_EQ(replay.stats.spares_activated, reference.spares_activated);
    EXPECT_EQ(replay.stats.submitted, replay.stats.routed +
                                          replay.stats.rejected +
                                          replay.stats.lost);
  }
}

TEST(ServeFaults, TwoCorrelatedReplaysAreByteIdentical) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  const sim::Trace trace = make_trace(world, 60, 0.2);

  const auto run_once = [&](std::string* trace_json, std::string* snapshots) {
    std::ostringstream trace_out;
    obs::Tracer tracer;
    tracer.add_sink(std::make_shared<obs::ChromeTraceSink>(trace_out));
    fleet::FleetEnv fleet = make_fleet(world, cost);
    SimClock clock;
    TelemetryConfig tcfg;
    tcfg.snapshot_path = ::testing::TempDir() + "fault_replay_snap.jsonl";
    tcfg.snapshot_period_s = 1.0;
    tcfg.registry_slots = 2;
    Telemetry telemetry(tcfg, &tracer);
    ServeConfig serve_cfg;
    SchedulerService service(fleet, clock,
                             std::make_unique<fleet::WarmAwareRouter>(), serve_cfg);
    service.set_telemetry(&telemetry);
    const ServeSummary summary = service.run_replay(trace);
    tracer.close();
    *trace_json = trace_out.str();
    std::ifstream in(tcfg.snapshot_path);
    std::ostringstream snap;
    snap << in.rdbuf();
    *snapshots = snap.str();
    return summary;
  };

  std::string trace_a, snap_a, trace_b, snap_b;
  const ServeSummary a = run_once(&trace_a, &snap_a);
  const ServeSummary b = run_once(&trace_b, &snap_b);
  EXPECT_EQ(a.stats.routed, b.stats.routed);
  EXPECT_EQ(a.fleet.node_crashes, b.fleet.node_crashes);
  EXPECT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_FALSE(snap_a.empty());
  EXPECT_EQ(snap_a, snap_b);
}

TEST(ServeFaults, AdminApisKeepAccountingAndAdmitSpares) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  fleet::FleetConfig cfg = domain_fleet_config();
  cfg.faults.crashes.clear();  // live chaos only: no scheduled windows
  fleet::FleetEnv fleet(world.functions, world.catalog, cost, cfg,
                        fleet::uniform_system(
                            policies::make_greedy_match_system));
  SimClock clock;
  ServeConfig serve_cfg;
  SchedulerService service(fleet, clock,
                           std::make_unique<fleet::LeastOutstandingRouter>(),
                           serve_cfg);
  service.begin_episode();
  EXPECT_EQ(fleet.routable_count(), 6U);

  // Crash a whole rack: 3 member crashes, one domain event, the single
  // spare admitted, double-crash refused.
  EXPECT_EQ(service.apply_domain_crash(0, /*partial=*/true), 3U);
  EXPECT_FALSE(service.apply_crash(0));
  EXPECT_EQ(fleet.routable_count(), 7U);
  ServeStats stats = service.stats();
  EXPECT_EQ(stats.node_crashes, 3U);
  EXPECT_EQ(stats.partial_crashes, 3U);
  EXPECT_EQ(stats.domain_crashes, 1U);
  EXPECT_EQ(stats.spares_activated, 1U);

  // Unknown domains are rejected loudly.
  EXPECT_THROW((void)service.apply_domain_crash(9), util::CheckError);

  // Recover one member; the others are still down and recover in
  // finish_episode so the summary sees a healthy fleet.
  EXPECT_TRUE(service.apply_recover(1));
  EXPECT_FALSE(service.apply_recover(1));
  stats = service.stats();
  EXPECT_EQ(stats.node_recoveries, 1U);

  const ServeSummary summary = service.finish_episode();
  EXPECT_EQ(summary.stats.node_recoveries, 3U);
  EXPECT_EQ(summary.fleet.node_crashes, 3U);
  EXPECT_EQ(summary.fleet.spares_activated, 1U);
}

TEST(ServeFaults, DomainCrashRacesDispatchWithoutCorruption) {
  TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  fleet::FleetConfig cfg = domain_fleet_config();
  cfg.faults.crashes.clear();
  fleet::FleetEnv fleet(world.functions, world.catalog, cost, cfg,
                        fleet::uniform_system(
                            policies::make_greedy_match_system));
  WallClock clock;
  ServeConfig serve_cfg;
  serve_cfg.workers = 3;
  serve_cfg.queue_capacity = 4096;
  SchedulerService service(fleet, clock,
                           std::make_unique<fleet::WarmAwareRouter>(), serve_cfg);
  service.begin_episode();
  service.start();

  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kPerProducer = 300;
  const sim::FunctionTypeId fns[] = {world.fn_py_flask, world.fn_py_numpy,
                                     world.fn_js, world.fn_other_os};
  std::atomic<bool> stop{false};
  std::atomic<bool> crashed_once{false};
  // ONE admin thread drives crash/recover cycles over both racks while the
  // workers dispatch — the documented concurrency contract of the apply_*
  // APIs. Every iteration crashes a domain (admitting the spare on the
  // first), recovers its members, and alternates partial crashes.
  std::thread admin([&] {
    std::size_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t domain = round % 2;
      (void)service.apply_domain_crash(domain, /*partial=*/(round % 3) == 0);
      crashed_once.store(true);
      std::this_thread::yield();
      for (std::size_t n = 3 * domain; n < 3 * domain + 3; ++n)
        (void)service.apply_recover(n);
      ++round;
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Submit only once the first crash is in: on a loaded machine the
      // producers could otherwise finish before the admin thread ever ran.
      while (!crashed_once.load()) std::this_thread::yield();
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        sim::Invocation inv = TinyWorld::inv(
            fns[(p + i) % 4], 0.001 * static_cast<double>(i), 0.02);
        inv.seq = p * kPerProducer + i;
        (void)service.submit(inv);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  stop.store(true);
  admin.join();
  const ServeSummary summary = service.finish_episode();

  EXPECT_EQ(summary.stats.submitted, kProducers * kPerProducer);
  EXPECT_EQ(summary.stats.submitted,
            summary.stats.routed + summary.stats.rejected +
                summary.stats.lost);
  EXPECT_GT(summary.stats.node_crashes, 0U);
  EXPECT_EQ(summary.fleet.spares_activated, 1U);
}

}  // namespace
}  // namespace mlcr::serve
