// serve::Telemetry under deterministic replay: two identical SimClock
// episodes must produce byte-identical Chrome traces AND byte-identical
// flight-recorder snapshot JSONL (the DESIGN.md §6 determinism contract
// extended to the telemetry plane), every accepted request's flow must pair
// start-to-end, the merged registry must agree with the service's own
// accounting, and a tight SLO config must surface breaches both online
// (breach_count) and in the recorded snapshots.
#include "serve/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet_env.hpp"
#include "obs/schema_check.hpp"
#include "obs/sink.hpp"
#include "obs/tracer.hpp"
#include "policies/baselines.hpp"
#include "serve/service.hpp"
#include "testing/fixtures.hpp"

namespace mlcr::serve {
namespace {

using mlcr::testing::TinyWorld;

fleet::FleetEnv make_fleet(const TinyWorld& world,
                           const sim::StartupCostModel& cost,
                           std::size_t nodes) {
  fleet::FleetConfig cfg;
  cfg.nodes = nodes;
  cfg.node_env.pool_capacity_mb = 2048.0;
  return fleet::FleetEnv(world.functions, world.catalog, cost, cfg,
                         fleet::uniform_system(
                             policies::make_greedy_match_system));
}

sim::Trace make_trace(const TinyWorld& world, std::size_t n) {
  const sim::FunctionTypeId fns[] = {world.fn_py_flask, world.fn_py_numpy,
                                     world.fn_js, world.fn_other_os};
  std::vector<sim::Invocation> invs;
  invs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    invs.push_back(TinyWorld::inv(fns[i % 4], 0.25 * static_cast<double>(i),
                                  0.4));
  return sim::Trace{std::move(invs)};
}

struct ReplayArtifacts {
  ServeSummary summary;
  std::string trace_json;
  std::string snapshots;
  obs::MetricsRegistry metrics;
  std::uint64_t breaches = 0;
  std::uint64_t snapshot_count = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One full traced replay episode over a fresh fleet/service/telemetry.
ReplayArtifacts run_traced_replay(const TinyWorld& world,
                                  const sim::StartupCostModel& cost,
                                  const sim::Trace& trace,
                                  const std::string& snapshot_path,
                                  const obs::SloConfig& slo = {}) {
  fleet::FleetEnv fleet = make_fleet(world, cost, 4);
  SimClock clock;
  std::ostringstream trace_out;
  obs::Tracer tracer;
  tracer.add_sink(std::make_shared<obs::ChromeTraceSink>(trace_out));

  TelemetryConfig tcfg;
  tcfg.slo = slo;
  tcfg.snapshot_period_s = 1.0;
  tcfg.snapshot_path = snapshot_path;
  tcfg.registry_slots = 2;
  Telemetry telemetry(tcfg, &tracer);

  ServeConfig serve_cfg;
  serve_cfg.workers = 2;
  SchedulerService service(fleet, clock,
                           std::make_unique<fleet::LeastOutstandingRouter>(),
                           serve_cfg);
  service.set_telemetry(&telemetry);

  ReplayArtifacts art;
  art.summary = service.run_replay(trace);
  tracer.close();
  art.trace_json = trace_out.str();
  art.metrics = telemetry.metrics();
  art.breaches = telemetry.breach_count();
  art.snapshot_count = telemetry.snapshot_count();
  art.snapshots = slurp(snapshot_path);
  return art;
}

std::uint64_t counter_or_zero(const obs::MetricsRegistry& metrics,
                              const std::string& name) {
  const auto it = metrics.counters().find(name);
  return it == metrics.counters().end() ? 0 : it->second.value();
}

TEST(ServeTelemetry, TwoReplayRunsAreByteIdentical) {
  const TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  const sim::Trace trace = make_trace(world, 64);

  const std::string dir = ::testing::TempDir();
  const ReplayArtifacts a =
      run_traced_replay(world, cost, trace, dir + "telemetry_run_a.jsonl");
  const ReplayArtifacts b =
      run_traced_replay(world, cost, trace, dir + "telemetry_run_b.jsonl");

  ASSERT_FALSE(a.trace_json.empty());
  ASSERT_FALSE(a.snapshots.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.snapshots, b.snapshots);
  EXPECT_EQ(a.snapshot_count, b.snapshot_count);
  EXPECT_GT(a.snapshot_count, 0U);

  const auto problems = obs::check_snapshot_jsonl(a.snapshots);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems[0]);
}

TEST(ServeTelemetry, EveryAcceptedRequestsFlowPairsStartToEnd) {
  const TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  const sim::Trace trace = make_trace(world, 48);
  const ReplayArtifacts art = run_traced_replay(
      world, cost, trace, ::testing::TempDir() + "telemetry_flows.jsonl");

  const auto report = obs::check_trace_json(art.trace_json);
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.flows_ok())
      << (report.flow_errors.empty() ? "" : report.flow_errors[0]);

  // Replay rejects nothing, so every submit starts a flow — and every flow
  // ends, on the dispatching node's track or on the lost track.
  const ServeStats& stats = art.summary.stats;
  EXPECT_EQ(stats.rejected, 0U);
  EXPECT_EQ(report.flow_start_counts.at("request"), stats.submitted);
  EXPECT_EQ(report.flow_end_counts.at("request"),
            stats.routed + stats.lost);
}

TEST(ServeTelemetry, RegistryCountersMatchTheServiceAccounting) {
  const TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  const sim::Trace trace = make_trace(world, 48);
  const ReplayArtifacts art = run_traced_replay(
      world, cost, trace, ::testing::TempDir() + "telemetry_counters.jsonl");

  const ServeStats& stats = art.summary.stats;
  EXPECT_EQ(counter_or_zero(art.metrics, "serve.submitted"),
            stats.submitted);
  EXPECT_EQ(counter_or_zero(art.metrics, "serve.routed"), stats.routed);
  EXPECT_EQ(counter_or_zero(art.metrics, "serve.rejected"), stats.rejected);
  EXPECT_EQ(counter_or_zero(art.metrics, "serve.lost"), stats.lost);
  EXPECT_EQ(counter_or_zero(art.metrics, "serve.rerouted"), stats.rerouted);
  EXPECT_EQ(counter_or_zero(art.metrics, "serve.cold_starts"),
            art.summary.fleet.total.cold_starts);
  EXPECT_DOUBLE_EQ(art.metrics.gauges().at("serve.nodes").value(), 4.0);
  EXPECT_DOUBLE_EQ(art.metrics.gauges().at("serve.workers").value(), 2.0);
  EXPECT_EQ(art.metrics.histograms().at("serve.e2e_latency_s").count(),
            stats.routed);
  // Nothing breaches under the default (fully permissive) SLO config.
  EXPECT_EQ(art.breaches, 0U);
}

TEST(ServeTelemetry, TightSloConfigRecordsBreachesInSnapshots) {
  const TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  const sim::Trace trace = make_trace(world, 48);
  obs::SloConfig slo;
  slo.max_e2e_p99_s = 1e-9;  // every dispatch breaches
  const ReplayArtifacts art = run_traced_replay(
      world, cost, trace, ::testing::TempDir() + "telemetry_breach.jsonl",
      slo);

  EXPECT_GT(art.breaches, 0U);
  EXPECT_EQ(counter_or_zero(art.metrics, "serve.slo_breach"), art.breaches);
  EXPECT_NE(art.snapshots.find("e2e_p99_s"), std::string::npos);
  // Breach-bearing snapshots still satisfy the schema.
  EXPECT_TRUE(obs::check_snapshot_jsonl(art.snapshots).empty());
}

TEST(ServeTelemetry, MetricsOnlyModeNeedsNoTracerOrRecorder) {
  const TinyWorld world;
  const sim::StartupCostModel cost = world.cost_model();
  fleet::FleetEnv fleet = make_fleet(world, cost, 2);
  SimClock clock;
  Telemetry telemetry;  // no tracer, no snapshot path
  SchedulerService service(fleet, clock,
                           std::make_unique<fleet::RoundRobinRouter>(),
                           ServeConfig{});
  service.set_telemetry(&telemetry);
  const ServeSummary summary = service.run_replay(make_trace(world, 16));
  EXPECT_EQ(counter_or_zero(telemetry.metrics(), "serve.submitted"),
            summary.stats.submitted);
  EXPECT_EQ(telemetry.snapshot_count(), 0U);
}

}  // namespace
}  // namespace mlcr::serve
