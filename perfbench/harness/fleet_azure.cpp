// Workload fleet-azure: FleetEnv::run over 64 Greedy-Match nodes with the
// Warm-Aware router, on an Azure-like long-tail population of 2000 function
// types. The per-node pool is sized so the working set overflows warm
// memory: cold starts, all three reuse levels and evictions all occur. No
// DQN runs here; the event core, the warm side of FleetIndex, the
// Warm-Aware scan, pool eviction and Table-I matching do the work.
#include <algorithm>
#include <iostream>

#include "fleet/fleet_env.hpp"
#include "fstartbench/azure_like.hpp"
#include "policies/baselines.hpp"
#include "stats.hpp"
#include "timed.hpp"

namespace perfbench {

namespace {

using namespace mlcr;

constexpr std::size_t kNodes = 64;
constexpr std::size_t kFunctions = 2000;
constexpr double kPoolMbPerNode = 600.0;
/// The function population (images, package catalog, per-function counts)
/// is one fixed deployment; --seed draws the traffic over it. A population
/// per seed would let the heavy tail's few hot functions swing the
/// simulated startup mean by several percent from seed to seed.
constexpr std::uint64_t kPopulationSeed = 7;

/// The seed's traffic over the fixed population: every function keeps its
/// invocation count, arrivals are uniform over the window (a Poisson
/// process conditioned on the count) and execution times are drawn as the
/// Azure-like generator draws them.
sim::Trace seeded_traffic(const fstartbench::AzureLikeWorkload& azure,
                          const fstartbench::AzureLikeConfig& cfg,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<sim::Invocation> out;
  for (std::size_t f = 0; f < azure.invocations_per_function.size(); ++f) {
    const auto id = static_cast<sim::FunctionTypeId>(f);
    const sim::FunctionType& fn = azure.functions.get(id);
    for (std::size_t k = 0; k < azure.invocations_per_function[f]; ++k) {
      sim::Invocation inv;
      inv.function = id;
      inv.arrival_s = rng.uniform(0.0, cfg.window_s);
      inv.exec_s = std::max(0.05 * fn.mean_exec_s,
                            rng.normal(fn.mean_exec_s,
                                       fn.exec_cv * fn.mean_exec_s));
      out.push_back(inv);
    }
  }
  return sim::Trace(std::move(out));
}

struct World {
  fstartbench::AzureLikeWorkload azure;
  std::unique_ptr<sim::StartupCostModel> cost;
  StampTable stamps;
  std::unique_ptr<fleet::FleetEnv> fleet;
  std::unique_ptr<TimedRouter> router;
  fleet::FleetSummary reference;  ///< the pre-warm run's outcome
};

std::unique_ptr<World> build_world(std::uint64_t seed, bool time_step) {
  auto w = std::make_unique<World>();
  fstartbench::AzureLikeConfig cfg;
  cfg.num_functions = kFunctions;
  w->azure =
      fstartbench::make_azure_like_workload(cfg, util::Rng(kPopulationSeed));
  w->azure.trace = seeded_traffic(w->azure, cfg, seed);
  w->cost = std::make_unique<sim::StartupCostModel>(w->azure.catalog);
  w->stamps.assign(w->azure.trace.size(), Stamps{});
  fleet::FleetConfig fc;
  fc.nodes = kNodes;
  fc.node_env.pool_capacity_mb = kPoolMbPerNode;
  World* raw = w.get();
  w->fleet = std::make_unique<fleet::FleetEnv>(
      w->azure.functions, w->azure.catalog, *w->cost, fc,
      [raw, time_step](std::size_t, util::Rng) {
        policies::SystemSpec spec = policies::make_greedy_match_system();
        auto timed = std::make_unique<TimedScheduler>(
            std::move(spec.scheduler), raw->stamps, time_step);
        spec.scheduler = std::move(timed);
        return spec;
      });
  w->router = std::make_unique<TimedRouter>(
      std::make_unique<fleet::WarmAwareRouter>(), w->stamps);
  // Pre-warm: one untimed run; its outcome is the reference every measured
  // run must reproduce.
  w->reference = w->fleet->run(w->azure.trace, *w->router);
  return w;
}

bool same_fleet_outcome(const fleet::FleetSummary& a,
                        const fleet::FleetSummary& b) {
  if (!same_outcome(a.total, b.total) || a.per_node.size() != b.per_node.size() ||
      a.routing_imbalance != b.routing_imbalance || a.lost != b.lost)
    return false;
  for (std::size_t i = 0; i < a.per_node.size(); ++i)
    if (!same_outcome(a.per_node[i], b.per_node[i])) return false;
  return true;
}

/// Conservation and validity of one run's outcome.
void check_run(const World& w, const fleet::FleetSummary& s, Result& result) {
  std::size_t routed = 0;
  for (const auto& node : s.per_node) routed += node.invocations;
  result.check(routed == w.azure.trace.size() && s.lost == 0,
               "fleet-azure: nodes served " + std::to_string(routed) +
                   " invocations of a trace of " +
                   std::to_string(w.azure.trace.size()));
  result.check(same_fleet_outcome(w.reference, s),
               "fleet-azure: a repeated run changed the simulated outcome");
}

}  // namespace

void run_fleet_azure(const Options& opts, Result& result) {
  std::unique_ptr<World> w;
  const double setup_s = timed_setup<std::unique_ptr<World>>(
      5, [&] { return build_world(opts.seed, opts.trace); }, w);
  const std::size_t n = w->azure.trace.size();
  const policies::EpisodeSummary& ref = w->reference.total;
  const double inv = static_cast<double>(ref.invocations);
  const double cold_ratio = static_cast<double>(ref.cold_starts) / inv;
  std::cout << "fleet-azure: " << kFunctions << " function types, " << n
            << " invocations, " << kNodes << " nodes x " << kPoolMbPerNode
            << " MB; cold " << ref.cold_starts << ", L1/L2/L3 " << ref.warm_l1
            << "/" << ref.warm_l2 << "/" << ref.warm_l3 << ", evictions "
            << ref.evictions << "\n";
  // Validity guard: a pool so small that every start is cold (or so large
  // that nothing is) would measure a degenerate fleet.
  result.check(cold_ratio > 0.0 && cold_ratio < 1.0,
               "fleet-azure: cold-start ratio " + std::to_string(cold_ratio) +
                   " is not strictly between 0 and 1");
  result.check(ref.warm_l1 > 0 && ref.warm_l2 > 0 && ref.warm_l3 > 0,
               "fleet-azure: some reuse level (L1/L2/L3) never occurred");

  // One measured run: FleetEnv::run, wall-timed, outcome checked.
  const auto one_run = [&]() -> double {
    std::fill(w->stamps.begin(), w->stamps.end(), Stamps{});
    const std::int64_t t0 = now_ns();
    const fleet::FleetSummary s = w->fleet->run(w->azure.trace, *w->router);
    const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    check_run(*w, s, result);
    return wall_s;
  };
  const std::int64_t budget_ns = static_cast<std::int64_t>(opts.seconds * 1e9);

  if (!opts.trace) {
    // Per run: throughput, and p50/p99 of the per-invocation decision
    // (route + decide) and cycle (route start to the next route start).
    // Reported from the fast runs (fast_decile over runs): every run
    // simulates the same trace to the same outcome, so runs differ only in
    // how much other tenants of the machine slowed them.
    std::vector<double> walls, d50, d99, c50, c99;
    std::vector<double> decision(n), cycle(n - 1);
    const std::int64_t deadline = now_ns() + budget_ns;
    std::size_t runs = 0;
    while (runs < 3 || now_ns() < deadline) {
      const double wall_s = one_run();
      ++runs;
      for (std::size_t i = 0; i < n; ++i) {
        const Stamps& s = w->stamps[i];
        decision[i] = ns_to_us(s.route_ns + (s.decide_end - s.decide_start));
        if (i + 1 < n)
          cycle[i] = ns_to_us(w->stamps[i + 1].route_start - s.route_start);
      }
      const auto d = percentiles(decision, {50.0, 99.0}, "decision_us");
      const auto c = percentiles(cycle, {50.0, 99.0}, "cycle_us");
      walls.push_back(wall_s);
      d50.push_back(d[0]);
      d99.push_back(d[1]);
      c50.push_back(c[0]);
      c99.push_back(c[1]);
    }
    result.add("setup_s", setup_s, "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("sim_inv_per_s", static_cast<double>(n) / fast_decile(walls),
               "1/s");
    result.add("decision_p50_us", fast_decile(d50), "us");
    result.add("decision_p99_us", fast_decile(d99), "us");
    result.add("startup_mean_s", ref.total_latency_s / inv, "s");
    result.add("serve_capacity_rps", 1e6 / fast_decile(c50), "1/s");
    result.add("serve_wait_p50_us", fast_decile(c50), "us");
    result.add("serve_wait_p99_us", fast_decile(c99), "us");
    result.add("served_ratio",
               1.0 - static_cast<double>(ref.failed + w->reference.lost) / inv,
               "fraction");
    result.attempted = runs * n;
    result.failed = runs * (ref.failed + w->reference.lost);
    std::cout << "fleet-azure: " << runs << " runs\n";
    return;
  }

  // Traced run: untraced and traced runs alternate (so drift of a shared
  // machine hits both alike) until the budget is spent. A traced run turns
  // its stamps into spans: per invocation a root span from its route() to
  // the next invocation's route(), with children fleet.route,
  // policies.decide and sim.step; the root's self time is the event core's
  // share. The first two traced runs' spans are kept and written out.
  SpanLog spans(8 * n + 16);
  SpanLog discard(4 * n + 16);
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  const std::int64_t deadline = now_ns() + budget_ns;
  while (traced_wall.size() < 2 || now_ns() < deadline) {
    untraced_wall.push_back(one_run());
    SpanLog& log = traced_wall.size() < 2 ? spans : discard;
    discard.clear();
    const auto n_inv = log.name_id("invocation");
    const auto n_route = log.name_id("fleet.route");
    const auto n_decide = log.name_id("policies.decide");
    const auto n_step = log.name_id("sim.step");
    std::fill(w->stamps.begin(), w->stamps.end(), Stamps{});
    const std::int64_t t0 = now_ns();
    const fleet::FleetSummary s = w->fleet->run(w->azure.trace, *w->router);
    const std::int64_t end = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const Stamps& st = w->stamps[i];
      const std::int64_t next = i + 1 < n ? w->stamps[i + 1].route_start : end;
      const SpanLog::Id root =
          log.add(n_inv, i, SpanLog::kNoParent, st.route_start, next);
      log.add(n_route, i, root, st.route_start, st.route_start + st.route_ns);
      log.add(n_decide, i, root, st.decide_start, st.decide_end);
      log.add(n_step, i, root, st.decide_end, st.step_end);
    }
    traced_wall.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    check_run(*w, s, result);
  }

  const fleet::FleetSummary& s = w->reference;
  result.add("sim.step_us",
             percentiles(spans.self_times_us("sim.step"), {50.0}, "sim.step_us")[0],
             "us");
  add_sim_layer(result, ref, s.merged.latencies());
  result.add("policies.decide_us",
             percentiles(spans.self_times_us("policies.decide"), {50.0},
                         "policies.decide_us")[0],
             "us");
  result.add("fleet.route_us",
             percentiles(spans.self_times_us("fleet.route"), {50.0},
                         "fleet.route_us")[0],
             "us");
  result.add("fleet.event_core_us",
             percentiles(spans.self_times_us("invocation"), {50.0},
                         "fleet.event_core_us")[0],
             "us");
  result.add("fleet.routing_imbalance", s.routing_imbalance, "ratio");
  double stages = 0.0;
  for (const char* name : {"fleet.route", "policies.decide", "sim.step"})
    stages += spans.total_us(name);
  result.add("trace.overhead_ratio", median(traced_wall) / median(untraced_wall),
             "ratio");
  result.add("trace.stage_coverage", stages / spans.total_us("invocation"),
             "fraction");
  zero_idle_layers(result, opts.declared, {"core.", "rl.", "serve."});
  result.attempted = (untraced_wall.size() + traced_wall.size()) * n;
  result.failed = 0;
  if (!spans.write_csv(span_path(opts)))
    result.fail("cannot write " + span_path(opts));
}

}  // namespace perfbench
