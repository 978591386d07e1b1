// Workload mlcr-node: the paper's own decision loop, closed loop. One
// ClusterEnv at the Tight pool (Loose/5, Sec. VI-A) runs the FStartBench
// overall mix of 13 functions on Poisson arrivals, and MlcrScheduler decides
// every invocation with the committed bench_overall.model. State encoding
// and DQN inference do nearly all the work; fleet and serve are idle.
#include <iostream>

#include "common.hpp"
#include "fstartbench/benchmark.hpp"
#include "fstartbench/workloads.hpp"
#include "policies/baselines.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using namespace mlcr;

/// Invocations per trace: the paper's overall workload (fig8) size.
constexpr std::size_t kTraceInvocations = 400;
/// Traces per seed; startup_mean_s averages over all of them. With 20, the
/// mean moved by 4 % (quartile spread) from seed to seed.
constexpr std::size_t kTraces = 40;
/// Seed of the reference trace that fixes the pool sizes (as fig8 does), so
/// the pool is the same for every --seed.
constexpr std::uint64_t kReferenceSeed = 1000;
/// Decisions per percentile window (about 0.3 s of decisions), the fewest a
/// p99 may rest on; timings are the fast decile over windows.
constexpr std::size_t kWindow = 1000;

struct World {
  fstartbench::Benchmark bench = fstartbench::make_benchmark();
  sim::StartupCostModel cost{bench.catalog, fstartbench::default_cost_config()};
  LoadedModel model;
  double tight_mb = 0.0;
  std::vector<sim::Trace> traces;
  std::unique_ptr<sim::ClusterEnv> env;
  std::unique_ptr<core::MlcrScheduler> mlcr;
};

std::unique_ptr<World> build_world(std::uint64_t seed) {
  auto w = std::make_unique<World>();
  w->model = load_model("bench_overall.model");
  util::Rng ref_rng(kReferenceSeed);
  const sim::Trace reference =
      fstartbench::make_overall_workload(w->bench, kTraceInvocations, ref_rng);
  w->tight_mb = fstartbench::paper_pool_sizes(
                    fstartbench::estimate_loose_capacity_mb(w->bench,
                                                            reference))
                    .tight_mb;
  // The reference trace also fixes the mix: every seed draws kTraces
  // fresh traces of its per-function rates.
  util::Rng rng(seed);
  for (std::size_t i = 0; i < kTraces; ++i)
    w->traces.push_back(
        overall_traffic(w->bench, reference, kTraceInvocations, rng));
  sim::EnvConfig cfg;
  cfg.pool_capacity_mb = w->tight_mb;
  const policies::SystemSpec spec =
      core::make_mlcr_system(w->model.agent, w->model.config.encoder);
  w->env = std::make_unique<sim::ClusterEnv>(w->bench.functions,
                                             w->bench.catalog, w->cost, cfg,
                                             spec.eviction_factory);
  w->mlcr = std::make_unique<core::MlcrScheduler>(
      w->model.agent, core::StateEncoder(w->model.config.encoder));
  // Pre-warm: one untimed episode, so first-touch allocation and cold
  // caches land in set-up rather than in the measurement.
  w->env->reset(w->traces.front());
  w->mlcr->on_episode_start(*w->env);
  while (!w->env->done())
    (void)w->env->step(w->mlcr->decide(*w->env, w->env->current()));
  return w;
}

bool same_action(const sim::Action& a, const sim::Action& b) {
  return a.kind == b.kind &&
         (a.kind == sim::Action::Kind::kColdStart || a.container == b.container);
}

/// Simulated outcome of the first pass over every trace, and the checks
/// that later passes reproduce it.
struct Outcomes {
  std::vector<policies::EpisodeSummary> first;
  std::vector<double> latencies_s;  ///< every invocation of the first pass

  void observe(std::size_t trace, const sim::ClusterEnv& env,
               Result& result) {
    const policies::EpisodeSummary s = policies::summarize_env(env, "MLCR");
    if (first.size() == trace) {
      first.push_back(s);
      const std::vector<double> l = env.metrics().latencies();
      latencies_s.insert(latencies_s.end(), l.begin(), l.end());
    } else {
      result.check(same_outcome(first[trace], s),
                   "mlcr-node: repeat of trace " + std::to_string(trace) +
                       " changed its simulated outcome");
    }
  }
  [[nodiscard]] policies::EpisodeSummary total() const {
    policies::EpisodeSummary t;
    for (const auto& s : first) {
      t.invocations += s.invocations;
      t.total_latency_s += s.total_latency_s;
      t.cold_starts += s.cold_starts;
      t.warm_l1 += s.warm_l1;
      t.warm_l2 += s.warm_l2;
      t.warm_l3 += s.warm_l3;
      t.evictions += s.evictions;
      t.failed += s.failed;
    }
    return t;
  }
};

}  // namespace

void run_mlcr_node(const Options& opts, Result& result) {
  std::unique_ptr<World> w;
  const double setup_s = timed_setup<std::unique_ptr<World>>(
      5, [&] { return build_world(opts.seed); }, w);
  std::cout << "model: " << w->model.path << " bytes=" << w->model.bytes
            << " fnv1a64=" << w->model.fnv1a64 << "\n"
            << "mlcr-node: Tight pool " << w->tight_mb << " MB, " << kTraces
            << " traces x ~" << kTraceInvocations << " invocations\n";

  sim::ClusterEnv& env = *w->env;
  Outcomes outcomes;
  std::size_t invocations = 0;
  std::size_t failed = 0;
  const auto finish_episode = [&](std::size_t t) {
    outcomes.observe(t, env, result);
    invocations += env.metrics().invocation_count();
    failed += env.metrics().failed_count();
  };

  // Untraced episode: decide + step per invocation, decide timed on its own
  // and the whole cycle (decide + step) too.
  std::vector<double> decide_us;
  std::vector<double> cycle_us;
  decide_us.reserve(1 << 20);
  cycle_us.reserve(1 << 20);
  // Wall seconds of every untraced episode, per trace.
  std::vector<std::vector<double>> episode_wall_s(kTraces);
  const auto untraced_episode = [&](std::size_t t) {
    const std::int64_t e0 = now_ns();
    env.reset(w->traces[t]);
    w->mlcr->on_episode_start(env);
    while (!env.done()) {
      const std::int64_t t0 = now_ns();
      const sim::Action a = w->mlcr->decide(env, env.current());
      const std::int64_t t1 = now_ns();
      (void)env.step(a);
      const std::int64_t t2 = now_ns();
      decide_us.push_back(ns_to_us(t1 - t0));
      cycle_us.push_back(ns_to_us(t2 - t0));
    }
    episode_wall_s[t].push_back(static_cast<double>(now_ns() - e0) / 1e9);
    finish_episode(t);
  };

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  // The first pass over every trace is untraced: it sets each trace's
  // reference outcome.
  for (std::size_t t = 0; t < kTraces; ++t) untraced_episode(t);

  if (!opts.trace) {
    for (std::size_t ep = kTraces; now_ns() < deadline; ++ep)
      untraced_episode(ep % kTraces);
    const auto d =
        fast_window_percentiles(decide_us, kWindow, {50.0, 99.0}, "decision_us");
    const auto c =
        fast_window_percentiles(cycle_us, kWindow, {50.0, 99.0}, "cycle_us");
    const policies::EpisodeSummary t = outcomes.total();
    // One pass over all traces, each at its fast episodes' wall time.
    double pass_s = 0.0;
    for (const std::vector<double>& walls : episode_wall_s)
      pass_s += fast_decile(walls);
    result.add("setup_s", setup_s, "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("sim_inv_per_s", static_cast<double>(t.invocations) / pass_s,
               "1/s");
    result.add("decision_p50_us", d[0], "us");
    result.add("decision_p99_us", d[1], "us");
    result.add("startup_mean_s",
               t.total_latency_s / static_cast<double>(t.invocations), "s");
    result.add("serve_capacity_rps", 1e6 / c[0], "1/s");
    result.add("serve_wait_p50_us", c[0], "us");
    result.add("serve_wait_p99_us", c[1], "us");
    result.add("served_ratio",
               1.0 - static_cast<double>(failed) / static_cast<double>(invocations),
               "fraction");
    result.attempted = invocations;
    result.failed = failed;
    return;
  }

  // Traced run: untraced and traced episodes alternate (so drift of a
  // shared machine hits both alike), the traced ones running the split path
  // encode -> greedy_action -> to_sim_action -> step under spans. Outside
  // the spans, every traced step also asks MlcrScheduler::decide (a second
  // instance, so its prev-arrival state is its own) and Greedy-Match on the
  // same state: the split path must equal decide, and agreement with
  // Greedy-Match is counted. Traced episodes step the split path's actions,
  // so their outcomes must equal the untraced reference bit for bit.
  SpanLog spans(1 << 20);
  const auto n_inv = spans.name_id("invocation");
  const auto n_encode = spans.name_id("core.encode");
  const auto n_infer = spans.name_id("rl.infer");
  const auto n_map = spans.name_id("core.map");
  const auto n_step = spans.name_id("sim.step");
  const core::StateEncoder& encoder = w->mlcr->encoder();
  rl::DqnAgent& agent = *w->model.agent;
  core::MlcrScheduler checker(w->model.agent,
                              core::StateEncoder(w->model.config.encoder));
  policies::GreedyMatchScheduler greedy;
  std::vector<double> greedy_us;
  std::vector<double> root_wall;  // per-invocation wall of the traced path
  greedy_us.reserve(1 << 19);
  root_wall.reserve(1 << 19);
  std::size_t decisions = 0;
  std::size_t agree = 0;
  std::size_t mismatches = 0;
  const auto traced_episode = [&](std::size_t t) {
    env.reset(w->traces[t]);
    checker.on_episode_start(env);
    bool has_prev = false;
    double prev = 0.0;
    while (!env.done()) {
      const sim::Invocation& inv = env.current();
      const sim::Action by_decide = checker.decide(env, inv);
      const std::int64_t g0 = now_ns();
      const sim::Action by_greedy = greedy.decide(env, inv);
      greedy_us.push_back(ns_to_us(now_ns() - g0));

      const std::uint64_t seq = inv.seq;
      const std::int64_t t0 = now_ns();
      const core::EncodedState state =
          encoder.encode(env, inv, has_prev ? prev : inv.arrival_s);
      const std::int64_t t1 = now_ns();
      const std::size_t action = agent.greedy_action(state.tokens, state.mask);
      const std::int64_t t2 = now_ns();
      const sim::Action split = encoder.to_sim_action(state, action);
      const std::int64_t t3 = now_ns();
      prev = inv.arrival_s;
      has_prev = true;
      (void)env.step(split);
      const std::int64_t t4 = now_ns();
      const SpanLog::Id root = spans.add(n_inv, seq, SpanLog::kNoParent, t0, t4);
      spans.add(n_encode, seq, root, t0, t1);
      spans.add(n_infer, seq, root, t1, t2);
      spans.add(n_map, seq, root, t2, t3);
      spans.add(n_step, seq, root, t3, t4);
      root_wall.push_back(ns_to_us(now_ns() - t0));

      ++decisions;
      if (!same_action(split, by_decide)) ++mismatches;
      if (same_action(split, by_greedy)) ++agree;
    }
    finish_episode(t);
  };
  const std::size_t untraced_cycles = cycle_us.size();
  for (std::size_t ep = 0; ep < 2 || now_ns() < deadline; ep += 2) {
    untraced_episode(ep / 2 % kTraces);
    traced_episode(ep / 2 % kTraces);
  }
  result.check(mismatches == 0,
               "mlcr-node: split encode->infer->map path disagreed with "
               "MlcrScheduler::decide on " + std::to_string(mismatches) +
                   " of " + std::to_string(decisions) + " steps");

  const auto infer = percentiles(spans.self_times_us("rl.infer"), {50.0, 99.0},
                                 "rl.infer_us");
  double stage_total = 0.0;
  for (const char* s : {"core.encode", "rl.infer", "core.map", "sim.step"})
    stage_total += spans.total_us(s);
  const std::vector<double> interleaved_cycles(
      cycle_us.begin() + static_cast<long>(untraced_cycles), cycle_us.end());

  result.add("core.encode_us",
             percentiles(spans.self_times_us("core.encode"), {50.0},
                         "core.encode_us")[0],
             "us");
  result.add("core.greedy_agreement",
             static_cast<double>(agree) / static_cast<double>(decisions),
             "fraction");
  result.add("rl.infer_us_p50", infer[0], "us");
  result.add("rl.infer_us_p99", infer[1], "us");
  result.add("sim.step_us",
             percentiles(spans.self_times_us("sim.step"), {50.0}, "sim.step_us")[0],
             "us");
  add_sim_layer(result, outcomes.total(), outcomes.latencies_s);
  result.add("policies.decide_us",
             percentiles(greedy_us, {50.0}, "policies.decide_us")[0], "us");
  // Traced wall (the span path plus recording its spans) over the untraced
  // cycle of the interleaved episodes.
  result.add("trace.overhead_ratio",
             median(root_wall) / median(interleaved_cycles), "ratio");
  result.add("trace.stage_coverage", stage_total / spans.total_us("invocation"),
             "fraction");
  zero_idle_layers(result, opts.declared, {"fleet."});
  result.attempted = invocations;
  result.failed = failed;

  std::cout << "mlcr-node: greedy agreement " << agree << "/" << decisions
            << "\n";
  if (!spans.write_csv(span_path(opts)))
    result.fail("cannot write " + span_path(opts));

  // The serving plane and batched inference, on the same traffic mix.
  add_serve_layer(opts, result);
  add_batching_layer(opts, result);
}

}  // namespace perfbench
