// Shared plumbing of the benchmark workloads: run options, the steady
// clock, set-up timing, peak memory, span recording for traced runs, and
// read-only loading of the committed MLCR model.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/mlcr.hpp"
#include "fstartbench/benchmark.hpp"
#include "policies/runner.hpp"
#include "result.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The metrics this mode must print, from BENCHMARK.json.
  std::vector<MetricSpec> declared;
};

/// Steady-clock nanoseconds since an arbitrary epoch.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ns_to_us(std::int64_t ns) {
  return static_cast<double>(ns) / 1e3;
}

/// Peak resident set size of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Run `build` `repeats` times, timing each, and return the median wall
/// seconds. The last build's product is what the workload measures; earlier
/// ones are discarded. setup_s is this median plus nothing else: process
/// start-up before main() is a few milliseconds and the same every run.
template <typename T>
double timed_setup(std::size_t repeats, const std::function<T()>& build,
                   T& out);

/// Spans of a traced run, kept in memory and written once at exit. A span
/// names the layer call it times, the request (invocation seq) it belongs
/// to, and its parent span; self time = duration - children's durations.
class SpanLog {
 public:
  using Id = std::int32_t;
  static constexpr Id kNoParent = -1;

  explicit SpanLog(std::size_t reserve = 0) { spans_.reserve(reserve); }

  /// Intern a layer name; call before recording.
  [[nodiscard]] std::uint16_t name_id(const std::string& name);

  Id add(std::uint16_t name, std::uint64_t seq, Id parent,
         std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Drop the spans (names stay interned; capacity is kept).
  void clear() noexcept { spans_.clear(); }

  /// Self time (us) of every span named `name`.
  [[nodiscard]] std::vector<double> self_times_us(
      const std::string& name) const;

  /// Sum over spans named `name` of their duration (us).
  [[nodiscard]] double total_us(const std::string& name) const;

  /// Write every span as CSV (seq,name,parent,start_ns,end_ns) to `path`,
  /// creating its directory. Returns false on I/O failure.
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t seq;
    Id parent;
    std::uint16_t name;
  };
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// The committed model the MLCR workloads run, loaded read-only.
struct LoadedModel {
  std::shared_ptr<mlcr::rl::DqnAgent> agent;
  mlcr::core::MlcrConfig config;
  std::string path;
  std::uintmax_t bytes = 0;
  std::string fnv1a64;  ///< hex digest of the file's bytes
};

/// Load `path` through DqnAgent::load with the default MLCR configuration.
/// Never trains and never writes: a missing or incompatible file throws
/// std::runtime_error naming the file.
[[nodiscard]] LoadedModel load_model(const std::string& path);

/// Exact equality of every simulated field of two episode summaries (the
/// determinism check: repeats and traced runs must reproduce them bit for
/// bit).
[[nodiscard]] bool same_outcome(const mlcr::policies::EpisodeSummary& a,
                                const mlcr::policies::EpisodeSummary& b);

/// Traffic of the FStartBench overall mix: every function of `mix` keeps
/// its Poisson rate (estimated from `mix`), and `rng` draws fresh arrivals
/// and execution times over a horizon holding ~`total` invocations. The mix
/// (which functions, at what rates) is the fixed deployment; the seed only
/// draws the traffic, so the simulated startup mean does not swing with
/// the per-function rates that make_overall_workload draws per trace.
[[nodiscard]] mlcr::sim::Trace overall_traffic(
    const mlcr::fstartbench::Benchmark& bench, const mlcr::sim::Trace& mix,
    std::size_t total, mlcr::util::Rng& rng);

/// The simulated-outcome layer metrics (sim.cold_start_ratio, the three
/// reuse ratios, sim.evictions_per_kinv, sim.startup_p50_s/p99_s) of an
/// episode total and its served startup latencies.
void add_sim_layer(Result& result, const mlcr::policies::EpisodeSummary& total,
                   std::vector<double> startup_latencies_s);

/// Path of the span file a traced run writes, inside the build tree;
/// `part` tells apart the files of one run.
[[nodiscard]] std::string span_path(const Options& opts,
                                    const std::string& part = "");

// Workload entry points. Each measures for opts.seconds, runs its checks,
// and fills every metric of its mode (untraced: end-to-end, traced:
// per-layer) into the result.
void run_mlcr_node(const Options& opts, Result& result);
void run_fleet_azure(const Options& opts, Result& result);

/// Layers measured only in mlcr-node's traced run (serve.cpp): the live
/// serving plane over a Greedy-Match fleet (the serve.* metrics), and
/// batched inference over an MLCR fleet (rl.requests_per_inference,
/// rl.max_wave). Each builds its own fleet and service.
void add_serve_layer(const Options& opts, Result& result);
void add_batching_layer(const Options& opts, Result& result);

/// Per-layer metrics of layers a workload never calls report 0 ("this layer
/// did no work here"): adds 0 for every declared metric whose name starts
/// with one of `idle_layers` (e.g. "rl.") and that the run did not measure.
void zero_idle_layers(Result& result, const std::vector<MetricSpec>& declared,
                      const std::vector<std::string>& idle_layers);

// ---------------------------------------------------------------------------

template <typename T>
double timed_setup(std::size_t repeats, const std::function<T()>& build,
                   T& out) {
  std::vector<double> walls;
  for (std::size_t i = 0; i < repeats; ++i) {
    const std::int64_t t0 = now_ns();
    out = build();
    walls.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::sort(walls.begin(), walls.end());
  return walls[(walls.size() - 1) / 2];
}

}  // namespace perfbench
