// Measurement helpers of the layered benchmark: percentile reporting with a
// sample-support rule, open-loop lateness accounting, and the capacity
// search. Pure functions over plain numbers, so perfbench_selftest pins them
// without running a workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a nearest-rank percentile needs beyond its rank before the
/// benchmark reports it: p99 needs >= 1000 samples, p50 >= 20.
inline constexpr std::size_t kTailSupport = 10;

/// Rank (1-based) of the nearest-rank percentile p of n samples:
/// ceil(p/100 * n), clamped to [1, n]. Requires n > 0.
[[nodiscard]] std::size_t nearest_rank(std::size_t n, double p);

/// True when at least kTailSupport samples lie beyond the p-th percentile
/// of n samples, i.e. n - nearest_rank(n, p) >= kTailSupport.
[[nodiscard]] bool percentile_supported(std::size_t n, double p);

/// Nearest-rank percentiles of `values` (one copy, obs::exact_rank
/// semantics: always an observed sample). Throws std::runtime_error naming
/// `what` when a requested percentile lacks kTailSupport samples beyond it,
/// so an under-sampled tail is never reported.
[[nodiscard]] std::vector<double> percentiles(std::vector<double> values,
                                              const std::vector<double>& ps,
                                              const std::string& what);

/// A timing of a shared machine's least disturbed stretch: the lower decile
/// (nearest rank; the best value when there are at most ten) of per-window
/// or per-run timings. Contention from other tenants only ever slows a
/// window down, so the fast windows track the program's own cost, and a
/// change that slows the program slows every window. The decile rather
/// than the best window keeps a run's one luckiest window from setting a
/// tail. Requires a non-empty sample.
[[nodiscard]] double fast_decile(std::vector<double> per_window);

/// Percentiles of a long measurement from its fast stretches: the samples
/// are cut into consecutive windows of `window` samples (the last window
/// takes the remainder; fewer than two windows' worth is one window), each
/// window's nearest-rank percentiles are taken under the tail-support rule,
/// and fast_decile over the windows is returned per p.
[[nodiscard]] std::vector<double> fast_window_percentiles(
    const std::vector<double>& values, std::size_t window,
    const std::vector<double>& ps, const std::string& what);

/// Median of a non-empty sample (nearest rank; exempt from the tail rule,
/// used to summarise a handful of repeated measurements).
[[nodiscard]] double median(std::vector<double> values);

/// Wall-clock stamps of one request (steady-clock ns; 0 = not reached).
struct Stamps {
  std::int64_t due = 0;          ///< open loop: when it should have been sent
  std::int64_t sent = 0;         ///< open loop: when the generator sent it
  std::int64_t route_start = 0;  ///< first route() call
  std::int64_t route_ns = 0;     ///< total time inside route() (re-routes add)
  std::int64_t decide_start = 0;
  std::int64_t decide_end = 0;
  std::int64_t step_end = 0;     ///< on_step_result: the node step returned
  std::int64_t done = 0;         ///< serve: end of the worker batch serving it
};

// Open-loop accounting. Every delay counts from the due time, never from
// the time the generator actually sent, so a generator stall shows up in
// the wait of every request it delayed (no coordinated omission).

/// How late the generator sent the request, us (sent - due, >= 0).
[[nodiscard]] double generator_late_us(const Stamps& s);

/// How long the request waited for its answer, us: due -> done.
[[nodiscard]] double wait_us(const Stamps& s);

/// Open-loop schedule at a fixed rate: request i is due i / rate_per_s
/// seconds after the start of sending.
[[nodiscard]] std::vector<double> due_offsets(std::size_t count,
                                              double rate_per_s);

/// Trace time at `wall_s` seconds into a schedule: piecewise linear through
/// the points (due_s[i], arrival_s[i]) and clamped at both ends, so a
/// request is due exactly when the trace clock reaches its arrival stamp.
/// Both vectors are sorted and of equal, non-zero length.
[[nodiscard]] double trace_time_at(const std::vector<double>& due_s,
                                   const std::vector<double>& arrival_s,
                                   double wall_s);

/// Capacity search over offered rates. `probe(rate)` runs the system at
/// `rate` and returns true when it kept up. The search first grows the rate
/// geometrically from `start` (x`growth`) until a probe fails or `max_rate`
/// is reached, then bisects in log space between the last passing and the
/// first failing rate for `refine_steps` probes. It never runs more than
/// max_probes(...) probes, and the result never decreases when the set of
/// passing rates grows. Returns the highest passing rate seen (0 when even
/// `start` fails).
struct CapacitySearch {
  double start = 1.0;
  double growth = 2.0;
  double max_rate = 1e9;
  std::size_t refine_steps = 5;

  [[nodiscard]] std::size_t max_probes() const;
  [[nodiscard]] double run(const std::function<bool(double)>& probe,
                           std::size_t* probes_run = nullptr) const;
};

/// Growth verdict over samples read at even intervals during a capacity
/// probe (backlog in requests, or generator lateness): the series "grows"
/// when the minimum of its last third exceeds the minimum of its first
/// third by more than `slack`. Minima ignore a transient stall that drains
/// again; an overloaded service or generator falls behind steadily, which
/// lifts even the minimum.
[[nodiscard]] bool grows(const std::vector<double>& samples, double slack);

}  // namespace perfbench
