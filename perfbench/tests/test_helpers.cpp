// Tests of the benchmark's own helpers: percentile reporting and its
// sample-support rule, open-loop lateness accounting, the capacity search,
// and the result-line schema. Built as perfbench_selftest; run.py runs it
// before every benchmark run, and `ctest` in the benchmark's build tree
// runs it too. Exits non-zero when any expectation fails.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "result.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "FAIL: " << what << "\n";
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_percentiles() {
  using namespace perfbench;
  expect(nearest_rank(100, 50.0) == 50, "rank of p50 of 100");
  expect(nearest_rank(100, 99.0) == 99, "rank of p99 of 100");
  expect(nearest_rank(1, 50.0) == 1, "rank of p50 of 1");
  expect(nearest_rank(10, 0.0) == 1, "p0 clamps to rank 1");
  expect(nearest_rank(7, 100.0) == 7, "p100 is the maximum");

  // The tail rule: at least 10 samples beyond the percentile's rank.
  expect(percentile_supported(1000, 99.0), "p99 of 1000 has 10 beyond");
  expect(!percentile_supported(999, 99.0), "p99 of 999 has 9 beyond");
  expect(percentile_supported(20, 50.0), "p50 of 20 has 10 beyond");
  expect(!percentile_supported(19, 50.0), "p50 of 19 has 9 beyond");
  expect(!percentile_supported(0, 50.0), "nothing is supported by 0 samples");

  // Nearest rank returns an observed sample, no interpolation; order of
  // the input does not matter.
  std::vector<double> v = iota(1000);
  std::vector<double> shuffled;
  for (std::size_t i = 0; i < v.size(); ++i) shuffled.push_back(v[(i * 7919) % v.size()]);
  const auto p = percentiles(shuffled, {50.0, 99.0}, "t");
  expect(p[0] == 500.0 && p[1] == 990.0, "p50/p99 of 1..1000 are 500/990");
  expect(throws([&] { (void)percentiles(iota(999), {99.0}, "t"); }),
         "an unsupported p99 throws");
  expect(!throws([&] { (void)percentiles(iota(20), {50.0}, "t"); }),
         "a supported p50 does not throw");

  // Fast-window percentiles: a slowed window (a busy neighbour) does not
  // move the result; the fastest window sets it.
  std::vector<double> samples;
  for (int w = 0; w < 5; ++w)
    for (int i = 1; i <= 1000; ++i) samples.push_back(w == 2 ? i : 3.0 * i);
  const auto wp = fast_window_percentiles(samples, 1000, {50.0, 99.0}, "t");
  expect(wp[0] == 500.0 && wp[1] == 990.0, "the fastest window is reported");
  // With more than ten windows, the lower decile: of twenty windows whose
  // p50 is 1..20 (in any order), the second best.
  std::vector<double> twenty;
  for (int w = 0; w < 20; ++w)
    for (int i = 0; i < 20; ++i) twenty.push_back(1.0 + ((w * 7) % 20));
  expect(fast_window_percentiles(twenty, 20, {50.0}, "t")[0] == 2.0,
         "the lower decile over windows is reported");
  const auto whole = fast_window_percentiles(iota(1500), 1000, {50.0}, "t");
  expect(whole[0] == 750.0, "fewer than two windows' worth is one window");
  expect(throws([&] { (void)fast_window_percentiles(iota(2000), 500, {99.0}, "t"); }),
         "every window must support the percentile");
  std::vector<double> tail(2000, 10.0);
  tail.insert(tail.end(), 500, 1.0);
  expect(fast_window_percentiles(tail, 1000, {50.0}, "t")[0] == 10.0,
         "the last window takes the remainder");
  expect(fast_decile({4.0, 1.0, 3.0}) == 1.0, "the best of a few runs");
  expect(throws([] { (void)fast_decile({}); }), "fast_decile of nothing throws");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

void test_open_loop() {
  using namespace perfbench;
  // A fixed rate: 2 req/s puts request i at i/2 s.
  const auto due = due_offsets(5, 2.0);
  expect(due.size() == 5 && near(due[1], 0.5) && near(due[4], 2.0),
         "due offsets at a fixed rate");
  expect(throws([] { (void)due_offsets(3, 0.0); }), "a zero rate is refused");

  // The trace clock reaches each arrival stamp exactly when that request is
  // due, interpolates between them, and is clamped at both ends.
  const std::vector<double> arrivals = {10.0, 11.0, 14.0, 15.0, 18.0};
  bool hits = true;
  for (std::size_t i = 0; i < due.size(); ++i)
    hits = hits && near(trace_time_at(due, arrivals, due[i]), arrivals[i]);
  expect(hits, "trace time equals the arrival stamp at each due time");
  expect(near(trace_time_at(due, arrivals, 0.75), 12.5), "interpolates");
  expect(trace_time_at(due, arrivals, -1.0) == 10.0 &&
             trace_time_at(due, arrivals, 9.0) == 18.0,
         "clamped before the first and after the last request");
  bool monotone = true;
  for (double t = 0.0, last = 0.0; t < 2.5; t += 0.01) {
    const double now = trace_time_at(due, arrivals, t);
    monotone = monotone && now >= last;
    last = now;
  }
  expect(monotone, "the trace clock never runs backwards");

  // A generator stall: requests due at 1.0 and 1.1 ms both go out at
  // 1.5 ms, are routed at 1.6 and 1.7 ms and answered at 1.8 and 1.9 ms.
  // Their waits count from the due time, so the stall is charged to both;
  // lateness is send - due, never negative.
  Stamps a;
  a.due = 1'000'000;
  a.sent = 1'500'000;
  a.route_start = 1'600'000;
  a.done = 1'800'000;
  Stamps b = a;
  b.due = 1'100'000;
  b.route_start = 1'700'000;
  b.done = 1'900'000;
  expect(near(wait_us(a), 800.0) && near(wait_us(b), 800.0),
         "wait counts from the due time");
  expect(near(generator_late_us(a), 500.0) && near(generator_late_us(b), 400.0),
         "lateness is send - due");
  Stamps early = a;
  early.sent = early.due - 100;
  expect(generator_late_us(early) == 0.0, "early sends are not late");
}

void test_capacity_search() {
  using namespace perfbench;
  CapacitySearch s;
  s.start = 100.0;
  s.growth = 2.0;
  s.max_rate = 1e6;
  s.refine_steps = 5;

  // Termination: every outcome stays within max_probes().
  std::size_t probes = 0;
  expect(s.run([](double) { return true; }, &probes) == 1e6,
         "always passing reaches the ceiling");
  expect(probes <= s.max_probes(), "always passing stays within max_probes");
  expect(s.run([](double) { return false; }, &probes) == 0.0 && probes == 1,
         "failing at the start rate stops after one probe");

  // A system that keeps up exactly below c: the result never exceeds c, is
  // within one refine step of it, and never decreases as c grows.
  double previous = 0.0;
  bool monotone = true;
  bool bounded = true;
  for (double c = 150.0; c < 9e5; c *= 1.37) {
    std::size_t n = 0;
    const double got = s.run([c](double r) { return r <= c; }, &n);
    bounded = bounded && got <= c && got >= c / std::pow(2.0, 1.0 / 32.0) &&
              n <= s.max_probes();
    monotone = monotone && got >= previous;
    previous = got;
  }
  expect(bounded, "result within one refine step below the true capacity");
  expect(monotone, "result is monotone in the set of passing rates");
  expect(throws([&] {
           CapacitySearch bad = s;
           bad.growth = 1.0;
           (void)bad.run([](double) { return true; });
         }),
         "growth must exceed 1");

  expect(!grows({5, 9, 4, 7, 6, 5, 8, 4, 6}, 10.0), "a flat backlog");
  expect(grows({0, 100, 200, 300, 400, 500, 600, 700, 800}, 10.0),
         "a linearly growing backlog");
  expect(!grows({3, 2, 4, 3, 2, 3, 900, 2, 3}, 10.0),
         "a stall that drains again is not growth");
}

void test_schema() {
  using namespace perfbench;
  const std::string bench = R"({"end_to_end": [
      {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
      {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}],
    "per_layer": [{"name": "hits", "unit": "count", "better": "higher"}]})";
  const auto e2e = declared_metrics(bench, false);
  const auto layers = declared_metrics(bench, true);
  expect(e2e.size() == 2 && e2e[1].name == "setup_s" && e2e[1].unit == "s",
         "end-to-end metrics are read in order");
  expect(layers.size() == 1 && layers[0].name == "hits", "per-layer metrics");
  expect(throws([] { (void)declared_metrics("{}", false); }),
         "a document without metrics is refused");

  Result r;
  r.attempted = 1000;
  r.add("setup_s", 0.8127, "s");
  r.add("latency_ms", 1.2034567890123456, "ms");
  r.add("not_declared", 5.0, "count");
  conform(r, e2e);
  expect(r.correct && r.metrics.size() == 2 && r.metrics[0].name == "latency_ms",
         "conform keeps the declared metrics in declared order");
  const std::string line = result_json(r);
  expect(check_result_json(line, e2e).empty(), "a conforming line passes: " + line);
  const std::string key = "\"latency_ms\": {\"value\": ";
  const std::size_t at = line.find(key);
  expect(at != std::string::npos &&
             std::strtod(line.c_str() + at + key.size(), nullptr) ==
                 1.2034567890123456,
         "values keep all their digits (exact round trip)");
  expect(line.find('\n') == std::string::npos, "the result is one line");

  Result missing;
  missing.attempted = 1;
  missing.add("setup_s", 1.0, "s");
  conform(missing, e2e);
  expect(!missing.correct, "a declared metric left unmeasured fails the run");
  Result wrong_unit;
  wrong_unit.attempted = 1;
  wrong_unit.add("setup_s", 1.0, "ms");
  wrong_unit.add("latency_ms", 1.0, "ms");
  conform(wrong_unit, e2e);
  expect(!wrong_unit.correct, "a unit differing from the declaration fails");

  expect(!check_result_json(R"({"correct": true, "attempted": 0, "failed": 0,
      "metrics": {"latency_ms": {"value": 1, "unit": "ms"},
                  "setup_s": {"value": 1, "unit": "s"}}})", e2e).empty(),
         "attempted must be at least 1");
  expect(!check_result_json(R"({"correct": true, "attempted": 3, "failed": 0,
      "metrics": {"latency_ms": {"value": 1, "unit": "ms"}}})", e2e).empty(),
         "a missing metric is a schema error");
  expect(!check_result_json(R"({"correct": true, "attempted": 3, "failed": 0,
      "extra": 1, "metrics": {"latency_ms": {"value": 1, "unit": "ms"},
                  "setup_s": {"value": 1, "unit": "s"}}})", e2e).empty(),
         "an extra top-level key is a schema error");
  expect(!check_result_json(R"({"correct": true, "attempted": 2.5, "failed": 0,
      "metrics": {"latency_ms": {"value": 1, "unit": "ms"},
                  "setup_s": {"value": 1, "unit": "s"}}})", e2e).empty(),
         "attempted must be a whole number");
  Result nan;
  nan.add("x", std::nan(""), "s");
  expect(!nan.correct, "a non-finite metric fails the run");
}

}  // namespace

int main() {
  test_percentiles();
  test_open_loop();
  test_capacity_search();
  test_schema();
  if (failures > 0) {
    std::cerr << failures << " helper expectation(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cerr << "perfbench_selftest: all helper tests passed\n";
  return EXIT_SUCCESS;
}
