// The benchmark's result line and its schema. The metric names and units a
// run must print come from BENCHMARK.json (end_to_end for an untraced run,
// per_layer for a traced one), so the declaration and the output cannot
// drift apart: a run whose metrics differ from the declared set fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome. `correct` turns false on the first failed check; the
/// messages say which.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit);
  /// Record a failed correctness check or validity guard.
  void fail(const std::string& message);
  /// fail(message) unless `ok`.
  void check(bool ok, const std::string& message);
};

/// The declared metrics of one mode, read from the text of BENCHMARK.json.
/// Throws std::runtime_error when the document or its metric lists are
/// malformed.
[[nodiscard]] std::vector<MetricSpec> declared_metrics(
    const std::string& benchmark_json, bool traced);

/// Keep only the declared metrics, in declaration order. A declared metric
/// the run did not produce, or a produced one whose unit differs, fails the
/// result.
void conform(Result& result, const std::vector<MetricSpec>& declared);

/// The one-line JSON object a run ends with: exactly the keys correct,
/// attempted, failed and metrics; values printed with all 17 digits.
[[nodiscard]] std::string result_json(const Result& result);

/// Schema check of a result line against the declared metrics; returns the
/// problems found (empty = valid).
[[nodiscard]] std::vector<std::string> check_result_json(
    const std::string& line, const std::vector<MetricSpec>& declared);

}  // namespace perfbench
