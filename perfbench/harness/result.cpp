#include "result.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/json.hpp"

namespace perfbench {

using mlcr::obs::JsonValue;

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) fail("metric " + name + " is not finite");
  metrics.push_back({name, value, unit});
}

void Result::fail(const std::string& message) {
  correct = false;
  errors.push_back(message);
}

void Result::check(bool ok, const std::string& message) {
  if (!ok) fail(message);
}

std::vector<MetricSpec> declared_metrics(const std::string& benchmark_json,
                                         bool traced) {
  JsonValue doc;
  std::string error;
  if (!mlcr::obs::parse_json(benchmark_json, doc, error))
    throw std::runtime_error("BENCHMARK.json: " + error);
  const char* key = traced ? "per_layer" : "end_to_end";
  const JsonValue* list = doc.find(key);
  if (list == nullptr || list->type != JsonValue::Type::kArray ||
      list->array.empty())
    throw std::runtime_error(std::string("BENCHMARK.json: no ") + key +
                             " list");
  std::vector<MetricSpec> out;
  for (const JsonValue& m : list->array) {
    const JsonValue* name = m.find("name");
    const JsonValue* unit = m.find("unit");
    if (name == nullptr || unit == nullptr ||
        name->type != JsonValue::Type::kString ||
        unit->type != JsonValue::Type::kString)
      throw std::runtime_error(std::string("BENCHMARK.json: ") + key +
                               " entry without a name and unit");
    out.push_back({name->string, unit->string});
  }
  return out;
}

void conform(Result& result, const std::vector<MetricSpec>& declared) {
  std::vector<Metric> kept;
  for (const MetricSpec& spec : declared) {
    const Metric* found = nullptr;
    for (const Metric& m : result.metrics)
      if (m.name == spec.name) found = &m;
    if (found == nullptr) {
      result.fail("declared metric " + spec.name + " was not measured");
      continue;
    }
    if (found->unit != spec.unit)
      result.fail("metric " + spec.name + " measured in " + found->unit +
                  ", declared in " + spec.unit);
    kept.push_back(*found);
  }
  result.metrics = std::move(kept);
}

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += mlcr::obs::json_quote(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + mlcr::obs::json_quote(m.unit) + "}";
  }
  out += "}}";
  return out;
}

std::vector<std::string> check_result_json(
    const std::string& line, const std::vector<MetricSpec>& declared) {
  std::vector<std::string> problems;
  JsonValue doc;
  std::string error;
  if (!mlcr::obs::parse_json(line, doc, error)) return {"not JSON: " + error};
  if (doc.type != JsonValue::Type::kObject) return {"not a JSON object"};
  const std::vector<std::string> keys = {"correct", "attempted", "failed",
                                         "metrics"};
  if (doc.object.size() != keys.size())
    problems.push_back("expected exactly 4 keys");
  for (const std::string& k : keys)
    if (doc.find(k) == nullptr) problems.push_back("missing key " + k);
  if (!problems.empty()) return problems;

  if (doc.find("correct")->type != JsonValue::Type::kBool)
    problems.push_back("correct is not a boolean");
  for (const char* k : {"attempted", "failed"}) {
    const JsonValue& v = *doc.find(k);
    if (v.type != JsonValue::Type::kNumber || v.number < 0.0 ||
        v.number != std::floor(v.number))
      problems.push_back(std::string(k) + " is not a whole number");
  }
  if (doc.find("attempted")->number < 1.0)
    problems.push_back("attempted is below 1");

  const JsonValue& metrics = *doc.find("metrics");
  if (metrics.type != JsonValue::Type::kObject) {
    problems.push_back("metrics is not an object");
    return problems;
  }
  if (metrics.object.size() != declared.size())
    problems.push_back("metrics has " + std::to_string(metrics.object.size()) +
                       " entries, " + std::to_string(declared.size()) +
                       " declared");
  for (const MetricSpec& spec : declared) {
    const JsonValue* m = metrics.find(spec.name);
    if (m == nullptr) {
      problems.push_back("missing metric " + spec.name);
      continue;
    }
    const JsonValue* value = m->find("value");
    const JsonValue* unit = m->find("unit");
    if (m->object.size() != 2 || value == nullptr || unit == nullptr ||
        value->type != JsonValue::Type::kNumber ||
        unit->type != JsonValue::Type::kString)
      problems.push_back("metric " + spec.name +
                         " is not {\"value\": number, \"unit\": string}");
    else if (unit->string != spec.unit)
      problems.push_back("metric " + spec.name + " has unit " + unit->string);
  }
  return problems;
}

}  // namespace perfbench
