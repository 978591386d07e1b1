#include "obs/schema_check.hpp"

#include "obs/json.hpp"
#include "obs/trace_event.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <utility>

namespace mlcr::obs {

namespace {

// --- Event validation -------------------------------------------------------

void add_error(TraceCheckReport& report, std::size_t index,
               const std::string& what) {
  if (report.errors.size() >= TraceCheckReport::kMaxErrors) return;
  report.errors.push_back("event " + std::to_string(index) + ": " + what);
}

[[nodiscard]] bool is_finite_number(const JsonValue* v) {
  return v != nullptr && v->type == JsonValue::Type::kNumber &&
         std::isfinite(v->number);
}

// Per-flow tally, keyed by cat|name|id (the trace_event flow binding key).
struct FlowTally {
  std::size_t starts = 0;
  std::size_t steps = 0;
  std::size_t ends = 0;
};

void add_flow_error(TraceCheckReport& report, const std::string& what) {
  if (report.flow_errors.size() >= TraceCheckReport::kMaxErrors) return;
  report.flow_errors.push_back(what);
}

void check_event(const JsonValue& e, std::size_t index,
                 TraceCheckReport& report,
                 std::map<std::string, FlowTally>& flows) {
  if (e.type != JsonValue::Type::kObject) {
    add_error(report, index, "not an object");
    return;
  }

  const JsonValue* name = e.find("name");
  if (name == nullptr || name->type != JsonValue::Type::kString ||
      name->string.empty()) {
    add_error(report, index, "missing or empty \"name\" string");
    return;
  }

  const JsonValue* ph = e.find("ph");
  if (ph == nullptr || ph->type != JsonValue::Type::kString ||
      ph->string.size() != 1 ||
      std::string("XBEiICMstf").find(ph->string[0]) == std::string::npos) {
    add_error(report, index, "\"ph\" must be one of X B E i I C M s t f");
    return;
  }
  const char phase = ph->string[0];

  const JsonValue* ts = e.find("ts");
  if (!is_finite_number(ts) || ts->number < 0.0)
    add_error(report, index, "\"ts\" must be a finite number >= 0");
  if (!is_finite_number(e.find("pid")))
    add_error(report, index, "\"pid\" must be a number");
  if (!is_finite_number(e.find("tid")))
    add_error(report, index, "\"tid\" must be a number");

  const JsonValue* cat_field = e.find("cat");
  if (cat_field != nullptr && cat_field->type != JsonValue::Type::kString)
    add_error(report, index, "\"cat\" must be a string");

  const JsonValue* args = e.find("args");
  if (args != nullptr && args->type != JsonValue::Type::kObject)
    add_error(report, index, "\"args\" must be an object");

  switch (phase) {
    case 'X': {
      const JsonValue* dur = e.find("dur");
      if (!is_finite_number(dur) || dur->number < 0.0)
        add_error(report, index,
                  "complete span needs \"dur\" finite number >= 0");
      ++report.span_counts[name->string];
      break;
    }
    case 'C': {
      if (args == nullptr || args->object.empty()) {
        add_error(report, index, "counter needs a non-empty \"args\" object");
      } else {
        for (const auto& [key, v] : args->object)
          if (!is_finite_number(&v))
            add_error(report, index,
                      "counter arg \"" + key + "\" must be numeric");
      }
      ++report.counter_counts[name->string];
      break;
    }
    case 'M': {
      if (name->string != "process_name" && name->string != "thread_name" &&
          name->string != "process_labels")
        add_error(report, index,
                  "unknown metadata record \"" + name->string + "\"");
      if (args == nullptr || args->find("name") == nullptr)
        add_error(report, index, "metadata needs args.name");
      break;
    }
    case 'i':
    case 'I':
      ++report.instant_counts[name->string];
      break;
    case 's':
    case 't':
    case 'f': {
      const JsonValue* id = e.find("id");
      std::string id_key;
      if (id != nullptr && id->type == JsonValue::Type::kNumber &&
          std::isfinite(id->number) && id->number >= 0.0) {
        id_key = format_number(id->number);
      } else if (id != nullptr && id->type == JsonValue::Type::kString &&
                 !id->string.empty()) {
        id_key = id->string;
      } else {
        add_error(report, index,
                  "flow event needs \"id\" finite number >= 0 or "
                  "non-empty string");
        break;
      }
      const std::string cat =
          (cat_field != nullptr && cat_field->type == JsonValue::Type::kString)
              ? cat_field->string
              : std::string();
      FlowTally& tally = flows[cat + "|" + name->string + "|" + id_key];
      if (phase == 's') {
        ++tally.starts;
        ++report.flow_start_counts[name->string];
      } else if (phase == 't') {
        ++tally.steps;
      } else {
        ++tally.ends;
        ++report.flow_end_counts[name->string];
      }
      break;
    }
    default:
      break;  // B/E accepted without extra requirements
  }
}

void check_flow_pairing(const std::map<std::string, FlowTally>& flows,
                        TraceCheckReport& report) {
  for (const auto& [key, tally] : flows) {
    if (tally.starts == 0)
      add_flow_error(report, "flow " + key + ": " +
                                 (tally.ends > 0 ? "end" : "step") +
                                 " without a flow-start");
    else if (tally.ends == 0)
      add_flow_error(report, "flow " + key + ": started but never ended");
    else if (tally.starts != tally.ends)
      add_flow_error(report,
                     "flow " + key + ": " + std::to_string(tally.starts) +
                         " starts vs " + std::to_string(tally.ends) + " ends");
  }
}

}  // namespace

TraceCheckReport check_trace_json(const std::string& json_text) {
  TraceCheckReport report;
  JsonValue root;
  std::string parse_error;
  if (!parse_json(json_text, root, parse_error)) {
    report.errors.push_back("JSON parse error: " + parse_error);
    return report;
  }

  const JsonValue* events = nullptr;
  if (root.type == JsonValue::Type::kArray) {
    events = &root;
  } else if (root.type == JsonValue::Type::kObject) {
    events = root.find("traceEvents");
    if (events == nullptr || events->type != JsonValue::Type::kArray) {
      report.errors.push_back(
          "root object has no \"traceEvents\" array");
      return report;
    }
  } else {
    report.errors.push_back("root must be an object or an array");
    return report;
  }

  report.event_count = events->array.size();
  std::map<std::string, FlowTally> flows;
  for (std::size_t i = 0; i < events->array.size(); ++i)
    check_event(events->array[i], i, report, flows);
  check_flow_pairing(flows, report);
  return report;
}

std::vector<std::string> check_bench_json(const std::string& json_text) {
  std::vector<std::string> errors;
  JsonValue root;
  std::string parse_error;
  if (!parse_json(json_text, root, parse_error)) {
    errors.push_back("JSON parse error: " + parse_error);
    return errors;
  }
  if (root.type != JsonValue::Type::kObject) {
    errors.push_back("root must be an object");
    return errors;
  }

  const JsonValue* bench = root.find("bench");
  if (bench == nullptr || bench->type != JsonValue::Type::kString ||
      bench->string.empty())
    errors.push_back("\"bench\" must be a non-empty string");

  const JsonValue* config = root.find("config");
  if (config == nullptr || config->type != JsonValue::Type::kObject) {
    errors.push_back("\"config\" must be an object");
  } else {
    for (const auto& [key, v] : config->object)
      if (v.type != JsonValue::Type::kString &&
          v.type != JsonValue::Type::kBool &&
          !(v.type == JsonValue::Type::kNumber && std::isfinite(v.number)))
        errors.push_back("config." + key +
                         " must be a string, bool, or finite number");
  }

  for (const char* key : {"wall_ms", "events_per_sec"}) {
    const JsonValue* v = root.find(key);
    if (!is_finite_number(v) || v->number < 0.0) {
      std::string message = "\"";
      message += key;
      message += "\" must be a finite number >= 0";
      errors.push_back(std::move(message));
    }
  }

  const JsonValue* metrics = root.find("metrics");
  if (metrics == nullptr || metrics->type != JsonValue::Type::kObject) {
    errors.push_back("\"metrics\" must be an object");
  } else {
    for (const auto& [key, v] : metrics->object)
      if (!is_finite_number(&v))
        errors.push_back("metrics." + key + " must be a finite number");
  }
  return errors;
}

std::vector<std::string> check_simlint_json(const std::string& json_text) {
  std::vector<std::string> errors;
  JsonValue root;
  std::string parse_error;
  if (!parse_json(json_text, root, parse_error)) {
    errors.push_back("JSON parse error: " + parse_error);
    return errors;
  }
  if (root.type != JsonValue::Type::kObject) {
    errors.push_back("root must be an object");
    return errors;
  }

  const JsonValue* tool = root.find("tool");
  if (tool == nullptr || tool->type != JsonValue::Type::kString ||
      tool->string != "simlint")
    errors.push_back("\"tool\" must be the string \"simlint\"");

  const JsonValue* violations = root.find("violations");
  if (violations == nullptr ||
      violations->type != JsonValue::Type::kArray) {
    errors.push_back("\"violations\" must be an array");
    return errors;
  }

  const JsonValue* count = root.find("count");
  if (!is_finite_number(count) ||
      count->number != static_cast<double>(violations->array.size()))
    errors.push_back(
        "\"count\" must be a number equal to the violations array length");

  for (std::size_t i = 0; i < violations->array.size(); ++i) {
    const JsonValue& v = violations->array[i];
    const std::string at = "violation " + std::to_string(i) + ": ";
    if (v.type != JsonValue::Type::kObject) {
      errors.push_back(at + "not an object");
      continue;
    }
    for (const char* key : {"file", "rule", "message"}) {
      const JsonValue* field = v.find(key);
      if (field == nullptr || field->type != JsonValue::Type::kString ||
          field->string.empty())
        errors.push_back(at + "\"" + key + "\" must be a non-empty string");
    }
    const JsonValue* line = v.find("line");
    if (!is_finite_number(line) || line->number < 1.0)
      errors.push_back(at + "\"line\" must be a finite number >= 1");
  }
  return errors;
}

namespace {

void check_numeric_object(const JsonValue* v, const std::string& at,
                          const char* key, std::vector<std::string>& errors) {
  if (v == nullptr || v->type != JsonValue::Type::kObject) {
    errors.push_back(at + "\"" + key + "\" must be an object");
    return;
  }
  for (const auto& [name, value] : v->object)
    if (!is_finite_number(&value))
      errors.push_back(at + key + "." + name + " must be a finite number");
}

void check_snapshot_line(const JsonValue& root, const std::string& at,
                         double& last_seq, std::vector<std::string>& errors) {
  if (root.type != JsonValue::Type::kObject) {
    errors.push_back(at + "line must be a JSON object");
    return;
  }

  const JsonValue* t = root.find("t");
  if (!is_finite_number(t) || t->number < 0.0)
    errors.push_back(at + "\"t\" must be a finite number >= 0");

  const JsonValue* seq = root.find("seq");
  if (!is_finite_number(seq) || seq->number < 0.0) {
    errors.push_back(at + "\"seq\" must be a finite number >= 0");
  } else {
    if (last_seq >= 0.0 && seq->number <= last_seq)
      errors.push_back(at + "\"seq\" must increase across lines");
    last_seq = seq->number;
  }

  check_numeric_object(root.find("counters"), at, "counters", errors);
  check_numeric_object(root.find("gauges"), at, "gauges", errors);

  const JsonValue* histograms = root.find("histograms");
  if (histograms == nullptr ||
      histograms->type != JsonValue::Type::kObject) {
    errors.push_back(at + "\"histograms\" must be an object");
  } else {
    for (const auto& [name, hist] : histograms->object) {
      if (hist.type != JsonValue::Type::kObject) {
        errors.push_back(at + "histograms." + name + " must be an object");
        continue;
      }
      for (const char* field :
           {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"})
        if (!is_finite_number(hist.find(field)))
          errors.push_back(at + "histograms." + name + "." + field +
                           " must be a finite number");
    }
  }

  const JsonValue* slo = root.find("slo");
  if (slo == nullptr || slo->type != JsonValue::Type::kObject) {
    errors.push_back(at + "\"slo\" must be an object");
    return;
  }
  const JsonValue* breaches = slo->find("breaches");
  if (breaches == nullptr || breaches->type != JsonValue::Type::kArray) {
    errors.push_back(at + "slo.breaches must be an array");
  } else {
    for (const JsonValue& b : breaches->array)
      if (b.type != JsonValue::Type::kString || b.string.empty())
        errors.push_back(at + "slo.breaches entries must be non-empty strings");
  }
  for (const auto& [name, value] : slo->object) {
    if (name == "breaches") continue;
    if (!is_finite_number(&value))
      errors.push_back(at + "slo." + name + " must be a finite number");
  }
}

}  // namespace

std::vector<std::string> check_snapshot_jsonl(const std::string& jsonl_text) {
  std::vector<std::string> errors;
  std::size_t line_no = 0;
  std::size_t begin = 0;
  double last_seq = -1.0;
  while (begin <= jsonl_text.size()) {
    std::size_t end = jsonl_text.find('\n', begin);
    if (end == std::string::npos) end = jsonl_text.size();
    const std::string line = jsonl_text.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    const std::string at = "line " + std::to_string(line_no) + ": ";
    JsonValue root;
    std::string parse_error;
    if (!parse_json(line, root, parse_error)) {
      errors.push_back(at + "JSON parse error: " + parse_error);
      continue;
    }
    check_snapshot_line(root, at, last_seq, errors);
  }
  return errors;
}

}  // namespace mlcr::obs
