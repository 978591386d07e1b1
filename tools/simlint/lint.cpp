#include "simlint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "simlint/locks.hpp"
#include "simlint/token.hpp"

namespace mlcr::simlint {

namespace {

[[nodiscard]] bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

[[nodiscard]] bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// --- Path scopes -----------------------------------------------------------
//
// Each rule declares where it applies. Scopes are prefix tests on the
// repo-relative path (always forward-slash separated).

bool anywhere(const std::string&) { return true; }
bool outside_util(const std::string& p) { return !starts_with(p, "src/util/"); }
bool sim_code(const std::string& p) {
  return starts_with(p, "src/") && outside_util(p);
}
bool metric_code(const std::string& p) {
  // Code whose output feeds metrics, traces or benchmark tables.
  return starts_with(p, "src/") || starts_with(p, "bench/");
}
bool sim_or_containers(const std::string& p) {
  return starts_with(p, "src/sim/") || starts_with(p, "src/containers/");
}
bool obs_code(const std::string& p) { return starts_with(p, "src/obs/"); }
bool fault_code(const std::string& p) {
  // Code that injects or reacts to faults: all randomness must arrive as a
  // stream split() off the episode seed, never a locally-invented seed.
  return starts_with(p, "src/faults/") || starts_with(p, "src/fleet/");
}
bool serve_logic(const std::string& p) {
  // Everything in src/ except the established allowed zones: src/util (the
  // wall-clock producer), src/obs (its own obs-wall-time rule), and the one
  // file implementing serve::WallClock.
  return sim_code(p) && !obs_code(p) && p != "src/serve/clock.cpp";
}
bool serve_obs_facade(const std::string& p) {
  // The serving layer records through serve::Telemetry (the concurrent
  // facade); only the facade's own implementation touches the raw
  // single-threaded obs types.
  return starts_with(p, "src/serve/") && p != "src/serve/telemetry.hpp" &&
         p != "src/serve/telemetry.cpp";
}

// --- Source preprocessing --------------------------------------------------

/// Blanks string literals and char literals, and either blanks comments too
/// (`keep_comments == false` — the form rule patterns scan) or keeps their
/// text (`keep_comments == true` — the form `simlint:allow` detection scans,
/// so allow-comments embedded in string literals never count). Line
/// structure is preserved either way.
[[nodiscard]] std::vector<std::string> blanked_lines(const std::string& source,
                                                     bool keep_comments) {
  std::string code = source;
  std::size_t i = 0;
  const std::size_t n = code.size();
  auto blank = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to && k < n; ++k)
      if (code[k] != '\n') code[k] = ' ';
  };
  while (i < n) {
    const char c = code[i];
    if (c == '/' && i + 1 < n && code[i + 1] == '/') {
      std::size_t end = code.find('\n', i);
      if (end == std::string::npos) end = n;
      if (!keep_comments) blank(i, end);
      i = end;
    } else if (c == '/' && i + 1 < n && code[i + 1] == '*') {
      std::size_t end = code.find("*/", i + 2);
      end = end == std::string::npos ? n : end + 2;
      if (!keep_comments) blank(i, end);
      i = end;
    } else if (c == 'R' && i + 1 < n && code[i + 1] == '"') {
      const std::size_t paren = code.find('(', i + 2);
      if (paren == std::string::npos) {
        ++i;
        continue;
      }
      const std::string delim = code.substr(i + 2, paren - (i + 2));
      std::size_t end = code.find(")" + delim + "\"", paren);
      end = end == std::string::npos ? n : end + delim.size() + 2;
      blank(i, end);
      i = end;
    } else if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < n && code[j] != c) j += code[j] == '\\' ? 2 : 1;
      blank(i, std::min(j + 1, n));
      i = std::min(j + 1, n);
    } else {
      ++i;
    }
  }
  std::vector<std::string> lines;
  std::istringstream is(code);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

[[nodiscard]] std::vector<std::string> code_lines(const std::string& source) {
  return blanked_lines(source, /*keep_comments=*/false);
}

/// Comments kept, literals blanked — where suppression comments live.
[[nodiscard]] std::vector<std::string> comment_lines(
    const std::string& source) {
  return blanked_lines(source, /*keep_comments=*/true);
}

// --- Suppression -----------------------------------------------------------
//
// Each `simlint:allow(...)` comment becomes one entry; matching a violation
// marks it used, and entries still unused after filtering are themselves
// errors (unused-suppression) — stale allowances must not linger once the
// code they excused is gone.

struct SuppressionEntry {
  std::string rule;
  std::size_t line = 0;  ///< 1-based line of the comment itself
  bool file_level = false;
  bool used = false;
};

struct Suppressions {
  std::vector<SuppressionEntry> entries;

  [[nodiscard]] bool allowed(const std::string& rule, std::size_t line) {
    bool hit = false;
    for (SuppressionEntry& e : entries) {
      if (e.rule != rule) continue;
      // A line-level entry covers its own line and the line below it.
      if (e.file_level || e.line == line || e.line + 1 == line) {
        e.used = true;
        hit = true;
      }
    }
    return hit;
  }
};

[[nodiscard]] Suppressions collect_suppressions(
    const std::vector<std::string>& raw) {
  static const std::regex kAllow(
      R"(simlint:allow(-file)?\(([A-Za-z0-9_-]+)\))");
  Suppressions out;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto begin = std::sregex_iterator(raw[i].begin(), raw[i].end(), kAllow);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
      out.entries.push_back({(*it)[2].str(), i + 1, (*it)[1].matched, false});
  }
  return out;
}

// --- Rule table ------------------------------------------------------------

using PathScope = bool (*)(const std::string&);

/// A rule that fires on any code line matching `pattern`.
struct LineRule {
  const char* id;
  const char* description;
  PathScope applies;
  const char* pattern;
  const char* message;
};

const LineRule kLineRules[] = {
    {"banned-random",
     "std::random_device / rand() / srand() — unseeded or global randomness "
     "breaks bit-identical replay",
     anywhere,
     R"(std::random_device|(^|[^\w:.>])(std\s*::\s*)?s?rand\s*\()",
     "use util::Rng (explicitly seeded, portable) instead of "
     "std::random_device / rand()"},
    {"banned-clock",
     "wall-clock reads (system_clock / steady_clock / high_resolution_clock) "
     "outside src/util — simulated time must come from the event loop",
     outside_util,
     R"(\b(system_clock|steady_clock|high_resolution_clock)\b)",
     "wall-clock time in simulation code breaks replay; if timing "
     "instrumentation is needed, put it behind an interface in util/"},
    {"banned-getenv",
     "getenv in simulator code — environment variables make results "
     "machine-dependent",
     sim_code,
     R"((^|[^\w:.])(std\s*::\s*)?getenv\s*\()",
     "configuration must flow through explicit config structs, not the "
     "process environment"},
    {"pointer-key",
     "pointer-valued keys in (unordered_)map/set — ordering and hashing by "
     "address varies run to run",
     anywhere,
     R"(\b(unordered_map|unordered_set|map|set)\s*<\s*(const\s+)?[A-Za-z_][\w:]*\s*\*)",
     "key the container by a stable id (ContainerId, FunctionTypeId, ...) "
     "instead of a pointer"},
    {"fault-rng-stream",
     "util::Rng constructed from a literal seed in src/faults or src/fleet — "
     "fault randomness must be a stream split() off the episode seed, or "
     "faults stop being a pure function of the episode",
     fault_code,
     R"(\bRng\s*(\w+\s*)?[({]\s*(0x[0-9A-Fa-f]+|[0-9]))",
     "derive the stream from the episode: split() the caller's Rng or "
     "forward a seed variable; a literal seed decouples fault injection "
     "from the episode seed and silently breaks replay"},
    {"fault-domain-stream",
     "default-constructed util::Rng in src/faults or src/fleet — domain "
     "crash sampling must draw from the injector's split stream, so an "
     "ad-hoc generator (implicit default seed) silently decorrelates the "
     "domain schedule from the episode",
     fault_code,
     R"(\bRng\s+\w*[A-Za-z0-9]\s*(;|\{\s*\}))",
     "one split stream per concern: take a util::Rng& (or a seed variable) "
     "from the caller and split() it — a default-constructed Rng hides the "
     "fixed default seed and breaks the zero-correlation replay oracle"},
    {"serve-clock-injection",
     "direct wall-time reads in service/simulation logic — the serving layer "
     "takes time from an injected serve::Clock, so the same code path runs "
     "live (WallClock) or deterministically replayed (SimClock)",
     serve_logic,
     R"(\b(wall_now_us|clock_gettime|gettimeofday)\s*\()",
     "inject a serve::Clock (SimClock for replay, WallClock for live "
     "serving) instead of reading wall time; src/serve/clock.cpp is the "
     "only wall-time consumer outside src/util"},
    {"obs-concurrent-registry",
     "direct MetricsRegistry / Tracer use in src/serve outside the telemetry "
     "facade — the raw obs types are single-threaded, so workers sharing one "
     "race on every record",
     serve_obs_facade,
     R"(\b(MetricsRegistry|Tracer)\b)",
     "serve code records through serve::Telemetry (ConcurrentMetricsRegistry "
     "slots + mutex-serialised trace emission); only src/serve/telemetry.* "
     "may touch the raw obs types"},
    {"obs-wall-time",
     "wall-time reads inside src/obs — the tracing layer is clock-free by "
     "contract (DESIGN.md, Observability): every timestamp is supplied by "
     "the caller",
     obs_code,
     R"(\b(wall_now_us|gettimeofday|clock_gettime|timespec_get|localtime(_r)?|gmtime(_r)?)\s*\()",
     "src/obs never reads clocks; sim-layer emitters take simulated time "
     "from the event loop and bench code stamps wall time via "
     "util::wall_now_us before calling into obs"},
};

// --- unordered-iteration ---------------------------------------------------
//
// Flags range-for / .begin() iteration over unordered_map/unordered_set
// members in metric-producing code (src/, bench/): their iteration order is
// implementation-defined, so anything folded from it (sums are safe only in
// exact arithmetic; evictions, argmax, output rows are never safe) can change
// across standard libraries or even runs. Member names are collected from the
// unit plus its paired header.

constexpr char kUnorderedIterId[] = "unordered-iteration";

[[nodiscard]] std::set<std::string> unordered_member_names(
    const std::vector<std::string>& code) {
  static const std::regex kDecl(
      R"(unordered_(?:map|set)\s*<[^;{}]*>\s+([A-Za-z_]\w*)\s*[;{=])");
  std::set<std::string> names;
  for (const auto& line : code) {
    auto begin = std::sregex_iterator(line.begin(), line.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
      names.insert((*it)[1].str());
  }
  return names;
}

void check_unordered_iteration(const std::vector<std::string>& code,
                               const std::set<std::string>& names,
                               const std::string& rel_path,
                               std::vector<Violation>& out) {
  if (names.empty()) return;
  static const std::regex kRangeFor(R"(for\s*\([^:;()]*:\s*([A-Za-z_]\w*)\s*\))");
  static const std::regex kBegin(R"(\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\()");
  for (std::size_t i = 0; i < code.size(); ++i) {
    for (const auto* re : {&kRangeFor, &kBegin}) {
      auto begin = std::sregex_iterator(code[i].begin(), code[i].end(), *re);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        if (names.count((*it)[1].str()) == 0) continue;
        out.push_back({rel_path, i + 1, kUnorderedIterId,
                       "iteration over unordered container '" +
                           (*it)[1].str() +
                           "' feeds metrics/traces; iterate a sorted view or "
                           "switch to std::map (or justify with "
                           "simlint:allow)"});
      }
    }
  }
}

// --- uninit-member ---------------------------------------------------------
//
// Heuristic: inside a struct/class body (at the body's own brace depth, so
// inline member functions are skipped), a scalar member declared without an
// initializer is flagged. Scoped to src/sim and src/containers, where plain
// data records flow through the simulator and an uninitialized field is
// silently nondeterministic.

constexpr char kUninitId[] = "uninit-member";

void check_uninit_members(const std::vector<std::string>& code,
                          const std::string& rel_path,
                          std::vector<Violation>& out) {
  static const std::regex kStructHead(
      R"(^\s*(template\s*<[^>]*>\s*)?(struct|class)\s+[A-Za-z_]\w*)");
  static const std::regex kEnumHead(R"(^\s*enum\b)");
  static const std::regex kScalarMember(
      R"(^\s*(?:mutable\s+)?(?:double|float|bool|char|short|int|long|unsigned|std::size_t|std::u?int(?:8|16|32|64)_t|std::ptrdiff_t|(?:containers::)?(?:ContainerId|FunctionTypeId|PackageId))\s+([A-Za-z_]\w*)\s*;)");

  int depth = 0;
  bool pending_struct = false;  // struct head seen, '{' not yet
  std::vector<int> body_depths;

  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    const int depth_before = depth;
    const bool is_struct_head = std::regex_search(line, kStructHead) &&
                                !std::regex_search(line, kEnumHead);

    if (!body_depths.empty() && depth_before == body_depths.back()) {
      std::smatch m;
      if (std::regex_search(line, m, kScalarMember))
        out.push_back({rel_path, i + 1, kUninitId,
                       "scalar member '" + m[1].str() +
                           "' has no initializer; an uninitialized read is "
                           "nondeterministic — default it at the declaration"});
    }

    bool struct_opens = false;
    for (const char c : line) {
      if (c == '{') {
        ++depth;
        if ((is_struct_head && !struct_opens) || pending_struct) {
          body_depths.push_back(depth);
          struct_opens = true;
          pending_struct = false;
        }
      } else if (c == '}') {
        --depth;
        if (!body_depths.empty() && depth < body_depths.back())
          body_depths.pop_back();
      }
    }
    if (is_struct_head && !struct_opens &&
        line.find(';') == std::string::npos)
      pending_struct = true;
    else if (pending_struct && line.find(';') != std::string::npos)
      pending_struct = false;  // forward declaration spread over lines
  }
}

// --- missing-transition-check ----------------------------------------------
//
// Public pool/env state-transition functions must validate their
// preconditions or run the invariant auditor: the table below names them,
// and the rule fires when a listed function's body contains neither
// MLCR_CHECK* nor MLCR_AUDIT* nor assert(.

constexpr char kTransitionId[] = "missing-transition-check";

struct TransitionCheck {
  const char* file_suffix;
  const char* function;  ///< qualified name, e.g. "WarmPool::admit"
};

const TransitionCheck kTransitionChecks[] = {
    {"containers/pool.cpp", "WarmPool::admit"},
    {"containers/pool.cpp", "WarmPool::take"},
    {"containers/pool.cpp", "WarmPool::expire_older_than"},
    {"containers/pool.cpp", "WarmPool::invalidate_all"},
    {"sim/env.cpp", "ClusterEnv::offer"},
    {"sim/env.cpp", "ClusterEnv::step"},
    {"sim/env.cpp", "ClusterEnv::advance_idle"},
    {"sim/env.cpp", "ClusterEnv::finish_streaming"},
    {"sim/env.cpp", "ClusterEnv::crash"},
    {"sim/env.cpp", "ClusterEnv::recover"},
    {"fleet/fleet_env.cpp", "FleetEnv::run"},
};

void check_transitions(const std::vector<std::string>& code,
                       const std::string& rel_path,
                       std::vector<Violation>& out) {
  for (const TransitionCheck& tc : kTransitionChecks) {
    if (!ends_with(rel_path, tc.file_suffix)) continue;
    // Locate "Qualified::name(" possibly split from its parameter list.
    std::size_t def_line = 0;
    bool found = false;
    for (std::size_t i = 0; i < code.size() && !found; ++i) {
      const std::size_t pos = code[i].find(tc.function);
      if (pos == std::string::npos) continue;
      const std::size_t after = pos + std::string(tc.function).size();
      if (after < code[i].size() &&
          (std::isalnum(static_cast<unsigned char>(code[i][after])) != 0 ||
           code[i][after] == '_'))
        continue;  // prefix of a longer name
      def_line = i;
      found = true;
    }
    if (!found) {
      out.push_back({rel_path, 1, kTransitionId,
                     std::string("state-transition function ") + tc.function +
                         " not found; update the simlint transition table if "
                         "it moved"});
      continue;
    }
    // Scan from the definition to its body's closing brace.
    int depth = 0;
    bool in_body = false;
    bool has_check = false;
    std::size_t i = def_line;
    for (; i < code.size(); ++i) {
      // Update brace state first so a check on the opening-brace line (or a
      // whole one-line body) counts as inside the body.
      bool line_in_body = in_body;
      bool done = false;
      for (const char c : code[i]) {
        if (c == '{') {
          ++depth;
          in_body = true;
          line_in_body = true;
        } else if (c == '}') {
          --depth;
          if (in_body && depth == 0) {
            done = true;
            break;
          }
        }
      }
      if (line_in_body &&
          (code[i].find("MLCR_CHECK") != std::string::npos ||
           code[i].find("MLCR_AUDIT") != std::string::npos ||
           code[i].find("assert(") != std::string::npos))
        has_check = true;
      if (done) break;
    }
    if (!has_check)
      out.push_back({rel_path, def_line + 1, kTransitionId,
                     std::string(tc.function) +
                         " transitions pool/env state without MLCR_CHECK / "
                         "MLCR_AUDIT; validate the transition"});
  }
}

// --- router-route-check ----------------------------------------------------
//
// Every `Router::route()` definition in fleet/router.cpp must validate its
// inputs (MLCR_CHECK* or assert) before indexing into the fleet: route() is
// the fleet layer's only request-placement decision point, and an unchecked
// out-of-range node index corrupts per-node state silently. Unlike
// missing-transition-check this rule is not table-driven — it discovers every
// qualified route() definition so new Router implementations are covered the
// moment they are written.

constexpr char kRouterId[] = "router-route-check";

void check_router_routes(const std::vector<std::string>& code,
                         const std::string& rel_path,
                         std::vector<Violation>& out) {
  if (!ends_with(rel_path, "fleet/router.cpp")) return;
  static const std::regex kDef(R"(\b[A-Za-z_]\w*::route\s*\()");
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!std::regex_search(code[i], kDef)) continue;
    const std::size_t def_line = i;
    int depth = 0;
    bool in_body = false;
    bool has_check = false;
    bool is_definition = false;
    for (; i < code.size(); ++i) {
      bool line_in_body = in_body;
      bool done = false;
      for (const char c : code[i]) {
        if (c == '{') {
          ++depth;
          in_body = true;
          is_definition = true;
          line_in_body = true;
        } else if (c == '}') {
          --depth;
          if (in_body && depth == 0) {
            done = true;
            break;
          }
        }
      }
      if (line_in_body &&
          (code[i].find("MLCR_CHECK") != std::string::npos ||
           code[i].find("assert(") != std::string::npos))
        has_check = true;
      // A ';' before any '{' means this was a declaration or a qualified
      // call, not a definition — skip it.
      if (!in_body && code[i].find(';') != std::string::npos) break;
      if (done) break;
    }
    if (is_definition && !has_check)
      out.push_back({rel_path, def_line + 1, kRouterId,
                     "route() places a request without MLCR_CHECK / assert; "
                     "validate the fleet and any cursor/ring state before "
                     "returning a node index"});
  }
}

constexpr char kUnusedSuppressionId[] = "unused-suppression";

/// Rule ids consumed by the whole-tree layering pass (layers.cpp), which
/// honors suppressions itself; lint_source must not count them unused.
[[nodiscard]] bool is_layer_rule(const std::string& id) {
  return id == "layer-cycle" || id == "layer-upward";
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = [] {
    std::vector<RuleInfo> out;
    for (const LineRule& r : kLineRules) out.push_back({r.id, r.description});
    out.push_back({kUnorderedIterId,
                   "range-for / begin() over unordered_map|set members in "
                   "metric-producing code (src/, bench/)"});
    out.push_back({kUninitId,
                   "scalar struct member without initializer in src/sim or "
                   "src/containers"});
    out.push_back({kTransitionId,
                   "public pool/env state transition without MLCR_CHECK / "
                   "MLCR_AUDIT / assert"});
    out.push_back({kRouterId,
                   "Router::route() definition in fleet/router.cpp without "
                   "MLCR_CHECK / assert on its placement inputs"});
    out.push_back({"lock-order",
                   "lock acquisition that violates the declared lock-order "
                   "table (rank-descending, or anything acquired over a "
                   "leaf lock)"});
    out.push_back({"lock-double",
                   "a mutex acquired again while already held on the same "
                   "code path"});
    out.push_back({"bare-lock",
                   ".lock()/.unlock()/.try_lock() called directly on a mutex "
                   "instead of through an RAII guard"});
    out.push_back({kUnusedSuppressionId,
                   "a simlint:allow(...) comment that no longer suppresses "
                   "any violation (or names an unknown rule)"});
    return out;
  }();
  return kRules;
}

std::vector<Violation> lint_source(const std::string& source,
                                   const std::string& rel_path,
                                   const std::string& paired_header) {
  const std::vector<std::string> code = code_lines(source);
  Suppressions allow = collect_suppressions(comment_lines(source));

  std::vector<Violation> found;
  for (const LineRule& rule : kLineRules) {
    if (!rule.applies(rel_path)) continue;
    const std::regex re(rule.pattern);
    for (std::size_t i = 0; i < code.size(); ++i)
      if (std::regex_search(code[i], re))
        found.push_back({rel_path, i + 1, rule.id, rule.message});
  }

  if (metric_code(rel_path)) {
    std::set<std::string> names = unordered_member_names(code);
    if (!paired_header.empty())
      for (const auto& n : unordered_member_names(code_lines(paired_header)))
        names.insert(n);
    check_unordered_iteration(code, names, rel_path, found);
  }
  if (sim_or_containers(rel_path)) check_uninit_members(code, rel_path, found);
  check_transitions(code, rel_path, found);
  check_router_routes(code, rel_path, found);
  for (Violation& v : check_lock_discipline(tokenize(source), rel_path))
    found.push_back(std::move(v));

  std::vector<Violation> out;
  for (Violation& v : found)
    if (!allow.allowed(v.rule, v.line)) out.push_back(std::move(v));

  // Stale or misspelled allowances are errors themselves. These are not
  // subject to suppression: the fix is always to delete the comment.
  for (const SuppressionEntry& e : allow.entries) {
    if (e.used || is_layer_rule(e.rule)) continue;
    bool known = e.rule == kUnusedSuppressionId;
    for (const RuleInfo& r : rules()) known = known || r.id == e.rule;
    out.push_back({rel_path, e.line, kUnusedSuppressionId,
                   known ? "simlint:allow(" + e.rule +
                               ") no longer suppresses any violation; "
                               "remove the stale comment"
                         : "simlint:allow(" + e.rule +
                               ") names an unknown rule; fix the spelling "
                               "or remove it (see simlint --list-rules)"});
  }

  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

namespace {

[[nodiscard]] std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open())
    throw std::runtime_error("simlint: cannot read " + path.string());
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace

std::vector<Violation> lint_file(const std::string& path,
                                 const std::string& rel_path) {
  const std::filesystem::path p(path);
  std::string header;
  if (p.extension() == ".cpp") {
    std::filesystem::path sibling = p;
    sibling.replace_extension(".hpp");
    if (std::filesystem::exists(sibling)) header = read_file(sibling);
  }
  return lint_source(read_file(p), rel_path, header);
}

std::vector<Violation> lint_tree(const std::string& repo_root,
                                 const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<Violation> out;
  std::vector<fs::path> files;
  for (const std::string& root : roots) {
    const fs::path base = fs::path(repo_root) / root;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
        files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    const std::string rel =
        fs::path(f).lexically_relative(repo_root).generic_string();
    for (Violation& v : lint_file(f.string(), rel)) out.push_back(std::move(v));
  }
  return out;
}

std::string violations_to_json(const std::vector<Violation>& violations) {
  std::ostringstream os;
  os << "{\"tool\":\"simlint\",\"count\":" << violations.size()
     << ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i != 0) os << ",";
    os << "{\"file\":" << obs::json_quote(v.file) << ",\"line\":" << v.line
       << ",\"rule\":" << obs::json_quote(v.rule)
       << ",\"message\":" << obs::json_quote(v.message) << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace mlcr::simlint
