// Lock-discipline checker tests: the declared table, the fact extractor's
// blind spots (macros, raw strings, defer_lock), and the cross-check that
// the static table orders ranks exactly like the runtime validator
// (util::lock_ranks). The fixture files pin the rule firings themselves;
// these tests pin the analysis machinery.
#include "tools/simlint/locks.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "tools/simlint/lint.hpp"
#include "tools/simlint/token.hpp"
#include "util/lock_audit.hpp"

namespace mlcr::simlint {
namespace {

std::vector<Violation> run(const std::string& source) {
  return check_lock_discipline(tokenize(source), "src/serve/unit.cpp");
}

std::set<std::string> rule_set(const std::vector<Violation>& violations) {
  std::set<std::string> out;
  for (const Violation& v : violations) out.insert(v.rule);
  return out;
}

TEST(SimlintLocks, DeclaredTableMatchesTheRuntimeRankOrder) {
  const std::vector<MutexRankInfo>& table = lock_order_table();
  ASSERT_EQ(table.size(), 5U);
  EXPECT_EQ(table[0].key, "dispatch_mutex_");
  EXPECT_FALSE(table[0].leaf);
  EXPECT_EQ(table[1].key, "inference_mutex_");
  EXPECT_FALSE(table[1].leaf);
  EXPECT_EQ(table[2].key, "index_mutex_");
  EXPECT_TRUE(table[2].leaf);
  EXPECT_EQ(table[3].key, "telemetry_mutex_");
  EXPECT_FALSE(table[3].leaf);
  EXPECT_EQ(table[4].key, "slot_mutex_");
  EXPECT_TRUE(table[4].leaf);
  // Static ranks ascend in the same order as the runtime ranks (dispatch <
  // inference < index < telemetry < registry slots) — the two halves of the
  // concurrency contract must never drift apart.
  for (std::size_t i = 1; i < table.size(); ++i)
    EXPECT_LT(table[i - 1].rank, table[i].rank) << table[i].key;
  EXPECT_LT(util::lock_ranks::kDispatch, util::lock_ranks::kInference);
  EXPECT_LT(util::lock_ranks::kInference, util::lock_ranks::kIndex);
  EXPECT_LT(util::lock_ranks::kIndex, util::lock_ranks::kTelemetry);
  EXPECT_LT(util::lock_ranks::kTelemetry, util::lock_ranks::registry_slot(0));
}

TEST(SimlintLocks, MacroBodiesCarryNoAcquisitionFacts) {
  const auto violations = run(
      "#define BAD(i)                                   \\\n"
      "  std::lock_guard a(inference_mutex_);           \\\n"
      "  std::lock_guard b(dispatch_mutex_)\n"
      "void fine() { std::lock_guard only(inference_mutex_); }\n");
  EXPECT_TRUE(violations.empty());
}

TEST(SimlintLocks, RawStringsAndCommentsCarryNoAcquisitionFacts) {
  const auto violations = run(
      "const char* doc = R\"(\n"
      "  std::lock_guard a(inference_mutex_);\n"
      "  std::lock_guard b(dispatch_mutex_);\n"
      ")\";\n"
      "// inference_mutex_.lock();\n");
  EXPECT_TRUE(violations.empty());
}

TEST(SimlintLocks, DeferLockAcquiresNothing) {
  const auto violations = run(
      "void f() {\n"
      "  std::unique_lock a(inference_mutex_, std::defer_lock);\n"
      "  std::lock_guard b(dispatch_mutex_);\n"
      "}\n");
  EXPECT_TRUE(violations.empty());
}

TEST(SimlintLocks, ScopedLockArgumentsAreSequentialAcquisitions) {
  const auto doubled = run(
      "void f() { std::scoped_lock l(inference_mutex_, inference_mutex_); }\n");
  EXPECT_EQ(rule_set(doubled), std::set<std::string>{"lock-double"});
  const auto ordered = run(
      "void f() {\n"
      "  std::scoped_lock l(dispatch_mutex_, inference_mutex_);\n"
      "}\n");
  EXPECT_TRUE(ordered.empty());
}

TEST(SimlintLocks, GuardsReleaseAtScopeExitAcrossFunctions) {
  // The same mutex in two sibling scopes / functions is not a double.
  const auto violations = run(
      "void f() {\n"
      "  { std::lock_guard a(inference_mutex_); }\n"
      "  { std::lock_guard b(inference_mutex_); }\n"
      "}\n"
      "void g() { std::lock_guard c(inference_mutex_); }\n");
  EXPECT_TRUE(violations.empty());
}

TEST(SimlintLocks, UnrankedMutexesGetDoubleAndBareChecksOnly) {
  const auto doubled = run(
      "void f() {\n"
      "  std::lock_guard a(queue_mutex_);\n"
      "  std::lock_guard b(queue_mutex_);\n"
      "}\n");
  EXPECT_EQ(rule_set(doubled), std::set<std::string>{"lock-double"});
  const auto bare = run("void f() { queue_mutex_.try_lock(); }\n");
  EXPECT_EQ(rule_set(bare), std::set<std::string>{"bare-lock"});
  // Two different unranked mutexes carry no order relation.
  const auto unordered = run(
      "void f() {\n"
      "  std::lock_guard a(queue_mutex_);\n"
      "  std::lock_guard b(stats_mutex_);\n"
      "}\n");
  EXPECT_TRUE(unordered.empty());
}

TEST(SimlintLocks, LockRuleSuppressionsFlowThroughLintSource) {
  const std::string source =
      "void f() {\n"
      "  // justified: rollback path re-enters — simlint:allow(lock-double)\n"
      "  std::lock_guard a(queue_mutex_);\n"
      "  std::lock_guard b(queue_mutex_);\n"
      "}\n";
  // The suppression sits on the line above the flagged acquisition... but
  // the violation is reported on line 4, two below it: still a violation.
  EXPECT_EQ(lint_source(source, "src/serve/unit.cpp").size(), 2U);
  const std::string on_line =
      "void f() {\n"
      "  std::lock_guard a(queue_mutex_);\n"
      "  std::lock_guard b(queue_mutex_);  // simlint:allow(lock-double)\n"
      "}\n";
  EXPECT_TRUE(lint_source(on_line, "src/serve/unit.cpp").empty());
}

}  // namespace
}  // namespace mlcr::simlint
