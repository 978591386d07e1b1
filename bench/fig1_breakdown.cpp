// Fig. 1 reproduction: startup-time breakdown under the two container-reuse
// modes the paper contrasts —
//   C: the warm container is used only for the exact same configuration
//      (every mismatched function cold-starts), and
//   W: the warm container is always adopted and the function pulls/installs
//      only what is missing (our multi-level warm start).
//
// The paper warms one container and invokes four other functions; our package
// granularity maps its "codes already exist in the warm container" case to
// concrete match levels, so each row states the warm container, the invoked
// function, and the Table-I match that W exploits. The headline shape — W
// accelerates startups by up to ~14x, dominated by eliminated PullCode — is
// what this bench checks.
#include <iostream>
#include <string>

#include "common.hpp"
#include "containers/matching.hpp"

namespace {

/// "F<id>", built by appending: GCC 12 at -O3 reports a false-positive
/// -Wrestrict on `"F" + std::to_string(id)`.
std::string paper_label(int id) {
  std::string label = "F";
  label += std::to_string(id);
  return label;
}

}  // namespace

int main() {
  using namespace mlcr;
  const benchtools::Suite suite;
  const auto& bench = suite.bench;

  struct Case {
    int warm_paper_id;     // container image of this function is warm
    int invoked_paper_id;  // this function arrives
  };
  // Covers every match level: L2 within the Debian/Python analytics family,
  // L3 between identically-imaged functions, L1 across languages on Alpine,
  // and a no-match pair (different OS) where W degrades to a cold start.
  const Case cases[] = {
      {8, 5}, {8, 6}, {8, 7}, {8, 13},  // L2: runtime differs
      {5, 10},                          // L3: identical image
      {4, 2}, {4, 3},                   // L1: language differs
      {4, 9},                           // no match: different OS
  };

  util::Table table({"warm", "invoked", "match", "C total (s)", "W total (s)",
                     "speedup", "W pull (s)", "W install (s)", "W init (s)"});
  double max_speedup = 0.0;
  for (const Case& c : cases) {
    const auto& warm_fn = bench.functions.get(bench.by_paper_id(c.warm_paper_id));
    const auto& fn = bench.functions.get(bench.by_paper_id(c.invoked_paper_id));
    const auto level = containers::match(fn.image, warm_fn.image);
    const auto cold = suite.cost.cold_start(fn);
    const auto warm = suite.cost.start_cost(fn, level);
    const double speedup = cold.total() / warm.total();
    if (containers::reusable(level)) max_speedup = std::max(max_speedup, speedup);
    table.add_row({paper_label(c.warm_paper_id),
                   paper_label(c.invoked_paper_id) + " (" + fn.name + ")",
                   std::string(containers::to_string(level)),
                   util::Table::num(cold.total(), 2),
                   util::Table::num(warm.total(), 2),
                   util::Table::num(speedup, 1) + "x",
                   util::Table::num(warm.pull_s, 2),
                   util::Table::num(warm.install_s, 2),
                   util::Table::num(warm.runtime_init_s + warm.function_init_s, 2)});
  }

  std::cout << "=== Fig. 1: startup breakdown, C (same-config only) vs W "
               "(multi-level reuse) ===\n";
  table.print(std::cout);
  std::cout << "max W speedup over C: " << util::Table::num(max_speedup, 1)
            << "x (paper: up to 14x)\n\n";

  // Cold-start component shares (the paper's Sec. II observations).
  util::Table shares({"function", "cold total (s)", "sandbox %", "pull %",
                      "install %", "init %", "cold/exec"});
  for (const auto& fn : bench.functions.all()) {
    const auto b = suite.cost.cold_start(fn);
    const double t = b.total();
    shares.add_row(
        {fn.name, util::Table::num(t, 2),
         util::Table::num(100.0 * b.sandbox_s / t, 0),
         util::Table::num(100.0 * b.pull_s / t, 0),
         util::Table::num(100.0 * b.install_s / t, 0),
         util::Table::num(100.0 * (b.runtime_init_s + b.function_init_s) / t, 0),
         util::Table::num(t / fn.mean_exec_s, 1) + "x"});
  }
  std::cout << "=== Sec. II calibration: cold-start composition ===\n";
  shares.print(std::cout);
  std::cout << "paper: pull 47-89% of cold start; cold start 1.3x-166x of "
               "execution; init ~6% interpreted, up to ~45% compiled\n";
  return 0;
}
