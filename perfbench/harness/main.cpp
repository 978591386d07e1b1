// perfbench: the layered benchmark of the MLCR reproduction. One workload
// per run; see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload <mlcr-node|fleet-azure>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Runs from the repository root (it reads BENCHMARK.json and
// bench_overall.model there). The last line of stdout is the result JSON.
// Exit status: 0 when every check passed, 1 when a check failed (the result
// line still prints, with "correct": false), 2 on a usage or set-up error
// (no result line).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"

namespace {

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("flag " + arg + " needs a value");
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value, &used);
      have_seed = used == value.size();
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value, &used);
      have_seconds = used == value.size() && o.seconds > 0.0 && o.seconds <= 60.0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1")
        throw std::runtime_error("--trace takes 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else {
      throw std::runtime_error("unknown flag " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    throw std::runtime_error(
        "usage: perfbench --workload W --seed N --seconds S (0 < S <= 60) "
        "--trace 0|1");
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  try {
    opts = parse(argc, argv);
    opts.declared =
        perfbench::declared_metrics(read_file("BENCHMARK.json"), opts.trace);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  perfbench::Result result;
  try {
    if (opts.workload == "mlcr-node")
      perfbench::run_mlcr_node(opts, result);
    else if (opts.workload == "fleet-azure")
      perfbench::run_fleet_azure(opts, result);
    else
      throw std::runtime_error("unknown workload " + opts.workload);
  } catch (const std::exception& e) {
    // Set-up failures (a missing or incompatible model, an unknown
    // workload) end the run without a result line.
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  perfbench::conform(result, opts.declared);
  for (const std::string& e : result.errors)
    std::cerr << "perfbench: check failed: " << e << "\n";
  std::cout << perfbench::result_json(result) << std::endl;
  return result.correct ? 0 : 1;
}
