#include <map>

#include "common.hpp"
#include "fstartbench/workloads.hpp"

namespace perfbench {

mlcr::sim::Trace overall_traffic(const mlcr::fstartbench::Benchmark& bench,
                                 const mlcr::sim::Trace& mix,
                                 std::size_t total, mlcr::util::Rng& rng) {
  // Per-function Poisson rate of the mix: count / last arrival (the rate's
  // maximum-likelihood estimate from the mix's own process).
  std::map<mlcr::sim::FunctionTypeId, std::pair<std::size_t, double>> seen;
  for (const mlcr::sim::Invocation& inv : mix.invocations()) {
    auto& [count, last] = seen[inv.function];
    ++count;
    last = inv.arrival_s;
  }
  double rate_sum = 0.0;
  for (const auto& [fn, cl] : seen) rate_sum += static_cast<double>(cl.first) / cl.second;
  const double horizon_s = static_cast<double>(total) / rate_sum;
  std::vector<mlcr::sim::Invocation> out;
  out.reserve(total + total / 8 + 64);
  for (const auto& [fn, cl] : seen) {
    const double rate = static_cast<double>(cl.first) / cl.second;
    const mlcr::sim::FunctionType& type = bench.functions.get(fn);
    for (double t = rng.exponential(rate); t <= horizon_s;
         t += rng.exponential(rate)) {
      mlcr::sim::Invocation inv;
      inv.function = fn;
      inv.arrival_s = t;
      inv.exec_s = mlcr::fstartbench::sample_exec_s(type, rng);
      out.push_back(inv);
    }
  }
  return mlcr::sim::Trace(std::move(out));
}

}  // namespace perfbench
