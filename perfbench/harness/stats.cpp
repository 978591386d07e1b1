#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics_registry.hpp"

namespace perfbench {

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("nearest_rank of an empty sample");
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

bool percentile_supported(std::size_t n, double p) {
  return n > 0 && n - nearest_rank(n, p) >= kTailSupport;
}

std::vector<double> percentiles(std::vector<double> values,
                                const std::vector<double>& ps,
                                const std::string& what) {
  for (const double p : ps)
    if (!percentile_supported(values.size(), p))
      throw std::runtime_error(
          what + ": p" + std::to_string(p) + " of " +
          std::to_string(values.size()) + " samples has fewer than " +
          std::to_string(kTailSupport) + " samples beyond it");
  return mlcr::obs::exact_rank_percentiles(std::move(values), ps);
}

std::vector<double> fast_window_percentiles(const std::vector<double>& values,
                                            std::size_t window,
                                            const std::vector<double>& ps,
                                            const std::string& what) {
  if (window == 0) throw std::invalid_argument("window must be positive");
  const std::size_t windows = std::max<std::size_t>(1, values.size() / window);
  std::vector<std::vector<double>> per_p(ps.size());
  for (std::size_t k = 0; k < windows; ++k) {
    const auto begin = values.begin() + static_cast<long>(k * window);
    const auto end = k + 1 == windows ? values.end()
                                      : begin + static_cast<long>(window);
    const std::vector<double> got =
        percentiles(std::vector<double>(begin, end), ps, what);
    for (std::size_t i = 0; i < ps.size(); ++i) per_p[i].push_back(got[i]);
  }
  std::vector<double> out;
  for (auto& v : per_p) out.push_back(fast_decile(std::move(v)));
  return out;
}

double fast_decile(std::vector<double> per_window) {
  if (per_window.empty())
    throw std::invalid_argument("fast_decile of an empty sample");
  return mlcr::obs::exact_rank_percentile(std::move(per_window), 10.0);
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty sample");
  return mlcr::obs::exact_rank_percentile(std::move(values), 50.0);
}

double generator_late_us(const Stamps& s) {
  return static_cast<double>(std::max<std::int64_t>(s.sent - s.due, 0)) / 1e3;
}

double wait_us(const Stamps& s) {
  return static_cast<double>(s.done - s.due) / 1e3;
}

std::vector<double> due_offsets(std::size_t count, double rate_per_s) {
  if (!(rate_per_s > 0.0))
    throw std::invalid_argument("due_offsets needs a positive rate");
  std::vector<double> out(count);
  for (std::size_t i = 0; i < count; ++i)
    out[i] = static_cast<double>(i) / rate_per_s;
  return out;
}

double trace_time_at(const std::vector<double>& due_s,
                     const std::vector<double>& arrival_s, double wall_s) {
  if (due_s.empty() || due_s.size() != arrival_s.size())
    throw std::invalid_argument("trace_time_at needs matching schedules");
  if (wall_s <= due_s.front()) return arrival_s.front();
  if (wall_s >= due_s.back()) return arrival_s.back();
  const auto hi = static_cast<std::size_t>(
      std::upper_bound(due_s.begin(), due_s.end(), wall_s) - due_s.begin());
  const std::size_t lo = hi - 1;
  const double span = due_s[hi] - due_s[lo];
  const double f = span > 0.0 ? (wall_s - due_s[lo]) / span : 1.0;
  return arrival_s[lo] + f * (arrival_s[hi] - arrival_s[lo]);
}

std::size_t CapacitySearch::max_probes() const {
  const double ramp =
      std::ceil(std::log(max_rate / start) / std::log(growth)) + 1.0;
  return static_cast<std::size_t>(std::max(ramp, 1.0)) + refine_steps;
}

double CapacitySearch::run(const std::function<bool(double)>& probe,
                           std::size_t* probes_run) const {
  if (!(start > 0.0) || !(growth > 1.0) || max_rate < start)
    throw std::invalid_argument("capacity search needs 0 < start <= max_rate "
                                "and growth > 1");
  std::size_t probes = 0;
  const auto try_rate = [&](double rate) {
    ++probes;
    return probe(rate);
  };
  double lo = 0.0;  // highest passing rate
  double hi = 0.0;  // lowest failing rate above lo (0 = none yet)
  for (double rate = start;;) {
    if (!try_rate(rate)) {
      hi = rate;
      break;
    }
    lo = rate;
    if (rate >= max_rate) break;
    rate = std::min(rate * growth, max_rate);
  }
  if (lo > 0.0 && hi > 0.0) {
    for (std::size_t i = 0; i < refine_steps; ++i) {
      const double mid = std::sqrt(lo * hi);
      if (try_rate(mid))
        lo = mid;
      else
        hi = mid;
    }
  }
  if (probes_run != nullptr) *probes_run = probes;
  return lo;
}

bool grows(const std::vector<double>& samples, double slack) {
  if (samples.size() < 3) return false;
  const std::size_t third = samples.size() / 3;
  const double head =
      *std::min_element(samples.begin(), samples.begin() + static_cast<long>(third));
  const double tail =
      *std::min_element(samples.end() - static_cast<long>(third), samples.end());
  return tail - head > slack;
}

}  // namespace perfbench
