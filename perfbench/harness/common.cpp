#include <filesystem>
#include <fstream>
#include <sys/resource.h>

#include "common.hpp"
#include "stats.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void zero_idle_layers(Result& result, const std::vector<MetricSpec>& declared,
                      const std::vector<std::string>& idle_layers) {
  for (const MetricSpec& spec : declared) {
    bool idle = false;
    for (const std::string& prefix : idle_layers)
      idle = idle || spec.name.rfind(prefix, 0) == 0;
    if (!idle) continue;
    bool measured = false;
    for (const Metric& m : result.metrics) measured = measured || m.name == spec.name;
    if (!measured) result.add(spec.name, 0.0, spec.unit);
  }
}

bool same_outcome(const mlcr::policies::EpisodeSummary& a,
                  const mlcr::policies::EpisodeSummary& b) {
  return a.invocations == b.invocations &&
         a.total_latency_s == b.total_latency_s &&
         a.cold_starts == b.cold_starts && a.warm_l1 == b.warm_l1 &&
         a.warm_l2 == b.warm_l2 && a.warm_l3 == b.warm_l3 &&
         a.peak_pool_mb == b.peak_pool_mb && a.evictions == b.evictions &&
         a.rejections == b.rejections && a.failed == b.failed &&
         a.retries == b.retries;
}

void add_sim_layer(Result& result, const mlcr::policies::EpisodeSummary& total,
                   std::vector<double> startup_latencies_s) {
  const double n = static_cast<double>(total.invocations);
  const auto share = [n](std::size_t count) {
    return static_cast<double>(count) / n;
  };
  result.add("sim.cold_start_ratio", share(total.cold_starts), "fraction");
  result.add("sim.reuse_l1_ratio", share(total.warm_l1), "fraction");
  result.add("sim.reuse_l2_ratio", share(total.warm_l2), "fraction");
  result.add("sim.reuse_l3_ratio", share(total.warm_l3), "fraction");
  result.add("sim.evictions_per_kinv", 1000.0 * share(total.evictions),
             "1/kinv");
  const auto p = percentiles(std::move(startup_latencies_s), {50.0, 99.0},
                             "sim.startup_s");
  result.add("sim.startup_p50_s", p[0], "s");
  result.add("sim.startup_p99_s", p[1], "s");
}

std::string span_path(const Options& opts, const std::string& part) {
  return ".bench_build/perfbench-out/spans-" + opts.workload + "-seed" +
         std::to_string(opts.seed) + part + ".csv";
}

std::uint16_t SpanLog::name_id(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  names_.push_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

SpanLog::Id SpanLog::add(std::uint16_t name, std::uint64_t seq, Id parent,
                         std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back({start_ns, end_ns, seq, parent, name});
  return static_cast<Id>(spans_.size() - 1);
}

std::vector<double> SpanLog::self_times_us(const std::string& name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent != kNoParent)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (names_[s.name] != name) continue;
    out.push_back(ns_to_us(s.end_ns - s.start_ns - child_ns[i]));
  }
  return out;
}

double SpanLog::total_us(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (names_[s.name] == name) total += ns_to_us(s.end_ns - s.start_ns);
  return total;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  out << "seq,name,parent,start_ns,end_ns\n";
  for (const Span& s : spans_)
    out << s.seq << ',' << names_[s.name] << ',' << s.parent << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
