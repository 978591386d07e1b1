// The serving layer, measured in the traced run of mlcr-node (it serves
// the same FStartBench overall mix, each node at the same Tight pool): the
// live SchedulerService over 16 nodes, Least-Outstanding routing, 2
// workers, shard count and batch size at the ServeConfig defaults. One
// open-loop producer (this thread) sends at a fixed nominal rate, evenly
// spaced; requests carry their trace arrival stamps, and the service clock
// runs trace time along the send schedule, so warm reuse happens as in
// replay.
//
// add_serve_layer serves a Greedy-Match fleet, where each request costs
// microseconds, so ingest queues, routing, dispatch locks and bookkeeping
// dominate. add_batching_layer serves an MLCR fleet, the only path through
// batched inference (decide_batch -> forward_batch under the inference
// mutex), for the wave metrics of the rl layer.
//
// Neither gives an end-to-end metric. Live serving times follow the shared
// machine, not the program: over ten 30 s runs a Greedy-Match service's
// capacity and decision times held steady within a set, then halved and
// doubled for a whole later set while single-threaded workloads moved by
// under a fifth; an MLCR service idles between requests, and each
// inference then runs on a freshly woken CPU.
#include <sched.h>

#include <algorithm>
#include <iostream>
#include <thread>

#include "fleet/fleet_env.hpp"
#include "fstartbench/benchmark.hpp"
#include "fstartbench/workloads.hpp"
#include "policies/baselines.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "timed.hpp"

namespace perfbench {

namespace {

using namespace mlcr;

constexpr std::size_t kNodes = 16;
constexpr std::size_t kWorkers = 2;
/// Per-worker queue bound. The ServeConfig default (1024) fills in ~40 ms
/// at the Greedy-Match nominal rate, so one descheduling of a worker on a
/// shared machine would show as rejections; with this bound a transient
/// stall shows as backlog and wait, and rejections mean sustained overload.
constexpr std::size_t kQueueCapacity = 1 << 16;
constexpr std::uint64_t kReferenceSeed = 1000;
/// Wall seconds of nominal-rate traffic the Greedy-Match service serves
/// before its traced phase, so threads, queues, node pools and the
/// allocator have all run at the measured rate.
constexpr double kPrewarmS = 0.5;
/// Wall seconds of the traced nominal phase.
constexpr double kNominalPhaseS = 2.0;

/// Load settings. The nominal rate sits well below the fleet's capacity on
/// a 4-core 2.1 GHz Xeon, so the nominal phase must show zero rejections;
/// the capacity search brackets the real limit.
constexpr double kNominalRps = 50'000.0;
/// Wall seconds of one capacity probe, and the search's ceiling.
constexpr double kProbeS = 0.25;
constexpr double kMaxRps = 4'000'000.0;
/// The MLCR phase: its nominal rate (about a third of that fleet's
/// capacity) and wall seconds.
constexpr double kMlcrRps = 1'000.0;
constexpr double kMlcrPhaseS = 2.0;

/// Requests the batch-end hook has yet to stamp, per worker thread.
thread_local std::vector<std::uint64_t> t_unfinished;

void remember_routed(std::uint64_t seq) { t_unfinished.push_back(seq); }

/// Service clock that runs trace time along the send schedule: at each
/// request's due time it reads that request's trace arrival stamp, and in
/// between it interpolates (trace_time_at). Requests are sent at a fixed
/// rate while carrying their trace stamps, so node clocks advance with the
/// trace and warm reuse happens as in replay. The clock also stamps the end
/// of every worker batch: the service reads it once per batch, in its
/// janitor step after the batch's last dispatch, so every request the
/// calling worker routed since its previous read is done by then. That end
/// is the only per-request completion an outside observer gets on an MLCR
/// fleet, whose waves dispatch with no per-request hook.
class TraceRateClock final : public serve::Clock {
 public:
  /// `due_s` and `arrival_s` must stay unchanged until the next call.
  void start_phase(std::int64_t epoch_ns, const std::vector<double>* due_s,
                   const std::vector<double>* arrival_s, StampTable* stamps) {
    epoch_ns_ = epoch_ns;
    due_s_ = due_s;
    arrival_s_ = arrival_s;
    stamps_ = stamps;
  }
  [[nodiscard]] double now_s() const override {
    const std::int64_t now = now_ns();
    for (const std::uint64_t seq : t_unfinished) (*stamps_)[seq].done = now;
    t_unfinished.clear();
    return trace_time_at(*due_s_, *arrival_s_,
                         static_cast<double>(now - epoch_ns_) / 1e9);
  }
  [[nodiscard]] bool is_simulated() const noexcept override { return false; }

 private:
  std::int64_t epoch_ns_ = 0;
  const std::vector<double>* due_s_ = nullptr;
  const std::vector<double>* arrival_s_ = nullptr;
  StampTable* stamps_ = nullptr;
};

/// Keeps the busy-waiting producer off the workers' CPUs: the producer runs
/// on the first CPU this process may use, the service's worker threads
/// (created by start(), inheriting the creating thread's mask) on the rest.
/// Left to itself, the scheduler places the workers differently from run
/// to run (on the producer's CPU or not), and queue waits and route times
/// switch between two levels a factor of 3 apart; the split keeps every
/// run on one of them. There is one split per process (cpu_split()), taken
/// before anything is pinned: read after the producer was pinned, the
/// allowed set would be the producer's one CPU, and every thread would end
/// up sharing it.
class CpuSplit {
 public:
  CpuSplit() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    CPU_ZERO(&producer_);
    CPU_ZERO(&workers_);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
        CPU_COUNT(&allowed) < 2)
      return;
    bool first = true;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      CPU_SET(cpu, first ? &producer_ : &workers_);
      first = false;
    }
    enabled_ = true;
  }
  /// Start the service's workers on the worker CPUs, then pin the caller
  /// (the producer) to its own.
  void start_workers(serve::SchedulerService& service) const {
    if (enabled_) sched_setaffinity(0, sizeof(workers_), &workers_);
    service.start();
    if (enabled_) sched_setaffinity(0, sizeof(producer_), &producer_);
  }

 private:
  bool enabled_ = false;
  cpu_set_t producer_;
  cpu_set_t workers_;
};

const CpuSplit& cpu_split() {
  static const CpuSplit split;
  return split;
}

struct World {
  fstartbench::Benchmark bench = fstartbench::make_benchmark();
  sim::StartupCostModel cost{bench.catalog, fstartbench::default_cost_config()};
  std::unique_ptr<LoadedModel> model;
  double pool_mb = 0.0;
  sim::Trace trace;
  std::vector<double> arrivals;
  StampTable stamps;
  std::unique_ptr<fleet::FleetEnv> fleet;
  std::vector<TimedScheduler*> timed;  ///< Greedy-Match nodes only
  TimedPolicy* policy = nullptr;       ///< owned by the service
  TraceRateClock clock;
  std::unique_ptr<serve::SchedulerService> service;
};

/// Outcome of one open-loop phase.
struct Phase {
  serve::ServeSummary summary;
  std::size_t sent = 0;
  std::int64_t first_due = 0;
  std::int64_t last_sent = 0;
  std::int64_t drained = 0;  ///< backlog reached 0 after the last send
  std::vector<double> backlog;  ///< sampled every ~1 ms of schedule
  std::vector<double> late_sampled_us;  ///< generator lateness, same samples
  std::vector<double> late_us;  ///< generator lateness per request
};

double backlog_of(const serve::ServeStats& s) {
  return static_cast<double>(s.submitted) -
         static_cast<double>(s.routed + s.rejected + s.lost);
}

/// Send the first `count` requests of the trace at a fixed `rate` per
/// second, open loop, then wait for the service to drain and end the
/// episode.
Phase run_phase(World& w, double rate, std::size_t count, bool traced,
                Result& result) {
  Phase p;
  count = std::min(count, w.trace.size());
  std::fill(w.stamps.begin(), w.stamps.begin() + static_cast<long>(count),
            Stamps{});
  const std::vector<double> arrivals(w.arrivals.begin(),
                                     w.arrivals.begin() + static_cast<long>(count));
  const std::vector<double> offsets = due_offsets(count, rate);
  for (TimedScheduler* t : w.timed) t->set_enabled(traced);
  w.policy->set_route_hook(remember_routed);

  const std::int64_t epoch = now_ns() + 2'000'000;  // workers up first
  w.clock.start_phase(epoch, &offsets, &arrivals, &w.stamps);
  w.service->begin_episode();
  cpu_split().start_workers(*w.service);

  p.late_us.reserve(count);
  p.backlog.reserve(static_cast<std::size_t>(offsets.back() * 1e3) + 16);
  p.late_sampled_us.reserve(p.backlog.capacity());
  std::int64_t next_sample = epoch;
  const auto& invs = w.trace.invocations();
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t due = epoch + static_cast<std::int64_t>(offsets[i] * 1e9);
    std::int64_t now = now_ns();
    while (now < due) {
      if (due - now > 100'000) std::this_thread::yield();
      now = now_ns();
    }
    (void)w.service->submit(invs[i]);
    const std::int64_t sent = now_ns();
    Stamps& s = w.stamps[i];
    s.due = due;
    s.sent = sent;
    p.late_us.push_back(generator_late_us(s));
    if (due >= next_sample) {
      p.backlog.push_back(backlog_of(w.service->stats()));
      p.late_sampled_us.push_back(p.late_us.back());
      next_sample = due + 1'000'000;
    }
  }
  p.sent = count;
  p.first_due = epoch;
  p.last_sent = now_ns();
  while (backlog_of(w.service->stats()) > 0.0) std::this_thread::yield();
  p.drained = now_ns();
  p.summary = w.service->finish_episode();
  const serve::ServeStats& st = p.summary.stats;
  result.check(st.submitted == count &&
                   st.submitted == st.routed + st.rejected + st.lost,
               "serve: submitted " + std::to_string(st.submitted) +
                   " != routed " + std::to_string(st.routed) + " + rejected " +
                   std::to_string(st.rejected) + " + lost " +
                   std::to_string(st.lost));
  return p;
}

/// The first `count` requests of the trace through run_replay on a
/// SimClock (same fleet, routing and worker count as the live service):
/// the deterministic simulated outcome of the traffic the live run served.
serve::ServeSummary replay(World& w, std::size_t count) {
  serve::SimClock sim_clock;
  serve::ServeConfig sc;
  sc.workers = kWorkers;
  serve::SchedulerService replay_service(
      *w.fleet, sim_clock, std::make_unique<serve::LeastOutstandingPolicy>(), sc);
  const std::vector<sim::Invocation> head(
      w.trace.invocations().begin(),
      w.trace.invocations().begin() +
          static_cast<long>(std::min(count, w.trace.size())));
  for (TimedScheduler* t : w.timed) t->set_enabled(false);
  return replay_service.run_replay(sim::Trace(head));
}

/// Highest offered rate with no rejections or loss, a backlog that does not
/// grow and a generator that does not fall behind, searched up from the
/// nominal rate.
double capacity(World& w, bool traced, Result& result, std::size_t* probes) {
  CapacitySearch search;
  search.start = kNominalRps;
  search.growth = 2.0;
  search.max_rate = kMaxRps;
  search.refine_steps = 5;
  return search.run(
      [&](double rate) {
        const auto count = static_cast<std::size_t>(rate * kProbeS);
        const Phase p = run_phase(w, rate, count, traced, result);
        // Falling behind by 1 % of the probe: in requests for the service,
        // in time for the generator.
        const double backlog_slack =
            std::max(64.0, 0.01 * static_cast<double>(p.sent));
        const double late_slack_us = 0.01 * kProbeS * 1e6;
        return p.summary.stats.rejected == 0 && p.summary.stats.lost == 0 &&
               !grows(p.backlog, backlog_slack) &&
               !grows(p.late_sampled_us, late_slack_us);
      },
      probes);
}

/// A fleet of Greedy-Match or MLCR nodes behind a live service, and
/// `requests` requests of the seed's traffic.
std::unique_ptr<World> build_world(const Options& opts, bool mlcr,
                                   std::size_t requests) {
  auto w = std::make_unique<World>();
  if (mlcr) w->model = std::make_unique<LoadedModel>(load_model("bench_overall.model"));
  util::Rng ref_rng(kReferenceSeed);
  const sim::Trace reference =
      fstartbench::make_overall_workload(w->bench, 400, ref_rng);
  // Each node gets the paper's Tight pool of the single-node reference.
  w->pool_mb = fstartbench::paper_pool_sizes(
                   fstartbench::estimate_loose_capacity_mb(w->bench, reference))
                   .tight_mb;
  util::Rng rng(opts.seed);
  w->trace = overall_traffic(w->bench, reference, requests, rng);
  for (const sim::Invocation& inv : w->trace.invocations())
    w->arrivals.push_back(inv.arrival_s);
  w->stamps.assign(w->trace.size(), Stamps{});

  fleet::FleetConfig fc;
  fc.nodes = kNodes;
  fc.node_env.pool_capacity_mb = w->pool_mb;
  World* raw = w.get();
  fleet::NodeSystemFactory factory;
  if (mlcr) {
    factory = [raw](std::size_t, util::Rng) {
      return core::make_mlcr_system(raw->model->agent,
                                    raw->model->config.encoder);
    };
  } else {
    factory = [raw](std::size_t, util::Rng) {
      policies::SystemSpec spec = policies::make_greedy_match_system();
      auto timed = std::make_unique<TimedScheduler>(std::move(spec.scheduler),
                                                    raw->stamps, true);
      raw->timed.push_back(timed.get());
      spec.scheduler = std::move(timed);
      return spec;
    };
  }
  w->fleet = std::make_unique<fleet::FleetEnv>(
      w->bench.functions, w->bench.catalog, w->cost, fc, factory);
  auto policy = std::make_unique<TimedPolicy>(
      std::make_unique<serve::LeastOutstandingPolicy>(), w->stamps);
  w->policy = policy.get();
  serve::ServeConfig sc;
  sc.workers = kWorkers;
  sc.queue_capacity = kQueueCapacity;
  w->service = std::make_unique<serve::SchedulerService>(
      *w->fleet, w->clock, std::move(policy), sc);
  return w;
}

}  // namespace

void add_serve_layer(const Options& opts, Result& result) {
  const std::string name = "serve layer";
  // Enough requests for the longest phase: the traced nominal phase, or a
  // probe at the rate ceiling (1.2M req/s, well past any capacity seen).
  const auto nominal_count = static_cast<std::size_t>(kNominalRps * kNominalPhaseS);
  auto w = build_world(
      opts, /*mlcr=*/false,
      std::max(nominal_count,
               static_cast<std::size_t>(std::min(kMaxRps, 1.2e6) * kProbeS)));
  {
    Result scratch;  // pre-warm at the nominal rate
    (void)run_phase(*w, kNominalRps,
                    static_cast<std::size_t>(kNominalRps * kPrewarmS), false,
                    scratch);
  }

  // One traced nominal phase whose stamps become per-request spans: root
  // [due, done] with children serve.queue_wait [due, first route],
  // serve.route, policies.decide and sim.step. Zero rejections and loss at
  // the nominal rate is a validity guard: a nominal rate the service cannot
  // carry measures overload.
  const Phase p = run_phase(*w, kNominalRps, nominal_count, true, result);
  const serve::ServeStats& st = p.summary.stats;
  const fleet::FleetSummary& f = p.summary.fleet;
  result.check(st.rejected == 0 && st.lost == 0,
               name + ": " + std::to_string(st.rejected) + " rejected and " +
                   std::to_string(st.lost) + " lost at the nominal rate");
  SpanLog spans(5 * p.sent + 16);
  const auto n_req = spans.name_id("request");
  const auto n_wait = spans.name_id("serve.queue_wait");
  const auto n_route = spans.name_id("serve.route");
  const auto n_decide = spans.name_id("policies.decide");
  const auto n_step = spans.name_id("sim.step");
  std::vector<double> waits;
  for (std::size_t i = 0; i < p.sent; ++i) {
    const Stamps& s = w->stamps[i];
    if (s.route_start == 0 || s.done == 0) continue;  // rejected or lost
    waits.push_back(wait_us(s));
    const SpanLog::Id root = spans.add(n_req, i, SpanLog::kNoParent, s.due, s.done);
    spans.add(n_wait, i, root, s.due, s.route_start);
    spans.add(n_route, i, root, s.route_start, s.route_start + s.route_ns);
    spans.add(n_decide, i, root, s.decide_start, s.decide_end);
    spans.add(n_step, i, root, s.decide_end, s.step_end);
  }
  result.check(spans.size() > 0, name + ": the traced phase stamped no request");

  // The same requests through run_replay on a SimClock, for the live cold
  // ratio's baseline; then one capacity search, untraced.
  const serve::ServeSummary replayed = replay(*w, p.sent);
  const double cap = capacity(*w, false, result, nullptr);
  result.check(cap > 0.0, name + ": the service did not keep up even at the "
                                 "nominal rate");

  result.add("serve.route_us",
             percentiles(spans.self_times_us("serve.route"), {50.0},
                         "serve.route_us")[0],
             "us");
  result.add("serve.requests_per_batch",
             static_cast<double>(st.routed) / static_cast<double>(st.batches),
             "ratio");
  result.add("serve.drain_ms", static_cast<double>(p.drained - p.last_sent) / 1e6,
             "ms");
  result.add("serve.backlog_max",
             *std::max_element(p.backlog.begin(), p.backlog.end()), "count");
  result.add("serve.generator_late_p99_us",
             percentiles(p.late_us, {99.0}, "generator_late_us")[0], "us");
  result.add("serve.wait_p99_us",
             percentiles(waits, {99.0}, "serve.wait_us")[0], "us");
  result.add("serve.capacity_rps", cap, "1/s");
  result.add("serve.rejected", static_cast<double>(st.rejected), "count");
  result.add("serve.lost", static_cast<double>(st.lost), "count");
  result.add("serve.cold_start_ratio",
             static_cast<double>(f.total.cold_starts) /
                 static_cast<double>(f.total.invocations),
             "fraction");
  result.add("serve.replay_cold_start_ratio",
             static_cast<double>(replayed.fleet.total.cold_starts) /
                 static_cast<double>(replayed.fleet.total.invocations),
             "fraction");
  std::cout << name << ": " << kNodes << " Greedy-Match nodes, " << p.sent
            << " requests at " << kNominalRps << " req/s, live cold "
            << f.total.cold_starts << "/" << f.total.invocations
            << ", replay cold " << replayed.fleet.total.cold_starts << "/"
            << replayed.fleet.total.invocations << ", capacity " << cap
            << " req/s\n";
  if (!spans.write_csv(span_path(opts, "-serve")))
    result.fail("cannot write " + span_path(opts, "-serve"));
}

void add_batching_layer(const Options& opts, Result& result) {
  const auto count = static_cast<std::size_t>(kMlcrRps * kMlcrPhaseS);
  const auto w = build_world(opts, /*mlcr=*/true, count);
  const Phase p = run_phase(*w, kMlcrRps, count, false, result);
  const serve::ServeStats& st = p.summary.stats;
  result.check(st.rejected == 0 && st.lost == 0 && st.inference_calls > 0,
               "batching layer: the MLCR service rejected or lost requests, "
               "or ran no inference");
  result.add("rl.requests_per_inference",
             static_cast<double>(st.routed) /
                 static_cast<double>(std::max<std::size_t>(st.inference_calls, 1)),
             "ratio");
  result.add("rl.max_wave", static_cast<double>(st.max_wave), "count");
  std::cout << "batching layer: " << kNodes << " MLCR nodes, " << p.sent
            << " requests at " << kMlcrRps << " req/s, " << st.inference_calls
            << " inference calls, widest wave " << st.max_wave << "\n";
}

}  // namespace perfbench
