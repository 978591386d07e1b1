// MLCR decides exactly as it did under the scalar GEMM loops. An oracle
// forward pass rebuilds QNetwork's forward from a network's parameters with
// every matrix product taken by the scalar loops in nn/gemm_oracle.hpp (the
// layers without a GEMM — LayerNorm, softmax, ReLU, bias broadcast — are the
// library's own). Over every state of a fig8-sized Tight-pool episode, the
// library's Q vectors must equal the oracle's bit for bit, and MlcrScheduler
// must pick the oracle's action: for the committed bench_overall.model and
// for an untrained network of the same shape.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "containers/pool.hpp"
#include "core/mlcr.hpp"
#include "fstartbench/benchmark.hpp"
#include "fstartbench/workloads.hpp"
#include "nn/gemm_oracle.hpp"
#include "nn/layers.hpp"
#include "sim/env.hpp"

namespace mlcr::core {
namespace {

using nn::Parameter;
using nn::oracle::same_bits;
using nn::Tensor;

const std::string kModel =
    std::string(MLCR_SOURCE_DIR) + "/bench_overall.model";

/// QNetwork::forward with scalar GEMMs. Reads the parameters in
/// QNetwork::collect_parameters order (attention path only).
class OracleForward {
 public:
  explicit OracleForward(rl::QNetwork& net)
      : config_(net.config()), params_(net.parameters()) {}

  Tensor operator()(const Tensor& tokens) {
    next_ = 0;
    Tensor h = linear(tokens);
    for (std::size_t b = 0; b < config_.blocks; ++b) h = block(h);
    h = layer_norm(h);
    const Tensor values = linear(h);
    Tensor q(config_.num_slots + 1, 1);
    for (std::size_t slot = 0; slot < config_.num_slots; ++slot)
      q(slot, 0) = values(rl::kFirstSlotTokenRow + slot, 0);
    q(config_.num_slots, 0) = values(rl::kFunctionTokenRow, 0);
    EXPECT_EQ(next_, params_.size());
    return q;
  }

 private:
  const Tensor& take() { return params_.at(next_++)->value; }

  Tensor linear(const Tensor& x) {
    Tensor out = nn::oracle::matmul(x, take());
    out.add_row_broadcast_(take());
    return out;
  }

  Tensor layer_norm(const Tensor& x) {
    nn::LayerNorm ln(x.cols());
    const std::vector<Parameter*> p = ln.parameters();
    p[0]->value = take();
    p[1]->value = take();
    return ln.forward(x);
  }

  Tensor block(const Tensor& x) {
    Tensor h = x;
    h.add_(attention(layer_norm(x)));
    Tensor y = h;
    const Tensor up = linear(layer_norm(h));
    nn::ReLU relu;
    y.add_(linear(relu.forward(up)));
    return y;
  }

  Tensor attention(const Tensor& x) {
    const Tensor q = linear(x);
    const Tensor k = linear(x);
    const Tensor v = linear(x);
    const std::size_t dh = config_.embed_dim / config_.heads;
    const float scale = 1.0F / std::sqrt(static_cast<float>(dh));
    Tensor concat(x.rows(), config_.embed_dim);
    for (std::size_t h = 0; h < config_.heads; ++h) {
      const Tensor qh = columns(q, h * dh, dh);
      const Tensor kh = columns(k, h * dh, dh);
      const Tensor vh = columns(v, h * dh, dh);
      Tensor scores = nn::oracle::matmul_nt(qh, kh);
      scores.scale_(scale);
      const Tensor head = nn::oracle::matmul(nn::softmax_rows(scores), vh);
      for (std::size_t r = 0; r < head.rows(); ++r)
        for (std::size_t c = 0; c < dh; ++c)
          concat(r, h * dh + c) += head(r, c);
    }
    return linear(concat);
  }

  static Tensor columns(const Tensor& src, std::size_t from, std::size_t n) {
    Tensor out(src.rows(), n);
    for (std::size_t r = 0; r < src.rows(); ++r)
      for (std::size_t c = 0; c < n; ++c) out(r, c) = src(r, from + c);
    return out;
  }

  rl::QNetworkConfig config_;
  std::vector<Parameter*> params_;
  std::size_t next_ = 0;
};

bool same_action(const sim::Action& a, const sim::Action& b) {
  return a.kind == b.kind && a.container == b.container;
}

struct EpisodeCounts {
  std::size_t steps = 0;
  std::size_t reuses = 0;
  /// Decisions other than the lowest allowed action index: the ones only a
  /// non-degenerate Q vector can make (ties and NaNs keep the first).
  std::size_t past_first_allowed = 0;
};

/// Runs fig8's overall workload (400 invocations) at the paper's Tight pool
/// (Loose / 5) under MlcrScheduler, checking every step against the oracle.
EpisodeCounts expect_episode_matches_oracle(
    const std::shared_ptr<rl::DqnAgent>& agent, const MlcrConfig& config) {
  OracleForward oracle(agent->online_network());
  const fstartbench::Benchmark bench = fstartbench::make_benchmark();
  util::Rng rng(1000);
  const sim::Trace trace = fstartbench::make_overall_workload(bench, 400, rng);
  sim::EnvConfig env_config;
  env_config.pool_capacity_mb =
      fstartbench::paper_pool_sizes(
          fstartbench::estimate_loose_capacity_mb(bench, trace))
          .tight_mb;
  const sim::StartupCostModel cost(bench.catalog,
                                   fstartbench::default_cost_config());
  sim::ClusterEnv env(bench.functions, bench.catalog, cost, env_config, [] {
    return std::make_unique<containers::LruEviction>();
  });
  MlcrScheduler scheduler(agent, StateEncoder(config.encoder));
  const StateEncoder& encoder = scheduler.encoder();

  EpisodeCounts counts;
  env.reset(trace);
  scheduler.on_episode_start(env);
  double prev = 0.0;
  std::vector<EncodedState> states;
  while (!env.done()) {
    const sim::Invocation& inv = env.current();
    const EncodedState state =
        encoder.encode(env, inv, counts.steps == 0 ? inv.arrival_s : prev);
    prev = inv.arrival_s;

    const Tensor want = oracle(state.tokens);
    EXPECT_TRUE(same_bits(agent->q_values(state.tokens), want))
        << "Q vector differs at step " << counts.steps;
    const auto best = rl::masked_argmax(want, state.mask);
    EXPECT_TRUE(best.has_value());
    if (!best) return counts;
    const sim::Action expected = encoder.to_sim_action(state, *best);

    const sim::Action decided = scheduler.decide(env, inv);
    EXPECT_TRUE(same_action(decided, expected))
        << "MlcrScheduler deviates from the oracle at step " << counts.steps;
    if (decided.kind == sim::Action::Kind::kReuse) ++counts.reuses;
    std::size_t first_allowed = 0;
    while (!state.mask[first_allowed]) ++first_allowed;
    if (*best != first_allowed) ++counts.past_first_allowed;
    (void)env.step(decided);
    if (states.size() < 16) states.push_back(state);
    ++counts.steps;
  }
  EXPECT_EQ(counts.steps, trace.size());

  // The batched path (one stacked forward, 16 x 26 rows) agrees too.
  std::vector<const Tensor*> batch;
  for (const EncodedState& s : states) batch.push_back(&s.tokens);
  const std::vector<Tensor> qs = agent->q_values_batch(batch);
  EXPECT_EQ(qs.size(), states.size());
  for (std::size_t i = 0; i < qs.size() && i < states.size(); ++i)
    EXPECT_TRUE(same_bits(qs[i], oracle(states[i].tokens))) << "batch " << i;
  return counts;
}

TEST(CommittedModel, DecisionsBitIdenticalToScalarOracle) {
  const MlcrConfig config = make_default_mlcr_config();
  auto agent = std::make_shared<rl::DqnAgent>(config.dqn, util::Rng(42));
  agent->load(kModel);
  const EpisodeCounts counts = expect_episode_matches_oracle(agent, config);
  // Both kinds of decision occur, so the masks and the argmax over slot
  // tokens and the cold-start token are on the path.
  EXPECT_GT(counts.reuses, 0U);
  EXPECT_LT(counts.reuses, counts.steps);
}

TEST(CommittedModel, UntrainedNetworkAlsoMatchesScalarOracle) {
  // The committed model's weights are all zero (every Q ties, so it always
  // takes the first allowed action); a He-initialised network of the same
  // shape gives the kernels non-trivial operands and the argmax real work.
  const MlcrConfig config = make_default_mlcr_config();
  auto agent = std::make_shared<rl::DqnAgent>(config.dqn, util::Rng(42));
  const EpisodeCounts counts = expect_episode_matches_oracle(agent, config);
  EXPECT_GT(counts.past_first_allowed, 0U);
}

}  // namespace
}  // namespace mlcr::core
