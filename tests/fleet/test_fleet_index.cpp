// FleetIndex unit tests: the guards, the routable-set bookkeeping, the
// load-minimum tournament's contract and warm-key removal (the index's
// answers on whole runs are pinned against the linear-scan oracle by the
// FleetEventCore suite).
#include "fleet/fleet_index.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "testing/fixtures.hpp"
#include "util/check.hpp"

namespace mlcr::fleet {
namespace {

using mlcr::testing::TinyWorld;

/// An env with `busy` long invocations of `fn` in flight (none complete
/// before t = 1000 s).
sim::ClusterEnv busy_env(const TinyWorld& world, std::size_t busy,
                         sim::FunctionTypeId fn) {
  sim::ClusterEnv env = world.make_env();
  env.reset_streaming();
  for (std::size_t k = 0; k < busy; ++k) {
    env.offer(TinyWorld::inv(fn, 0.01 * static_cast<double>(k), 1000.0));
    (void)env.step(sim::Action::cold());
  }
  return env;
}

TEST(FleetIndex, RejectsWarmLookupWhenNotTracking) {
  TinyWorld world;
  const FleetIndex index(2, /*track_warm=*/false);
  EXPECT_THROW((void)index.nodes_matching(
                   world.functions.get(world.fn_py_flask).image,
                   containers::MatchLevel::kL1),
               util::CheckError);
}

TEST(FleetIndex, RoutableCountFollowsSetRoutable) {
  FleetIndex index(3, /*track_warm=*/false);
  EXPECT_EQ(index.routable_count(), 3U);
  index.set_routable(2, false);
  index.set_routable(2, false);  // idempotent
  EXPECT_EQ(index.routable_count(), 2U);
  EXPECT_FALSE(index.node_load(2).routable);
  index.set_routable(2, true);
  EXPECT_EQ(index.routable_count(), 3U);
  EXPECT_EQ(index.node_count(), 3U);
}

TEST(FleetIndex, EqualBusyTiesGoToTheLowestIndex) {
  TinyWorld world;
  std::vector<sim::ClusterEnv> envs;
  for (const std::size_t busy : {1, 0, 2, 0, 0})
    envs.push_back(busy_env(world, busy, world.fn_js));
  FleetIndex index(envs.size(), /*track_warm=*/false);
  for (std::size_t n = envs.size(); n-- > 0;) index.update(n, envs[n]);
  EXPECT_EQ(index.least_outstanding(), 1U);
  EXPECT_EQ(index.least_outstanding_healthy(), 1U);
  // Node 1 gains work: the next zero-busy node in index order wins.
  envs[1].offer(TinyWorld::inv(world.fn_js, 0.5, 1000.0));
  (void)envs[1].step(sim::Action::cold());
  index.update(1, envs[1]);
  EXPECT_EQ(index.least_outstanding(), 3U);
  EXPECT_EQ(index.least_outstanding_healthy(), 3U);
}

TEST(FleetIndex, DownNodesLeaveOnlyTheHealthyMinimum) {
  TinyWorld world;
  std::vector<sim::ClusterEnv> envs;
  envs.push_back(busy_env(world, 0, world.fn_js));
  envs.push_back(busy_env(world, 1, world.fn_js));
  envs[0].crash(1.0);
  ASSERT_TRUE(envs[0].down());
  FleetIndex index(envs.size(), /*track_warm=*/false);
  for (std::size_t n = 0; n < envs.size(); ++n) index.update(n, envs[n]);
  EXPECT_EQ(index.least_outstanding(), 0U);
  EXPECT_EQ(index.least_outstanding_healthy(), 1U);
  envs[1].crash(1.0);
  index.update(1, envs[1]);
  EXPECT_EQ(index.least_outstanding(), 0U);
  EXPECT_EQ(index.least_outstanding_healthy(), std::nullopt);
  envs[0].recover(2.0);
  index.update(0, envs[0]);
  EXPECT_EQ(index.least_outstanding_healthy(), 0U);
}

TEST(FleetIndex, SetRoutableRemovesAndRestoresANode) {
  TinyWorld world;
  std::vector<sim::ClusterEnv> envs;
  envs.push_back(busy_env(world, 0, world.fn_js));
  envs.push_back(busy_env(world, 2, world.fn_js));
  FleetIndex index(envs.size(), /*track_warm=*/false);
  for (std::size_t n = 0; n < envs.size(); ++n) index.update(n, envs[n]);
  index.set_routable(0, false);
  EXPECT_EQ(index.least_outstanding(), 1U);
  EXPECT_EQ(index.least_outstanding_healthy(), 1U);
  index.set_routable(0, true);
  EXPECT_EQ(index.least_outstanding(), 0U);
  EXPECT_EQ(index.least_outstanding_healthy(), 0U);
  // With no routable node left there is no minimum at all.
  index.set_routable(0, false);
  index.set_routable(1, false);
  EXPECT_THROW((void)index.least_outstanding(), util::CheckError);
  EXPECT_EQ(index.least_outstanding_healthy(), std::nullopt);
}

TEST(FleetIndex, LeastOutstandingBeforeAnyUpdateThrows) {
  const FleetIndex index(3, /*track_warm=*/false);
  EXPECT_THROW((void)index.least_outstanding(), util::CheckError);
  EXPECT_EQ(index.least_outstanding_healthy(), std::nullopt);
  EXPECT_FALSE(index.node_load(0).seen);
}

TEST(FleetIndex, NodesMatchingForgetsANodeWhenItsLastMatchLeaves) {
  TinyWorld world;
  sim::ClusterEnv env = world.make_env();
  env.reset_streaming();
  env.offer(TinyWorld::inv(world.fn_py_flask, 0.0, 0.5));
  (void)env.step(sim::Action::cold());
  env.offer(TinyWorld::inv(world.fn_py_numpy, 0.1, 0.5));
  (void)env.step(sim::Action::cold());
  env.advance_idle(100.0);
  ASSERT_EQ(env.pool().size(), 2U);

  FleetIndex index(1, /*track_warm=*/true);
  index.update(0, env);
  const auto& flask = world.functions.get(world.fn_py_flask).image;
  using containers::MatchLevel;
  ASSERT_NE(index.nodes_matching(flask, MatchLevel::kL3), nullptr);
  EXPECT_EQ(*index.nodes_matching(flask, MatchLevel::kL3),
            (std::vector<std::size_t>{0}));

  // Reuse the flask container: the node no longer holds an L3 match for
  // flask, but the numpy container still gives it an L2 one.
  containers::ContainerId flask_container = containers::kInvalidContainer;
  for (const containers::Container* c : env.pool().idle_containers())
    if (c->image == flask) flask_container = c->id;
  ASSERT_NE(flask_container, containers::kInvalidContainer);
  env.offer(TinyWorld::inv(world.fn_py_flask, 200.0, 0.5));
  ASSERT_FALSE(env.step(sim::Action::reuse(flask_container)).cold);
  index.update(0, env);
  EXPECT_EQ(index.nodes_matching(flask, MatchLevel::kL3), nullptr);
  ASSERT_NE(index.nodes_matching(flask, MatchLevel::kL2), nullptr);
  EXPECT_EQ(*index.nodes_matching(flask, MatchLevel::kL2),
            (std::vector<std::size_t>{0}));
}

}  // namespace
}  // namespace mlcr::fleet
