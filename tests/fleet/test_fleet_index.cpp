// FleetIndex unit tests: the guards and the routable-set bookkeeping the
// routing policies read (the index's answers themselves are pinned against
// the linear-scan oracle by the FleetEventCore suite).
#include "fleet/fleet_index.hpp"

#include <gtest/gtest.h>

#include "testing/fixtures.hpp"
#include "util/check.hpp"

namespace mlcr::fleet {
namespace {

using mlcr::testing::TinyWorld;

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

}  // namespace
}  // namespace mlcr::fleet
