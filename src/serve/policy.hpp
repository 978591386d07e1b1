// The serving plane routes with the fleet's own policy classes through
// their index-only interface (fleet::IndexRouter, fleet/router.hpp). The
// names below are aliases for code written against the serving plane's
// former types: the layered benchmark harness (perfbench/harness/timed.hpp)
// still names them, and it is versioned apart from the program.
#pragma once

#include "fleet/fleet_index.hpp"
#include "fleet/router.hpp"

namespace mlcr::serve {

using RoutePolicy = fleet::IndexRouter;
using ShardedFleetIndex = fleet::FleetIndex;
using LeastOutstandingPolicy = fleet::LeastOutstandingRouter;

}  // namespace mlcr::serve
