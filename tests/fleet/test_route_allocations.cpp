// The route path allocates nothing: FleetIndex lookups, the index-only
// Warm-Aware and Least-Outstanding decisions, and an update() of a node
// whose pool did not change must not touch the heap once warmed up.
//
// This file replaces the global operator new with a counting one, so it is
// its own test binary (mlcr_alloc_tests): the replacement must not leak into
// mlcr_tests. ASan and TSan runtimes own operator new themselves; under
// them the replacement is compiled out and every case skips.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "fleet/fleet_index.hpp"
#include "fleet/router.hpp"
#include "testing/fixtures.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MLCR_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MLCR_COUNT_ALLOCATIONS 0
#endif
#endif
#ifndef MLCR_COUNT_ALLOCATIONS
#define MLCR_COUNT_ALLOCATIONS 1
#endif

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

#if MLCR_COUNT_ALLOCATIONS
// Array, nothrow and sized forms forward to these two in the standard
// library; the aligned forms allocate and free on their own, consistently.
// Kept out of line so the compiler never pairs an inlined free() with the
// new-expression that allocated the pointer.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace mlcr::fleet {
namespace {

using mlcr::testing::TinyWorld;

/// Heap allocations made while `body` runs.
template <typename Body>
std::size_t allocations_during(Body&& body) {
  g_allocations.store(0);
  g_counting.store(true);
  body();
  g_counting.store(false);
  return g_allocations.load();
}

/// Two nodes with parked idle containers: node 0 holds py-flask and
/// js-express, node 1 holds py-numpy. The index is updated twice per node,
/// so every buffer has reached its steady-state size.
class RouteAllocations : public ::testing::Test {
 protected:
  void SetUp() override {
#if !MLCR_COUNT_ALLOCATIONS
    GTEST_SKIP() << "sanitizer runtimes own operator new";
#endif
    park(env0_, trace0_);
    park(env1_, trace1_);
    for (int round = 0; round < 2; ++round) {
      index_.update(0, env0_);
      index_.update(1, env1_);
    }
    ASSERT_EQ(env0_.pool().size(), 2U);
    ASSERT_EQ(env1_.pool().size(), 1U);
  }

  /// Cold-start every invocation of `trace`, then let them all complete.
  static void park(sim::ClusterEnv& env, const sim::Trace& trace) {
    env.reset(trace);
    while (!env.done()) (void)env.step(sim::Action::cold());
    env.advance_idle(100.0);
  }

  [[nodiscard]] const containers::ImageSpec& image(
      sim::FunctionTypeId fn) const {
    return world_.functions.get(fn).image;
  }

  TinyWorld world_;
  sim::Trace trace0_ =
      TinyWorld::make_trace({TinyWorld::inv(world_.fn_py_flask, 0.0),
                             TinyWorld::inv(world_.fn_js, 0.1)});
  sim::Trace trace1_ =
      TinyWorld::make_trace({TinyWorld::inv(world_.fn_py_numpy, 0.0)});
  sim::ClusterEnv env0_ = world_.make_env();
  sim::ClusterEnv env1_ = world_.make_env();
  FleetIndex index_{2, /*track_warm=*/true};
};

TEST_F(RouteAllocations, NodesMatchingIsAllocationFree) {
  const std::vector<std::size_t>* l3 = nullptr;
  const std::vector<std::size_t>* l2 = nullptr;
  const std::vector<std::size_t>* none = nullptr;
  EXPECT_EQ(allocations_during([&] {
              l3 = index_.nodes_matching(image(world_.fn_py_flask),
                                         containers::MatchLevel::kL3);
              l2 = index_.nodes_matching(image(world_.fn_py_flask),
                                         containers::MatchLevel::kL2);
              none = index_.nodes_matching(image(world_.fn_other_os),
                                           containers::MatchLevel::kL1);
            }),
            0U);
  ASSERT_NE(l3, nullptr);
  EXPECT_EQ(*l3, (std::vector<std::size_t>{0}));
  ASSERT_NE(l2, nullptr);
  EXPECT_EQ(*l2, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(none, nullptr);
}

TEST_F(RouteAllocations, WarmAwareRouteIsAllocationFree) {
  WarmAwareRouter router;
  std::size_t numpy = 0;
  std::size_t other = 0;
  EXPECT_EQ(allocations_during([&] {
              numpy = router.route(index_, world_.functions,
                                   TinyWorld::inv(world_.fn_py_numpy, 200.0));
              other = router.route(index_, world_.functions,
                                   TinyWorld::inv(world_.fn_other_os, 200.0));
            }),
            0U);
  EXPECT_EQ(numpy, 1U);  // the L3 holder
  EXPECT_EQ(other, 0U);  // cold fallback: least outstanding, lowest index
}

TEST_F(RouteAllocations, LeastOutstandingRouteIsAllocationFree) {
  LeastOutstandingRouter router;
  std::size_t target = 2;
  EXPECT_EQ(allocations_during([&] {
              target = router.route(index_, world_.functions,
                                    TinyWorld::inv(world_.fn_js, 200.0));
            }),
            0U);
  EXPECT_EQ(target, 0U);
}

TEST_F(RouteAllocations, UpdateOfUnchangedPoolIsAllocationFree) {
  EXPECT_EQ(allocations_during([&] {
              index_.update(0, env0_);
              index_.update(1, env1_);
            }),
            0U);
  EXPECT_NE(index_.nodes_matching(image(world_.fn_js),
                                  containers::MatchLevel::kL3),
            nullptr);
}

}  // namespace
}  // namespace mlcr::fleet
