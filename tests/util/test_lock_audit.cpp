// Runtime lock-order validator tests. The validator methods are always
// compiled, so the core semantics (ascending-only acquisition, legal
// out-of-LIFO release, per-thread isolation) are testable in every build;
// only the LockRankScope instrumentation is gated on MLCR_AUDIT_ENABLED.
#include "util/lock_audit.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "util/check.hpp"

namespace mlcr::util {
namespace {

// Every test starts and ends with a clean thread-local stack; reset() on
// entry guards against a previous test's thrown CheckError leaving ranks
// registered.
class LockAuditTest : public ::testing::Test {
 protected:
  void SetUp() override { LockOrderValidator::reset(); }
  void TearDown() override { LockOrderValidator::reset(); }
};

TEST_F(LockAuditTest, AscendingAcquisitionIsLegal) {
  LockOrderValidator::acquired(lock_ranks::kDispatch, "dispatch");
  LockOrderValidator::acquired(lock_ranks::kInference, "inference");
  LockOrderValidator::acquired(lock_ranks::kIndex, "index");
  LockOrderValidator::acquired(lock_ranks::registry_slot(0), "slot 0");
  LockOrderValidator::acquired(lock_ranks::registry_slot(3), "slot 3");
  EXPECT_EQ(LockOrderValidator::held_count(), 5U);
}

TEST_F(LockAuditTest, DescendingAcquisitionThrows) {
  LockOrderValidator::acquired(lock_ranks::kInference, "inference");
  EXPECT_THROW(LockOrderValidator::acquired(lock_ranks::kDispatch, "dispatch"),
               CheckError);
}

TEST_F(LockAuditTest, DoubleAcquisitionThrowsWithADistinctMessage) {
  LockOrderValidator::acquired(lock_ranks::kDispatch, "dispatch");
  try {
    LockOrderValidator::acquired(lock_ranks::kDispatch, "dispatch");
    FAIL() << "double acquisition must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("acquired twice"), std::string::npos);
  }
}

TEST_F(LockAuditTest, InversionMessageNamesTheDeclaredOrder) {
  LockOrderValidator::acquired(lock_ranks::kIndex, "index");
  try {
    LockOrderValidator::acquired(lock_ranks::kInference, "inference");
    FAIL() << "inversion must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("declared order"), std::string::npos);
  }
}

TEST_F(LockAuditTest, OutOfLifoReleaseIsLegal) {
  // A guard vector destroys front-to-back: releases arrive in acquisition
  // order, not reverse order.
  LockOrderValidator::acquired(lock_ranks::registry_slot(0), "slot 0");
  LockOrderValidator::acquired(lock_ranks::registry_slot(1), "slot 1");
  LockOrderValidator::acquired(lock_ranks::registry_slot(2), "slot 2");
  LockOrderValidator::released(lock_ranks::registry_slot(0));
  LockOrderValidator::released(lock_ranks::registry_slot(1));
  EXPECT_EQ(LockOrderValidator::held_count(), 1U);
  // With slot 2 still held, a lower rank is still an inversion.
  EXPECT_THROW(
      LockOrderValidator::acquired(lock_ranks::registry_slot(1), "slot 1"),
      CheckError);
  LockOrderValidator::released(lock_ranks::registry_slot(2));
  EXPECT_EQ(LockOrderValidator::held_count(), 0U);
}

TEST_F(LockAuditTest, ReleasingAnUnheldRankIsIgnored) {
  LockOrderValidator::released(lock_ranks::kInference);
  EXPECT_EQ(LockOrderValidator::held_count(), 0U);
  LockOrderValidator::acquired(lock_ranks::registry_slot(7), "slot 7");
  LockOrderValidator::released(lock_ranks::kInference);
  EXPECT_EQ(LockOrderValidator::held_count(), 1U);
}

TEST_F(LockAuditTest, ReacquisitionAfterReleaseIsLegal) {
  LockOrderValidator::acquired(lock_ranks::kInference, "inference");
  LockOrderValidator::released(lock_ranks::kInference);
  LockOrderValidator::acquired(lock_ranks::kDispatch, "dispatch");
  LockOrderValidator::acquired(lock_ranks::kInference, "inference");
  EXPECT_EQ(LockOrderValidator::held_count(), 2U);
}

TEST_F(LockAuditTest, HeldStacksAreThreadLocal) {
  LockOrderValidator::acquired(lock_ranks::kIndex, "index");
  // Another thread starts empty: acquiring a rank far below what this
  // thread holds is legal there.
  std::thread other([] {
    EXPECT_EQ(LockOrderValidator::held_count(), 0U);
    LockOrderValidator::acquired(lock_ranks::kDispatch, "dispatch");
    EXPECT_EQ(LockOrderValidator::held_count(), 1U);
    LockOrderValidator::released(lock_ranks::kDispatch);
  });
  other.join();
  EXPECT_EQ(LockOrderValidator::held_count(), 1U);
}

TEST_F(LockAuditTest, RankBandsKeepTheThreeFamiliesDisjoint) {
  // The single service locks sit strictly below the registry slot family,
  // whose members ascend by slot; treat the order as the contract.
  EXPECT_LT(lock_ranks::kDispatch, lock_ranks::kInference);
  EXPECT_LT(lock_ranks::kInference, lock_ranks::kIndex);
  EXPECT_LT(lock_ranks::kIndex, lock_ranks::kTelemetry);
  EXPECT_LT(lock_ranks::kTelemetry, lock_ranks::registry_slot(0));
  EXPECT_LT(lock_ranks::registry_slot(0), lock_ranks::registry_slot(1));
}

TEST_F(LockAuditTest, LockRankScopeMatchesTheBuildMode) {
  {
    const LockRankScope scope(lock_ranks::kInference, "inference");
#if MLCR_AUDIT_ENABLED
    EXPECT_EQ(LockOrderValidator::held_count(), 1U);
#else
    EXPECT_EQ(LockOrderValidator::held_count(), 0U);
#endif
  }
  // Whether the scope was live or compiled away, nothing leaks past it.
  EXPECT_EQ(LockOrderValidator::held_count(), 0U);
}

TEST_F(LockAuditTest, MovedFromScopeDoesNotDoubleRelease) {
  LockRankScope outer(lock_ranks::kDispatch, "dispatch");
  {
    const LockRankScope inner(std::move(outer));
#if MLCR_AUDIT_ENABLED
    EXPECT_EQ(LockOrderValidator::held_count(), 1U);
#endif
  }
  // inner released the rank; outer's destructor must not release again
  // (visible as held_count going "negative" via erase of a fresh rank).
  EXPECT_EQ(LockOrderValidator::held_count(), 0U);
  LockOrderValidator::acquired(lock_ranks::kDispatch, "dispatch");
  EXPECT_EQ(LockOrderValidator::held_count(), 1U);
}

}  // namespace
}  // namespace mlcr::util
