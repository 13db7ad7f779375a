// Contract-layer tests: SSJOIN_CHECK aborts with a useful message,
// SSJOIN_DCHECK compiles out in Release (NDEBUG without
// SSJOIN_ENABLE_DCHECKS), and the bounds/unreachable helpers hold their
// contracts. Death tests match the "SSJOIN_CHECK failed" marker that
// util/check.cc prints to stderr before aborting.

#include "util/check.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "util/status.h"

namespace ssjoin {
namespace {

TEST(CheckTest, PassingCheckIsSilent) {
  SSJOIN_CHECK(1 + 1 == 2);
  SSJOIN_CHECK(true, "message with args {} {}", 1, "two");
  SUCCEED();
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(SSJOIN_CHECK(false), "SSJOIN_CHECK failed: false");
}

TEST(CheckDeathTest, MessageIsFormattedIntoAbortOutput) {
  EXPECT_DEATH(SSJOIN_CHECK(2 < 1, "saw {} and {}", 42, "forty-three"),
               "saw 42 and forty-three");
}

TEST(CheckDeathTest, FailureReportsFileAndLine) {
  EXPECT_DEATH(SSJOIN_CHECK(false), "check_test.cc:[0-9]+");
}

TEST(CheckTest, ConditionIsEvaluatedExactlyOnce) {
  int evaluations = 0;
  SSJOIN_CHECK([&] {
    ++evaluations;
    return true;
  }());
  EXPECT_EQ(evaluations, 1);
}

TEST(CheckDeathTest, CheckBoundsAcceptsInRangeAndRejectsOutOfRange) {
  uint32_t n = 8;
  SSJOIN_CHECK_BOUNDS(0u, n);
  SSJOIN_CHECK_BOUNDS(7u, n);
  EXPECT_DEATH(SSJOIN_CHECK_BOUNDS(8u, n), "out of bounds \\[0, 8\\)");
  EXPECT_DEATH(SSJOIN_CHECK_BOUNDS(-1, n), "SSJOIN_CHECK failed");
}

TEST(CheckDeathTest, UnreachableAlwaysAborts) {
  EXPECT_DEATH(SSJOIN_UNREACHABLE("fell off a validated enum: {}", 99),
               "fell off a validated enum: 99");
}

TEST(CheckTest, FormatHandlesPlaceholderMismatches) {
  // More args than placeholders: stragglers are appended, not dropped.
  EXPECT_EQ(internal::FormatCheckMessage("x = {}", 1, 2), "x = 1 2");
  // Fewer args than placeholders: the extra "{}" survives verbatim.
  EXPECT_EQ(internal::FormatCheckMessage("{} then {}", "a"), "a then {}");
  EXPECT_EQ(internal::FormatCheckMessage("no args"), "no args");
}

// The DCHECK build-mode contract. With DCHECKs on, violations abort like
// CHECK; with DCHECKs compiled out (Release), the statement must be a
// no-op that does not even evaluate its condition.
#if SSJOIN_DCHECKS_ENABLED

TEST(CheckDeathTest, DcheckAbortsWhenEnabled) {
  EXPECT_DEATH(SSJOIN_DCHECK(false, "debug contract"), "debug contract");
  EXPECT_DEATH(SSJOIN_DCHECK_BOUNDS(5, 5), "out of bounds");
}

#else

TEST(CheckTest, DcheckCompilesOutInRelease) {
  int evaluations = 0;
  SSJOIN_DCHECK([&] {
    ++evaluations;
    return false;  // would abort if DCHECKs were live
  }());
  EXPECT_EQ(evaluations, 0);
  SSJOIN_DCHECK_BOUNDS(10, 5);  // out of bounds, but compiled out
  SUCCEED();
}

#endif  // SSJOIN_DCHECKS_ENABLED

TEST(CheckDeathTest, FailedResultValueAborts) {
  Result<int> failed(Status::InvalidArgument("nope"));
  EXPECT_DEATH(failed.value(), "value\\(\\) on failed Result.*nope");
}

}  // namespace
}  // namespace ssjoin
