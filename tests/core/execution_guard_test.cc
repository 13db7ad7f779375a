// Guardrail coverage (ctest label `guardrail`; DESIGN.md Section 7):
// fault-injected trips in every Figure-2 phase for the self and binary
// drivers,
// real deadline / memory-budget / breaker trips, cross-thread
// cancellation, the PartEnum advisor-retry path, and the two determinism
// contracts — an injected trip yields identical Status and partial stats
// at every thread count, and a guard that never trips leaves the output
// byte-identical to an unguarded run. Runs under the asan-ubsan and tsan
// CI presets via `ctest -L guardrail`.

#include "core/execution_guard.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "baselines/identity_scheme.h"
#include "core/parameter_advisor.h"
#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "data/generators.h"
#include "relational/sql_ssjoin.h"

namespace ssjoin {
namespace {

using enum JoinPhase;
using TripReason = ExecutionGuard::TripReason;

// A budget none of whose limits can trip in a unit test.
ExecutionBudget Generous() {
  ExecutionBudget budget;
  budget.deadline_ms = 60 * 60 * 1000;
  budget.memory_budget_bytes = size_t{4} << 30;
  budget.max_candidate_ratio = 1e12;
  return budget;
}

SetCollection Workload(size_t n, uint64_t seed = 41) {
  UniformSetOptions options;
  options.num_sets = n;
  options.set_size = 30;
  options.domain_size = 400;
  options.similar_fraction = 0.15;
  options.mutations = 2;
  options.seed = seed;
  return GenerateUniformSets(options);
}

// Every set maps to the same signature: all pairs become candidates, so a
// predicate that rejects everything drives candidates-per-result to the
// moon — the breaker's target shape.
class ConstantScheme final : public SignatureScheme {
 public:
  std::string Name() const override { return "Constant"; }
  void Generate(std::span<const ElementId>,
                std::vector<Signature>* out) const override {
    out->push_back(12345);
  }
};

// Identity signatures, but the first Generate call parks on a latch so
// the test can cancel the join while it is provably mid-SigGen.
class BlockingScheme final : public SignatureScheme {
 public:
  std::string Name() const override { return "Blocking"; }

  void Generate(std::span<const ElementId> set,
                std::vector<Signature>* out) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      started_ = true;
      started_cv_.notify_all();
      release_cv_.wait(lock, [&] { return released_; });
    }
    for (ElementId e : set) out->push_back(e);
  }

  void WaitUntilStarted() {
    std::unique_lock<std::mutex> lock(mutex_);
    started_cv_.wait(lock, [&] { return started_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable started_cv_;
  mutable std::condition_variable release_cv_;
  mutable bool started_ = false;
  mutable bool released_ = false;
};

void ExpectSameStats(const JoinStats& a, const JoinStats& b,
                     const char* label) {
  EXPECT_EQ(a.signatures_r, b.signatures_r) << label;
  EXPECT_EQ(a.signatures_s, b.signatures_s) << label;
  EXPECT_EQ(a.signature_collisions, b.signature_collisions) << label;
  EXPECT_EQ(a.candidates, b.candidates) << label;
  EXPECT_EQ(a.results, b.results) << label;
  EXPECT_EQ(a.false_positives, b.false_positives) << label;
}

class ExecutionGuardTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Clear(); }
  void TearDown() override { fault::Clear(); }
};

TEST_F(ExecutionGuardTest, FaultInjectionCompiledIn) {
  // The guardrail suite is meaningless without the injection shim; CI
  // builds it in (SSJOIN_FAULT_INJECT defaults to ON).
  ASSERT_TRUE(fault::Enabled());
}

TEST_F(ExecutionGuardTest, UntrippedGuardIsQuiet) {
  ExecutionGuard guard(Generous());
  EXPECT_TRUE(guard.Checkpoint(kSigGen).ok());
  EXPECT_TRUE(guard.CheckBreaker(kVerify, 10, 0).ok());  // below min
  EXPECT_FALSE(guard.ShouldStop(kCandGen));
  EXPECT_FALSE(guard.tripped());
  EXPECT_TRUE(guard.trip_status().ok());
  EXPECT_EQ(guard.trip_reason(), TripReason::kNone);
  EXPECT_GE(guard.ElapsedSeconds(), 0.0);
}

TEST_F(ExecutionGuardTest, MemoryAccounting) {
  ExecutionBudget budget;
  budget.memory_budget_bytes = 1000;
  ExecutionGuard guard(budget);
  guard.ChargeMemory(600);
  EXPECT_EQ(guard.memory_charged(), 600u);
  EXPECT_TRUE(guard.Checkpoint(kSigGen).ok());
  guard.ReleaseMemory(200);
  EXPECT_EQ(guard.memory_charged(), 400u);
  EXPECT_EQ(guard.memory_high_water(), 600u);
  guard.ChargeMemory(700);  // 1100 > 1000: next checkpoint trips
  Status st = guard.Checkpoint(kCandGen);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.trip_reason(), TripReason::kMemory);
  EXPECT_EQ(guard.trip_phase(), kCandGen);
  // Once latched, every check returns the same trip.
  EXPECT_EQ(guard.Checkpoint(kVerify).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(guard.ShouldStop(kVerify));
  // Reset clears the latch and the charge; the guard is reusable.
  guard.Reset();
  EXPECT_FALSE(guard.tripped());
  EXPECT_EQ(guard.memory_charged(), 0u);
  EXPECT_TRUE(guard.Checkpoint(kSigGen).ok());
}

TEST_F(ExecutionGuardTest, BreakerRatioFormula) {
  ExecutionBudget budget;
  budget.max_candidate_ratio = 10;
  budget.breaker_min_candidates = 100;
  ExecutionGuard guard(budget);
  // Below the activation floor: never trips.
  EXPECT_TRUE(guard.CheckBreaker(kVerify, 99, 0).ok());
  // At the floor but within ratio (1000 candidates / 100 results = 10).
  EXPECT_TRUE(guard.CheckBreaker(kVerify, 1000, 100).ok());
  // Over ratio: trips with kResourceExhausted / kCandidateExplosion.
  Status st = guard.CheckBreaker(kVerify, 1001, 100);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.trip_reason(), TripReason::kCandidateExplosion);
}

TEST_F(ExecutionGuardTest, InjectedTripEveryPhaseSortedSelfJoin) {
  SetCollection input = Workload(300);
  IdentityScheme scheme;
  JaccardPredicate predicate(0.9);
  for (JoinPhase phase : {kSigGen, kCandGen, kVerify}) {
    fault::SetPlan(
        {{fault::CheckpointTrip(phase, StatusCode::kDeadlineExceeded)}});
    ExecutionGuard guard(Generous());
    JoinOptions options;
    options.guard = &guard;
    JoinResult result = Join(SelfJoinRequest(input, scheme, predicate, options));
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
        << JoinPhaseName(phase);
    EXPECT_TRUE(result.pairs.empty()) << JoinPhaseName(phase);
    EXPECT_TRUE(guard.tripped());
    EXPECT_EQ(guard.trip_phase(), phase);
    EXPECT_EQ(guard.trip_reason(), TripReason::kDeadline);
    // Partial stats cover exactly the completed phases.
    if (phase == kSigGen) {
      EXPECT_EQ(result.stats.signatures_r, 0u);
      EXPECT_EQ(result.stats.candidates, 0u);
    } else if (phase == kCandGen) {
      EXPECT_GT(result.stats.signatures_r, 0u);
      EXPECT_EQ(result.stats.candidates, 0u);
    } else {
      EXPECT_GT(result.stats.signatures_r, 0u);
      EXPECT_GT(result.stats.candidates, 0u);
      EXPECT_EQ(result.stats.results, 0u);
    }
    fault::Clear();
  }
}

TEST_F(ExecutionGuardTest, InjectedTripBinaryJoin) {
  SetCollection r = Workload(200, 42);
  SetCollection s = Workload(150, 43);
  IdentityScheme scheme;
  JaccardPredicate predicate(0.9);
  for (JoinPhase phase : {kSigGen, kCandGen, kVerify}) {
    fault::SetPlan({{fault::CheckpointTrip(phase, StatusCode::kCancelled)}});
    ExecutionGuard guard(Generous());
    JoinOptions options;
    options.guard = &guard;
    JoinResult result = Join(BinaryJoinRequest(r, s, scheme, predicate, options));
    EXPECT_EQ(result.status.code(), StatusCode::kCancelled)
        << JoinPhaseName(phase);
    EXPECT_TRUE(result.pairs.empty());
    EXPECT_EQ(guard.trip_phase(), phase);
    fault::Clear();
  }
}

// The determinism contract: an injected (budget-class) trip produces the
// same Status, the same trip phase, and the same partial stats whether
// the join ran serial or on four workers.
TEST_F(ExecutionGuardTest, InjectedTripDeterministicAcrossThreadCounts) {
  SetCollection input = Workload(500, 44);
  IdentityScheme scheme;
  JaccardPredicate predicate(0.9);
  for (JoinPhase phase : {kSigGen, kCandGen, kVerify}) {
    auto run = [&](size_t threads) {
      fault::SetPlan(
          {{fault::CheckpointTrip(phase, StatusCode::kResourceExhausted)}});
      ExecutionGuard guard(Generous());
      JoinOptions options;
      options.num_threads = threads;
      options.guard = &guard;
      JoinResult result =
          Join(SelfJoinRequest(input, scheme, predicate, options));
      fault::Clear();
      EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(guard.trip_phase(), phase);
      return result;
    };
    JoinResult serial = run(1);
    JoinResult parallel = run(4);
    EXPECT_EQ(serial.pairs, parallel.pairs);  // both empty
    ExpectSameStats(serial.stats, parallel.stats, "sorted");
  }
}

// The zero-interference contract: a guard that never trips changes
// nothing — pairs, stats, and Status match the unguarded run at every
// thread count, for the self and binary drivers.
TEST_F(ExecutionGuardTest, UntrippedGuardByteIdenticalToUnguarded) {
  SetCollection input = Workload(400, 45);
  PartEnumJaccardParams params;
  params.gamma = 0.85;
  params.max_set_size = input.max_set_size();
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    JoinOptions plain;
    plain.num_threads = threads;
    ExecutionGuard guard(Generous());
    JoinOptions guarded = plain;
    guarded.guard = &guard;

    JoinResult a = Join(SelfJoinRequest(input, *scheme, predicate, plain));
    JoinResult b = Join(SelfJoinRequest(input, *scheme, predicate, guarded));
    ASSERT_TRUE(b.status.ok());
    EXPECT_EQ(a.pairs, b.pairs) << "sorted t=" << threads;
    ExpectSameStats(a.stats, b.stats, "sorted");
    EXPECT_GT(guard.memory_high_water(), 0u);

    ExecutionGuard guard2(Generous());
    guarded.guard = &guard2;
    JoinResult c =
        Join(BinaryJoinRequest(input, input, *scheme, predicate, plain));
    JoinResult d =
        Join(BinaryJoinRequest(input, input, *scheme, predicate, guarded));
    ASSERT_TRUE(d.status.ok());
    EXPECT_EQ(c.pairs, d.pairs) << "binary t=" << threads;
    ExpectSameStats(c.stats, d.stats, "binary");
  }
}

TEST_F(ExecutionGuardTest, RealMemoryBudgetTrip) {
  SetCollection input = Workload(300);
  IdentityScheme scheme;
  JaccardPredicate predicate(0.9);
  ExecutionBudget budget;
  budget.memory_budget_bytes = 1;  // nothing real fits
  ExecutionGuard guard(budget);
  JoinOptions options;
  options.guard = &guard;
  JoinResult result = Join(SelfJoinRequest(input, scheme, predicate, options));
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.trip_reason(), TripReason::kMemory);
  // The signature table is the first charged allocation; the trip lands
  // at the candidate-generation checkpoint with SigGen committed.
  EXPECT_EQ(guard.trip_phase(), kCandGen);
  EXPECT_GT(result.stats.signatures_r, 0u);
  EXPECT_EQ(result.stats.candidates, 0u);
  EXPECT_TRUE(result.pairs.empty());
}

TEST_F(ExecutionGuardTest, RealDeadlineTrip) {
  SetCollection input = Workload(300);
  IdentityScheme scheme;
  JaccardPredicate predicate(0.9);
  ExecutionBudget budget;
  budget.deadline_ms = 1;
  ExecutionGuard guard(budget);
  // Burn the budget before the join starts: the first checkpoint trips.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  JoinOptions options;
  options.guard = &guard;
  JoinResult result = Join(SelfJoinRequest(input, scheme, predicate, options));
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(guard.trip_reason(), TripReason::kDeadline);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(result.stats.results, 0u);
}

TEST_F(ExecutionGuardTest, CancellationFromAnotherThread) {
  SetCollection input = Workload(200);
  BlockingScheme scheme;
  JaccardPredicate predicate(0.9);
  CancellationToken token;
  ExecutionGuard guard(Generous(), token);
  JoinOptions options;
  options.guard = &guard;
  JoinResult result;
  std::thread worker([&] {
    result = Join(SelfJoinRequest(input, scheme, predicate, options));
  });
  scheme.WaitUntilStarted();  // join is provably mid-SigGen
  token.RequestCancel();
  scheme.Release();
  worker.join();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(guard.trip_reason(), TripReason::kCancelled);
  EXPECT_TRUE(result.pairs.empty());
}

TEST_F(ExecutionGuardTest, BreakerTripsOnCandidateExplosion) {
  // 200 pairwise-disjoint sets that all share one signature: 19900
  // candidates, zero results — the runaway shape the breaker exists for.
  std::vector<std::vector<ElementId>> sets;
  for (ElementId i = 0; i < 200; ++i) {
    sets.push_back({3 * i, 3 * i + 1, 3 * i + 2});
  }
  SetCollection input = SetCollection::FromVectors(sets);
  ConstantScheme scheme;
  JaccardPredicate predicate(0.9);
  ExecutionBudget budget;
  budget.max_candidate_ratio = 100;
  budget.breaker_min_candidates = 1000;
  ExecutionGuard guard(budget);
  JoinOptions options;
  options.guard = &guard;
  JoinResult result = Join(SelfJoinRequest(input, scheme, predicate, options));
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.trip_reason(), TripReason::kCandidateExplosion);
  EXPECT_EQ(guard.trip_phase(), kVerify);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_GT(result.stats.candidates, 0u);

  // Same workload, breaker off: the join completes (with zero results).
  JoinResult plain = Join(SelfJoinRequest(input, scheme, predicate, {}));
  EXPECT_TRUE(plain.status.ok());
  EXPECT_EQ(plain.stats.results, 0u);
  EXPECT_EQ(plain.stats.candidates, 19900u);
}

TEST_F(ExecutionGuardTest, GuardInRelationalPlans) {
  SetCollection input = Workload(150, 46);
  IdentityScheme scheme;
  JaccardPredicate predicate(0.9);
  // Untripped: guarded plan matches the unguarded plan.
  auto plain = relational::DbmsSelfJoin(input, scheme, predicate);
  ASSERT_TRUE(plain.ok());
  ExecutionGuard guard(Generous());
  auto guarded = relational::DbmsSelfJoin(
      input, scheme, predicate, relational::IntersectPlan::kHashJoin,
      &guard);
  ASSERT_TRUE(guarded.ok());
  EXPECT_EQ(plain->pairs, guarded->pairs);
  EXPECT_GT(guard.memory_high_water(), 0u);
  // Injected trip surfaces as the Result's error Status.
  for (JoinPhase phase : {kSigGen, kCandGen, kVerify}) {
    fault::SetPlan(
        {{fault::CheckpointTrip(phase, StatusCode::kDeadlineExceeded)}});
    ExecutionGuard tripping(Generous());
    auto result = relational::DbmsSelfJoin(
        input, scheme, predicate, relational::IntersectPlan::kHashJoin,
        &tripping);
    EXPECT_FALSE(result.ok()) << JoinPhaseName(phase);
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(tripping.trip_phase(), phase);
    fault::Clear();
  }
}

TEST_F(ExecutionGuardTest, AdvisorRetryRecoversFromExplosion) {
  // Workload where parameter quality decides the candidate count: every
  // set is a 24-element common core plus 6 private elements, so
  // dissimilar pairs differ in exactly 12 elements while the per-size
  // hamming threshold is only ~3 — the regime the paper's Table 1 shows
  // is parameter-sensitive. A signature misses a false pair only if its
  // projection covers none of the 12 differing elements, so the false-
  // candidate rate is roughly #signatures * (1 - coverage)^12: the
  // pathological chooser below (n1 = k+1, n2 = 2 => whole first-level
  // partitions, 25% coverage each) leaks thousands of candidates, while
  // the advisor's F2-optimal shapes cover enough to filter them. Exact
  // duplicate pairs supply the genuine results.
  std::vector<std::vector<ElementId>> sets;
  for (ElementId i = 0; i < 200; ++i) {
    std::vector<ElementId> s;
    for (ElementId e = 0; e < 24; ++e) s.push_back(e);
    for (ElementId j = 0; j < 6; ++j) s.push_back(1000 + 10 * i + j);
    sets.push_back(s);
    if (i % 2 == 0) sets.push_back(s);  // exact duplicate: a result pair
  }
  SetCollection input = SetCollection::FromVectors(sets);

  PartEnumJaccardParams params;
  params.gamma = 0.9;
  params.max_set_size = input.max_set_size();
  params.chooser = [](uint32_t threshold) {
    PartEnumParams p;
    p.k = threshold;
    p.n1 = threshold + 1;  // k2 = 0, n2 = 2: minimal-coverage projections
    p.n2 = 2;
    return p;
  };

  ExecutionBudget budget = Generous();
  budget.max_candidate_ratio = 30;
  budget.breaker_min_candidates = 2000;
  ExecutionGuard guard(budget);
  auto result = PartEnumJaccardSelfJoinWithRetry(input, params, guard);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->retried) << result->join.stats.ToString();
  ASSERT_TRUE(result->join.status.ok())
      << result->join.status.ToString() << " retry n1="
      << result->retry_params.n1 << " n2=" << result->retry_params.n2;
  EXPECT_GT(result->join.stats.results, 0u);

  // The retry output is the real join answer: it matches an unguarded
  // run with default (advisor-free) parameters.
  PartEnumJaccardParams sane;
  sane.gamma = 0.9;
  sane.max_set_size = input.max_set_size();
  auto scheme = PartEnumJaccardScheme::Create(sane);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.9);
  JoinResult reference = Join(SelfJoinRequest(input, *scheme, predicate, {}));
  EXPECT_EQ(result->join.pairs, reference.pairs);
}

}  // namespace
}  // namespace ssjoin
