// Out-of-core join coverage (ctest label `spill`; DESIGN.md Section
// 12). The contracts under test:
//   - forced-spill output is byte-identical (pairs AND legacy stats) to
//     the in-memory join for every driver, thread count, and partition
//     count;
//   - SpillPolicy::kAuto degrades to disk where kDisabled trips the
//     memory budget, and still produces the reference output;
//   - every injected I/O fault surfaces as a structured Status, retries
//     halve the partition count, and no spill file outlives the join on
//     any path — success, trip, or exhausted retries.
// Runs under the asan-ubsan CI preset via `ctest -L spill`.

#include <gtest/gtest.h>

#include <dirent.h>

#include <optional>
#include <string>
#include <vector>

#include "baselines/identity_scheme.h"
#include "core/execution_guard.h"
#include "core/predicate.h"
#include "core/spill/spill_join.h"
#include "core/ssjoin.h"
#include "data/generators.h"
#include "util/temp_dir.h"

namespace ssjoin {
namespace {

using enum JoinPhase;
using fault::IoFault;
using fault::IoOp;
using TripReason = ExecutionGuard::TripReason;

SetCollection Workload(size_t n, uint64_t seed = 77) {
  UniformSetOptions options;
  options.num_sets = n;
  options.set_size = 30;
  options.domain_size = 500;
  options.similar_fraction = 0.2;
  options.mutations = 2;
  options.seed = seed;
  return GenerateUniformSets(options);
}

// A workload whose signature table dwarfs its candidate set: a huge
// element domain keeps cross-set collisions (and so candidate-pair
// memory) small while the posting count stays large. The auto-degrade
// tests need a memory budget the in-memory table cannot fit but the
// spilled join's per-partition reads and candidate buffers can.
SetCollection SparseWorkload(size_t n = 2000, uint64_t seed = 99) {
  UniformSetOptions options;
  options.num_sets = n;
  options.set_size = 30;
  options.domain_size = 1000000;
  options.similar_fraction = 0.1;
  options.mutations = 2;
  options.seed = seed;
  return GenerateUniformSets(options);
}

// Every comparable field: the spilled join must reproduce the legacy
// stats exactly; only the spill_* accounting and wall-clock may differ.
void ExpectSameOutput(const JoinResult& got, const JoinResult& want,
                      const std::string& label) {
  EXPECT_TRUE(got.status.ok()) << label << ": " << got.status.ToString();
  EXPECT_EQ(got.pairs, want.pairs) << label;
  EXPECT_EQ(got.stats.signatures_r, want.stats.signatures_r) << label;
  EXPECT_EQ(got.stats.signatures_s, want.stats.signatures_s) << label;
  EXPECT_EQ(got.stats.signature_collisions,
            want.stats.signature_collisions)
      << label;
  EXPECT_EQ(got.stats.candidates, want.stats.candidates) << label;
  EXPECT_EQ(got.stats.results, want.stats.results) << label;
  EXPECT_EQ(got.stats.false_positives, want.stats.false_positives) << label;
}

size_t DirEntryCount(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") ++count;
  }
  ::closedir(dir);
  return count;
}

class SpillJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Clear();
    Result<util::ScopedTempDir> dir = util::ScopedTempDir::Create();
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    spill_base_ = std::move(dir.value());
  }
  void TearDown() override { fault::Clear(); }

  JoinRequest Request(const SetCollection& input, ExecutionMode mode,
                      SpillPolicy policy, size_t threads = 1,
                      uint32_t partitions = 0) {
    JoinRequest request;
    request.left = &input;
    request.scheme = &scheme_;
    request.predicate = &predicate_;
    request.mode = mode;
    request.options.num_threads = threads;
    request.options.spill.policy = policy;
    request.options.spill.partitions = partitions;
    // Always spill under a test-owned directory so leak checks can
    // enumerate it afterwards.
    request.options.spill.dir = spill_base_.path();
    return request;
  }

  IdentityScheme scheme_;
  JaccardPredicate predicate_{0.6};
  util::ScopedTempDir spill_base_;
};

TEST_F(SpillJoinTest, ForcedSpillMatchesInMemorySelfJoins) {
  SetCollection input = Workload(400);
  const ExecutionMode mode = ExecutionMode::kSelfJoin;
  JoinResult reference =
      Join(Request(input, mode, SpillPolicy::kDisabled));
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  ASSERT_GT(reference.stats.results, 0u);
  EXPECT_EQ(reference.stats.spill_partitions, 0u);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (uint32_t partitions : {1u, 3u, 8u}) {
      JoinResult spilled = Join(Request(input, mode, SpillPolicy::kForced,
                                        threads, partitions));
      std::string label = std::string(ExecutionModeName(mode)) +
                          " threads=" + std::to_string(threads) +
                          " partitions=" + std::to_string(partitions);
      ExpectSameOutput(spilled, reference, label);
      EXPECT_EQ(spilled.stats.spill_partitions, partitions) << label;
      EXPECT_GT(spilled.stats.spill_bytes_written, 0u) << label;
      EXPECT_EQ(spilled.stats.spill_bytes_read,
                spilled.stats.spill_bytes_written)
          << label;
      EXPECT_EQ(spilled.stats.spill_retries, 0u) << label;
    }
  }
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u) << "leaked spill dirs";
}

TEST_F(SpillJoinTest, ForcedSpillMatchesInMemoryBinaryJoin) {
  SetCollection r = Workload(300, 7);
  SetCollection s = Workload(250, 8);
  JoinRequest reference_request =
      Request(r, ExecutionMode::kBinaryJoin, SpillPolicy::kDisabled);
  reference_request.right = &s;
  JoinResult reference = Join(reference_request);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  ASSERT_GT(reference.stats.candidates, 0u);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    JoinRequest request =
        Request(r, ExecutionMode::kBinaryJoin, SpillPolicy::kForced, threads);
    request.right = &s;
    JoinResult spilled = Join(request);
    std::string label = "binary threads=" + std::to_string(threads);
    ExpectSameOutput(spilled, reference, label);
    EXPECT_GT(spilled.stats.spill_partitions, 0u) << label;
  }
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u) << "leaked spill dirs";
}

TEST_F(SpillJoinTest, AutoDegradesWhereDisabledTrips) {
  SetCollection input = SparseWorkload();
  // Under half of the table's 16-bytes-per-posting floor, but several
  // times the spilled join's high-water (one partition's postings plus
  // the sparse candidate set and the verify bitmap).
  ExecutionBudget budget;
  budget.memory_budget_bytes = input.total_elements() * 7;
  // The binary join runs the input against itself, so it takes the
  // sorted driver's binary degrade path with a non-trivial result.
  for (ExecutionMode mode :
       {ExecutionMode::kSelfJoin, ExecutionMode::kBinaryJoin}) {
    auto request = [&](SpillPolicy policy, size_t threads) {
      JoinRequest r = Request(input, mode, policy, threads);
      if (mode == ExecutionMode::kBinaryJoin) r.right = &input;
      return r;
    };
    JoinResult reference = Join(request(SpillPolicy::kDisabled, 1));
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      std::string label = std::string(ExecutionModeName(mode)) +
                          " threads=" + std::to_string(threads);
      ExecutionGuard trip_guard(budget);
      JoinRequest disabled = request(SpillPolicy::kDisabled, threads);
      disabled.options.guard = &trip_guard;
      JoinResult tripped = Join(disabled);
      ASSERT_FALSE(tripped.status.ok()) << label;
      EXPECT_EQ(tripped.status.code(), StatusCode::kResourceExhausted)
          << label;
      EXPECT_EQ(trip_guard.trip_reason(), TripReason::kMemory) << label;
      EXPECT_TRUE(tripped.pairs.empty()) << label;

      ExecutionGuard degrade_guard(budget);
      JoinRequest auto_request = request(SpillPolicy::kAuto, threads);
      auto_request.options.guard = &degrade_guard;
      JoinResult degraded = Join(auto_request);
      ExpectSameOutput(degraded, reference, "auto degrade " + label);
      EXPECT_FALSE(degrade_guard.tripped()) << label;
      EXPECT_GT(degraded.stats.spill_partitions, 0u) << label;
    }
  }
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u);
}

TEST_F(SpillJoinTest, DiskBudgetTripsAsResourceExhausted) {
  SetCollection input = Workload(400);
  ExecutionBudget budget;
  budget.disk_budget_bytes = 256;  // a fraction of one partition file
  ExecutionGuard guard(budget);
  JoinRequest request =
      Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kForced);
  request.options.guard = &guard;
  JoinResult result = Join(request);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.trip_reason(), TripReason::kDiskBudget);
  EXPECT_EQ(guard.trip_phase(), kSpill);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u) << "leaked spill dirs";
}

TEST_F(SpillJoinTest, EveryIoFaultSurfacesStructuredAndLeaksNothing) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  SetCollection input = Workload(300);
  struct Case {
    IoOp op;
    IoFault io;
    const char* name;
  };
  const Case cases[] = {
      {IoOp::kOpen, IoFault::kFailOpen, "fail_open"},
      {IoOp::kWrite, IoFault::kShortWrite, "short_write"},
      {IoOp::kWrite, IoFault::kEnospc, "enospc"},
      {IoOp::kRead, IoFault::kCorruptRead, "corrupt_read"},
  };
  for (const Case& c : cases) {
    fault::FaultPlan plan;
    plan.specs.push_back(fault::IoFaultAfter(c.op, c.io));
    fault::SetPlan(plan);
    JoinRequest request =
        Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kForced);
    request.options.spill.max_retries = 0;
    JoinResult result = Join(request);
    ASSERT_FALSE(result.status.ok()) << c.name;
    EXPECT_EQ(result.status.code(), StatusCode::kIOError) << c.name;
    EXPECT_TRUE(result.pairs.empty()) << c.name;
    EXPECT_EQ(result.stats.spill_retries, 0u) << c.name;
    EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u)
        << c.name << ": leaked spill files";
    fault::Clear();
  }
}

TEST_F(SpillJoinTest, RetryRecoversFromTransientFault) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  SetCollection input = Workload(300);
  JoinResult reference =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kDisabled));
  ASSERT_TRUE(reference.status.ok());

  fault::FaultPlan plan;
  plan.specs.push_back(fault::IoFaultAfter(IoOp::kWrite, IoFault::kEnospc));
  fault::SetPlan(plan);
  JoinResult result =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kForced));
  ExpectSameOutput(result, reference, "retry after transient ENOSPC");
  EXPECT_EQ(result.stats.spill_retries, 1u);
  // The default 8 partitions were halved once for the retry.
  EXPECT_EQ(result.stats.spill_partitions, spill::kDefaultPartitions / 2);
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u);
}

TEST_F(SpillJoinTest, RetriesHalvePartitionsEachAttempt) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  SetCollection input = Workload(300);
  JoinResult reference =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kDisabled));
  ASSERT_TRUE(reference.status.ok());

  // One fault per attempt for two attempts: 8 -> 4 -> 2 partitions.
  fault::FaultPlan plan;
  plan.specs.push_back(fault::IoFaultAfter(IoOp::kWrite, IoFault::kEnospc));
  plan.specs.push_back(
      fault::IoFaultAfter(IoOp::kWrite, IoFault::kShortWrite));
  fault::SetPlan(plan);
  JoinResult result =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kForced));
  ExpectSameOutput(result, reference, "two-retry recovery");
  EXPECT_EQ(result.stats.spill_retries, 2u);
  EXPECT_EQ(result.stats.spill_partitions, spill::kDefaultPartitions / 4);
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u);
}

TEST_F(SpillJoinTest, ExhaustedRetriesSurfaceIOError) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  SetCollection input = Workload(300);
  // Short writes (not ENOSPC) so every attempt lands at least a header
  // prefix on disk and the failed-attempt byte accounting is visible.
  fault::FaultPlan plan;
  for (int i = 0; i < 3; ++i) {
    plan.specs.push_back(
        fault::IoFaultAfter(IoOp::kWrite, IoFault::kShortWrite));
  }
  fault::SetPlan(plan);
  JoinRequest request =
      Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kForced);
  // max_retries defaults to 2: three faulted attempts exhaust it.
  JoinResult result = Join(request);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kIOError);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(result.stats.spill_retries, 2u);
  // Failed attempts still account their spill traffic.
  EXPECT_GT(result.stats.spill_bytes_written, 0u);
  EXPECT_EQ(DirEntryCount(spill_base_.path()), 0u) << "leaked spill files";
}

TEST_F(SpillJoinTest, SpillStatsAppearInToString) {
  SetCollection input = Workload(200);
  JoinResult spilled =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kForced));
  ASSERT_TRUE(spilled.status.ok());
  EXPECT_NE(spilled.stats.ToString().find("spill"), std::string::npos);
  JoinResult in_memory =
      Join(Request(input, ExecutionMode::kSelfJoin, SpillPolicy::kDisabled));
  ASSERT_TRUE(in_memory.status.ok());
  EXPECT_EQ(in_memory.stats.ToString().find("spill"), std::string::npos);
}

// FaultPlan seam semantics, independent of the join drivers.
class FaultPlanTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Clear(); }
  void TearDown() override { fault::Clear(); }
};

TEST_F(FaultPlanTest, IoSpecFiresOnNthMatchingEventThenIsSpent) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::FaultPlan plan;
  plan.specs.push_back(
      fault::IoFaultAfter(IoOp::kWrite, IoFault::kEnospc, /*after=*/2));
  fault::SetPlan(plan);
  // Non-matching operations never advance the spec's counter.
  EXPECT_EQ(fault::ConsumeIo(IoOp::kRead), std::nullopt);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), std::nullopt);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), std::nullopt);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), IoFault::kEnospc);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), std::nullopt);  // one-shot
}

TEST_F(FaultPlanTest, CheckpointSpecIsPhaseTargeted) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::FaultPlan plan;
  plan.specs.push_back(
      fault::CheckpointTrip(kCandGen, StatusCode::kDeadlineExceeded));
  fault::SetPlan(plan);
  EXPECT_EQ(fault::ConsumeCheckpoint(kSigGen), std::nullopt);
  EXPECT_EQ(fault::ConsumeCheckpoint(kSpill), std::nullopt);
  EXPECT_EQ(fault::ConsumeCheckpoint(kCandGen),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(fault::ConsumeCheckpoint(kCandGen), std::nullopt);
}

TEST_F(FaultPlanTest, SpecsFireInPlanOrder) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::FaultPlan plan;
  plan.specs.push_back(fault::IoFaultAfter(IoOp::kWrite, IoFault::kEnospc));
  plan.specs.push_back(
      fault::IoFaultAfter(IoOp::kWrite, IoFault::kShortWrite));
  fault::SetPlan(plan);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), IoFault::kEnospc);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), IoFault::kShortWrite);
  EXPECT_EQ(fault::ConsumeIo(IoOp::kWrite), std::nullopt);
}

TEST_F(FaultPlanTest, ClearDisarmsPendingSpecs) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::FaultPlan plan;
  plan.specs.push_back(fault::IoFaultAfter(IoOp::kOpen, IoFault::kFailOpen));
  fault::SetPlan(plan);
  fault::Clear();
  EXPECT_EQ(fault::ConsumeIo(IoOp::kOpen), std::nullopt);
}

}  // namespace
}  // namespace ssjoin
