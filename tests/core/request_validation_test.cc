// JoinRequest::Validate() and ValidateJoinOptions(): every invalid
// request shape and every rejected option combination, plus the
// contract that Validate() returns the exact status (code AND message)
// Join() would return for the same request — so callers can pre-flight
// a request and trust the answer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/identity_scheme.h"
#include "core/predicate.h"
#include "core/ssjoin.h"

namespace ssjoin {
namespace {

SetCollection TinyCollection() {
  return SetCollection::FromVectors({{1, 2, 3}, {2, 3, 4}, {7, 8, 9}});
}

class RequestValidationTest : public ::testing::Test {
 protected:
  SetCollection input_ = TinyCollection();
  SetCollection other_ = TinyCollection();
  IdentityScheme scheme_;
  JaccardPredicate predicate_{0.5};

  JoinRequest ValidSelf() {
    return SelfJoinRequest(input_, scheme_, predicate_);
  }
  JoinRequest ValidBinary() {
    return BinaryJoinRequest(input_, other_, scheme_, predicate_);
  }

  // The parity contract: Validate() and Join() agree byte for byte on
  // the rejection, and Join() hands back an empty result.
  void ExpectRejected(const JoinRequest& request,
                      const std::string& message) {
    Status st = request.Validate();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(st.message(), message);
    JoinResult result = Join(request);
    EXPECT_EQ(result.status.code(), st.code());
    EXPECT_EQ(result.status.message(), st.message());
    EXPECT_TRUE(result.pairs.empty());
  }
};

TEST_F(RequestValidationTest, BuilderRequestsValidate) {
  Status self = ValidSelf().Validate();
  EXPECT_TRUE(self.ok()) << self.ToString();
  Status binary = ValidBinary().Validate();
  EXPECT_TRUE(binary.ok()) << binary.ToString();
}

TEST_F(RequestValidationTest, NullLeft) {
  JoinRequest request = ValidSelf();
  request.left = nullptr;
  ExpectRejected(request, "JoinRequest::left is required");
}

TEST_F(RequestValidationTest, NullScheme) {
  JoinRequest request = ValidSelf();
  request.scheme = nullptr;
  ExpectRejected(request, "JoinRequest::scheme is required");
}

TEST_F(RequestValidationTest, NullPredicate) {
  JoinRequest request = ValidSelf();
  request.predicate = nullptr;
  ExpectRejected(request, "JoinRequest::predicate is required");
}

TEST_F(RequestValidationTest, SelfJoinWithForeignRight) {
  JoinRequest request = ValidSelf();
  request.right = &other_;
  ExpectRejected(request,
                 "self-join modes take a single input; JoinRequest::right "
                 "must be null or alias left");
}

TEST_F(RequestValidationTest, SelfJoinRightAliasingLeftIsValid) {
  JoinRequest request = ValidSelf();
  request.right = &input_;
  Status st = request.Validate();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_F(RequestValidationTest, BinaryJoinWithoutRight) {
  JoinRequest request = ValidBinary();
  request.right = nullptr;
  ExpectRejected(request,
                 "ExecutionMode::kBinaryJoin requires JoinRequest::right");
}

TEST_F(RequestValidationTest, UnknownMode) {
  JoinRequest request = ValidSelf();
  request.mode = static_cast<ExecutionMode>(250);
  ExpectRejected(request, "unknown ExecutionMode");
}

TEST_F(RequestValidationTest, InvalidOptionsRejectTheRequest) {
  JoinRequest request = ValidSelf();
  request.options.spill.partitions = kMaxSpillPartitions + 1;
  ExpectRejected(request,
                 "SpillOptions::partitions must be at most 4096 (0 = default)");
}

// Field checks run in a fixed documented order — a request that is
// wrong in several ways reports the first failure, identically from
// Validate() and Join().
TEST_F(RequestValidationTest, ChecksRunInDocumentedOrder) {
  JoinRequest request = ValidBinary();
  request.left = nullptr;
  request.scheme = nullptr;
  request.right = nullptr;
  request.options.spill.partitions = kMaxSpillPartitions + 1;
  ExpectRejected(request, "JoinRequest::left is required");

  request.left = &input_;
  ExpectRejected(request, "JoinRequest::scheme is required");

  request.scheme = &scheme_;
  ExpectRejected(request,
                 "SpillOptions::partitions must be at most 4096 (0 = default)");

  request.options.spill.partitions = 0;
  ExpectRejected(request,
                 "ExecutionMode::kBinaryJoin requires JoinRequest::right");
}

// --- ValidateJoinOptions: one test per rejected combination. ---

TEST(ValidateJoinOptionsTest, DefaultOptionsAreValid) {
  JoinOptions options;
  Status st = ValidateJoinOptions(options);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ValidateJoinOptionsTest, RejectsAbsurdThreadCount) {
  JoinOptions options;
  options.num_threads = kMaxJoinThreads + 1;
  Status st = ValidateJoinOptions(options);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(),
            "JoinOptions::num_threads must be at most 4096 (0 = one per "
            "core)");

  options.num_threads = kMaxJoinThreads;
  Status at_cap = ValidateJoinOptions(options);
  EXPECT_TRUE(at_cap.ok()) << at_cap.ToString();
}

TEST(ValidateJoinOptionsTest, RejectsAbsurdSpillPartitionCount) {
  JoinOptions options;
  options.spill.partitions = kMaxSpillPartitions + 1;
  Status st = ValidateJoinOptions(options);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(),
            "SpillOptions::partitions must be at most 4096 (0 = default)");

  options.spill.partitions = kMaxSpillPartitions;
  Status at_cap = ValidateJoinOptions(options);
  EXPECT_TRUE(at_cap.ok()) << at_cap.ToString();
}

TEST(ValidateJoinOptionsTest, JoinRejectsWithTheSameStatus) {
  SetCollection input = TinyCollection();
  IdentityScheme scheme;
  JaccardPredicate predicate(0.5);
  JoinOptions options;
  options.num_threads = kMaxJoinThreads + 7;
  JoinRequest request = SelfJoinRequest(input, scheme, predicate, options);
  Status st = request.Validate();
  JoinResult result = Join(request);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status.message(), st.message());
}

}  // namespace
}  // namespace ssjoin
