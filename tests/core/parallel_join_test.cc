// Parallel execution must be invisible: for every thread count the self
// and binary drivers return byte-identical pairs AND byte-identical stats
// counters (signatures, collisions, candidates, results, false
// positives) to the num_threads == 1 serial reference — across predicate
// families (hamming / jaccard / weighted), self- and binary joins, and
// degenerate inputs. These tests also run under the tsan preset (ctest -L
// parallel) to prove the pool and the stat reductions are race-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "baselines/identity_scheme.h"
#include "baselines/prefix_filter.h"
#include "core/partenum.h"
#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "core/weighted.h"
#include "core/wtenum.h"
#include "data/generators.h"
#include "text/idf.h"
#include "text/tokenizer.h"

namespace ssjoin {
namespace {

std::vector<size_t> ThreadGrid() {
  size_t hw = std::thread::hardware_concurrency();
  std::vector<size_t> grid = {2, 4};
  if (hw > 1 && hw != 2 && hw != 4) grid.push_back(hw);
  return grid;
}

void ExpectSameStats(const JoinStats& a, const JoinStats& b,
                     const char* label, size_t threads) {
  EXPECT_EQ(a.signatures_r, b.signatures_r) << label << " t=" << threads;
  EXPECT_EQ(a.signatures_s, b.signatures_s) << label << " t=" << threads;
  EXPECT_EQ(a.signature_collisions, b.signature_collisions)
      << label << " t=" << threads;
  EXPECT_EQ(a.candidates, b.candidates) << label << " t=" << threads;
  EXPECT_EQ(a.results, b.results) << label << " t=" << threads;
  EXPECT_EQ(a.false_positives, b.false_positives)
      << label << " t=" << threads;
}

// The self-join at every thread count must match
// the serial reference byte for byte.
void ExpectSelfJoinInvariant(const SetCollection& input,
                             const SignatureScheme& scheme,
                             const Predicate& predicate, const char* label) {
  JoinOptions serial;
  serial.num_threads = 1;
  JoinResult reference = Join(SelfJoinRequest(input, scheme, predicate, serial));
  for (size_t threads : ThreadGrid()) {
    JoinOptions options;
    options.num_threads = threads;
    JoinResult parallel = Join(SelfJoinRequest(input, scheme, predicate,
                                            options));
    EXPECT_EQ(reference.pairs, parallel.pairs) << label << " t=" << threads;
    ExpectSameStats(reference.stats, parallel.stats, label, threads);
  }
}

void ExpectBinaryJoinInvariant(const SetCollection& r,
                               const SetCollection& s,
                               const SignatureScheme& scheme,
                               const Predicate& predicate,
                               const char* label) {
  JoinOptions serial;
  serial.num_threads = 1;
  JoinResult reference = Join(BinaryJoinRequest(r, s, scheme, predicate, serial));
  for (size_t threads : ThreadGrid()) {
    JoinOptions options;
    options.num_threads = threads;
    JoinResult parallel = Join(BinaryJoinRequest(r, s, scheme, predicate, options));
    EXPECT_EQ(reference.pairs, parallel.pairs) << label << " t=" << threads;
    ExpectSameStats(reference.stats, parallel.stats, label, threads);
  }
}

SetCollection HammingWorkload(size_t n) {
  UniformSetOptions options;
  options.num_sets = n;
  options.set_size = 30;
  options.domain_size = 400;
  options.similar_fraction = 0.15;
  options.mutations = 2;
  options.seed = 21;
  return GenerateUniformSets(options);
}

TEST(ParallelJoinTest, HammingSelfJoin) {
  SetCollection input = HammingWorkload(600);
  PartEnumParams params = PartEnumParams::Default(4);
  auto scheme = PartEnumScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  HammingPredicate predicate(4);
  ExpectSelfJoinInvariant(input, *scheme, predicate, "hamming/self");
}

TEST(ParallelJoinTest, HammingBinaryJoin) {
  SetCollection r = HammingWorkload(400);
  UniformSetOptions options;
  options.num_sets = 300;
  options.set_size = 30;
  options.domain_size = 400;
  options.similar_fraction = 0.15;
  options.mutations = 2;
  options.seed = 22;
  SetCollection s = GenerateUniformSets(options);
  PartEnumParams params = PartEnumParams::Default(4);
  auto scheme = PartEnumScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  HammingPredicate predicate(4);
  ExpectBinaryJoinInvariant(r, s, *scheme, predicate, "hamming/binary");
}

SetCollection JaccardWorkload(size_t n, uint64_t seed) {
  AddressOptions options;
  options.num_strings = n;
  options.duplicate_fraction = 0.2;
  options.max_typos = 2;
  options.seed = seed;
  WordTokenizer tokenizer;
  return tokenizer.TokenizeAll(GenerateAddressStrings(options));
}

TEST(ParallelJoinTest, JaccardSelfJoinPartEnum) {
  SetCollection input = JaccardWorkload(500, 31);
  for (double gamma : {0.8, 0.9}) {
    PartEnumJaccardParams params;
    params.gamma = gamma;
    params.max_set_size = input.max_set_size();
    auto scheme = PartEnumJaccardScheme::Create(params);
    ASSERT_TRUE(scheme.ok());
    JaccardPredicate predicate(gamma);
    ExpectSelfJoinInvariant(input, *scheme, predicate, "jaccard/pen");
  }
}

TEST(ParallelJoinTest, JaccardSelfJoinPrefixFilter) {
  SetCollection input = JaccardWorkload(400, 32);
  auto predicate = std::make_shared<JaccardPredicate>(0.85);
  auto scheme = PrefixFilterScheme::Create(predicate, input);
  ASSERT_TRUE(scheme.ok());
  ExpectSelfJoinInvariant(input, *scheme, *predicate, "jaccard/pf");
}

TEST(ParallelJoinTest, JaccardBinaryJoin) {
  SetCollection r = JaccardWorkload(350, 33);
  SetCollection s = JaccardWorkload(300, 34);
  PartEnumJaccardParams params;
  params.gamma = 0.85;
  params.max_set_size = std::max(r.max_set_size(), s.max_set_size());
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);
  ExpectBinaryJoinInvariant(r, s, *scheme, predicate, "jaccard/binary");
}

TEST(ParallelJoinTest, WeightedSelfJoin) {
  SetCollection input = JaccardWorkload(350, 35);
  auto idf = std::make_shared<IdfWeights>(IdfWeights::Compute(input));
  WeightFunction weights = [idf](ElementId e) {
    return idf->Weight(e) + 0.01;
  };
  double min_ws = std::numeric_limits<double>::infinity();
  for (SetId id = 0; id < input.size(); ++id) {
    if (input.set_size(id) == 0) continue;
    min_ws = std::min(min_ws, WeightedSize(input.set(id), weights));
  }
  ASSERT_FALSE(std::isinf(min_ws));
  double gamma = 0.8;
  WtEnumParams params;
  params.pruning_threshold = idf->DefaultPruningThreshold();
  auto scheme =
      WtEnumScheme::CreateJaccard(weights, weights, gamma, min_ws, params);
  ASSERT_TRUE(scheme.ok());
  WeightedJaccardPredicate predicate(gamma, weights);
  ExpectSelfJoinInvariant(input, *scheme, predicate, "weighted/wen");
}

// WtEnum jaccard over IDF computed from both sides: concurrent Generate
// calls and concurrent IDF table lookups from R and S under one scheme.
TEST(ParallelJoinTest, WeightedBinaryJoin) {
  // Both sides come from one address workload, so its near-duplicates
  // straddle R and S and the join is not vacuous.
  SetCollection all = JaccardWorkload(550, 36);
  std::vector<std::vector<ElementId>> r_sets, s_sets;
  for (SetId id = 0; id < all.size(); ++id) {
    std::span<const ElementId> set = all.set(id);
    (id % 2 == 0 ? r_sets : s_sets).emplace_back(set.begin(), set.end());
  }
  SetCollection r = SetCollection::FromVectors(r_sets);
  SetCollection s = SetCollection::FromVectors(s_sets);
  auto idf = std::make_shared<IdfWeights>(IdfWeights::Compute(r, s));
  WeightFunction weights = [idf](ElementId e) {
    return idf->Weight(e) + 0.01;
  };
  double min_ws = std::numeric_limits<double>::infinity();
  for (const SetCollection* side : {&r, &s}) {
    for (SetId id = 0; id < side->size(); ++id) {
      if (side->set_size(id) == 0) continue;
      min_ws = std::min(min_ws, WeightedSize(side->set(id), weights));
    }
  }
  ASSERT_FALSE(std::isinf(min_ws));
  double gamma = 0.8;
  WtEnumParams params;
  params.pruning_threshold = idf->DefaultPruningThreshold();
  auto scheme =
      WtEnumScheme::CreateJaccard(weights, weights, gamma, min_ws, params);
  ASSERT_TRUE(scheme.ok());
  WeightedJaccardPredicate predicate(gamma, weights);
  ExpectBinaryJoinInvariant(r, s, *scheme, predicate, "weighted/binary");
}

TEST(ParallelJoinTest, EmptyCollection) {
  SetCollection empty;
  IdentityScheme scheme;
  JaccardPredicate predicate(0.9);
  ExpectSelfJoinInvariant(empty, scheme, predicate, "empty/self");
  ExpectBinaryJoinInvariant(empty, empty, scheme, predicate,
                            "empty/binary");
  for (size_t threads : ThreadGrid()) {
    JoinOptions options;
    options.num_threads = threads;
    JoinResult result = Join(SelfJoinRequest(empty, scheme, predicate,
                                          options));
    EXPECT_TRUE(result.pairs.empty());
    EXPECT_EQ(result.stats.F2(), 0u);
  }
}

TEST(ParallelJoinTest, SingleSetCollection) {
  SetCollection one = SetCollection::FromVectors({{1, 2, 3}});
  IdentityScheme scheme;
  JaccardPredicate predicate(0.5);
  ExpectSelfJoinInvariant(one, scheme, predicate, "single/self");
  SetCollection other = SetCollection::FromVectors({{1, 2, 3}, {4, 5}});
  ExpectBinaryJoinInvariant(one, other, scheme, predicate,
                            "single/binary");
}

TEST(ParallelJoinTest, CollectionWithEmptySets) {
  SetCollection input = SetCollection::FromVectors(
      {{}, {1, 2, 3}, {}, {1, 2, 3}, {7, 8}});
  IdentityScheme scheme;
  JaccardPredicate predicate(0.9);
  ExpectSelfJoinInvariant(input, scheme, predicate, "empty-sets/self");
}

TEST(ParallelJoinTest, DuplicateHeavyWorkload) {
  // Many identical sets: maximal candidate density, the stress case for
  // the cross-shard union.
  std::vector<std::vector<ElementId>> sets(60, {1, 2, 3, 4, 5});
  sets.resize(75, {6, 7, 8});
  SetCollection input = SetCollection::FromVectors(sets);
  IdentityScheme scheme;
  JaccardPredicate predicate(1.0);
  ExpectSelfJoinInvariant(input, scheme, predicate, "duplicates/self");
}

TEST(ParallelJoinTest, ZeroMeansHardwareConcurrency) {
  SetCollection input = JaccardWorkload(200, 36);
  PartEnumJaccardParams params;
  params.gamma = 0.85;
  params.max_set_size = input.max_set_size();
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);
  JoinOptions serial;
  serial.num_threads = 1;
  JoinOptions hardware;
  hardware.num_threads = 0;
  JoinResult a = Join(SelfJoinRequest(input, *scheme, predicate, serial));
  JoinResult b = Join(SelfJoinRequest(input, *scheme, predicate, hardware));
  EXPECT_EQ(a.pairs, b.pairs);
  ExpectSameStats(a.stats, b.stats, "hw/self", 0);
}

}  // namespace
}  // namespace ssjoin
