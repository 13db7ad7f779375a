// Exact-accounting oracle (ctest label `pipeline`). The candgen kernel
// counts, dedups and bitmap-filters candidates in one bucket pass and
// never builds the candidate set, so nothing else checks its counters
// pair by pair. Here every counter is recomputed by brute force over all
// pairs of sets and compared with what Join() reports, for two schemes
// (PartEnum jaccard and the prefix filter), self and binary joins, 1 and
// 4 threads, and spill off, forced and degrading (kAuto under a budget
// the signature tables exceed):
//
//   - pairs equal the nested-loop oracle;
//   - candidates equal the distinct pairs that share a Signatures()
//     value;
//   - bitmap_filter_checked equals candidates, and bitmap_filter_pruned
//     the candidates BitmapTable::MayMatch rules out;
//   - false_positives equal candidates - results.
//
// The inputs are near-duplicate clusters over a small domain, so most
// candidates share several signatures, whose copies meet in different
// shards and spill partitions before they are deduplicated.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/nested_loop.h"
#include "baselines/prefix_filter.h"
#include "core/execution_guard.h"
#include "core/kernels/bitmap_filter.h"
#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "util/random.h"

namespace ssjoin {
namespace {

constexpr double kGamma = 0.7;

// `clusters` random base sets (drawn from `bases`), each followed by
// `copies` near copies (drawn from `edits`) that drop or add an element
// or two. Two collections with the same `bases` seed share their
// clusters, so a binary join of them has results.
SetCollection Clusters(uint64_t bases, uint64_t edits, int clusters,
                       int copies) {
  constexpr uint32_t kDomain = 1000;
  Rng base_rng(bases);
  Rng edit_rng(edits);
  std::vector<std::vector<ElementId>> sets;
  for (int c = 0; c < clusters; ++c) {
    std::vector<ElementId> base =
        SampleWithoutReplacement(kDomain, 6 + base_rng.Uniform(10), base_rng);
    sets.push_back(base);
    for (int i = 0; i < copies; ++i) {
      std::vector<ElementId> copy = base;
      for (uint32_t e = edit_rng.Uniform(3); e > 0; --e) {
        if (edit_rng.Uniform(2) == 0 && copy.size() > 2) {
          copy.erase(copy.begin() + edit_rng.Uniform(copy.size()));
        } else {
          copy.push_back(edit_rng.Uniform(kDomain));
        }
      }
      sets.push_back(std::move(copy));
    }
  }
  return SetCollection::FromVectors(sets);
}

// The counters Join() must report, by brute force over every pair.
struct Expected {
  std::vector<SetPair> pairs;
  uint64_t candidates = 0;
  uint64_t pruned = 0;
};

Expected BruteForce(const SetCollection& r, const SetCollection* s,
                    const SignatureScheme& scheme,
                    const Predicate& predicate) {
  const SetCollection& other = s != nullptr ? *s : r;
  auto signatures = [&](const SetCollection& input) {
    std::vector<std::vector<Signature>> out;
    for (SetId id = 0; id < input.size(); ++id) {
      out.push_back(scheme.Signatures(input.set(id)));
      std::sort(out.back().begin(), out.back().end());
    }
    return out;
  };
  const std::vector<std::vector<Signature>> sigs_r = signatures(r);
  const std::vector<std::vector<Signature>> sigs_s = signatures(other);
  const kernels::BitmapTable bm_r = kernels::BitmapTable::Build(r);
  const kernels::BitmapTable bm_s = kernels::BitmapTable::Build(other);
  Expected out;
  out.pairs = s != nullptr ? NestedLoopJoin(r, *s, predicate)
                           : NestedLoopSelfJoin(r, predicate);
  for (SetId a = 0; a < r.size(); ++a) {
    for (SetId b = s != nullptr ? 0 : a + 1; b < other.size(); ++b) {
      std::vector<Signature> shared;
      std::set_intersection(sigs_r[a].begin(), sigs_r[a].end(),
                            sigs_s[b].begin(), sigs_s[b].end(),
                            std::back_inserter(shared));
      if (shared.empty()) continue;
      ++out.candidates;
      if (!kernels::BitmapTable::MayMatch(
              predicate, bm_r.row(a), bm_s.row(b),
              static_cast<uint32_t>(r.set(a).size()),
              static_cast<uint32_t>(other.set(b).size()))) {
        ++out.pruned;
      }
    }
  }
  return out;
}

// Heap bytes of a side's signature table, as the auto-spill check counts
// them: 8 bytes per signature plus 8 per CSR offset.
size_t TableBytes(const SetCollection& input, const SignatureScheme& scheme) {
  size_t signatures = 0;
  for (SetId id = 0; id < input.size(); ++id) {
    std::vector<Signature> sigs = scheme.Signatures(input.set(id));
    std::sort(sigs.begin(), sigs.end());
    signatures += std::unique(sigs.begin(), sigs.end()) - sigs.begin();
  }
  return (signatures + input.size() + 1) * 8;
}

enum class Spill { kOff, kForced, kDegrading };

const char* SpillName(Spill spill) {
  switch (spill) {
    case Spill::kOff:
      return "off";
    case Spill::kForced:
      return "forced";
    case Spill::kDegrading:
      return "degrading";
  }
  return "?";
}

// Joins under every (threads, spill) cell and checks the counters.
void ExpectExactAccounting(const std::string& name, const SetCollection& r,
                           const SetCollection* s,
                           const SignatureScheme& scheme,
                           const Predicate& predicate) {
  const Expected expected = BruteForce(r, s, scheme, predicate);
  ASSERT_FALSE(expected.pairs.empty()) << name << " is vacuous";
  ASSERT_GT(expected.pruned, 0u) << name << ": the filter never prunes";
  const size_t table_bytes =
      TableBytes(r, scheme) + (s != nullptr ? TableBytes(*s, scheme) : 0);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (Spill spill : {Spill::kOff, Spill::kForced, Spill::kDegrading}) {
      std::ostringstream label;
      label << name << " threads=" << threads << " spill=" << SpillName(spill);
      SCOPED_TRACE(label.str());
      JoinRequest request = s != nullptr
                                ? BinaryJoinRequest(r, *s, scheme, predicate)
                                : SelfJoinRequest(r, scheme, predicate);
      request.options.num_threads = threads;
      request.options.spill.policy =
          spill == Spill::kOff      ? SpillPolicy::kDisabled
          : spill == Spill::kForced ? SpillPolicy::kForced
                                    : SpillPolicy::kAuto;
      // Spread one signature's pairs over several partitions' worth of
      // files: 5 partitions, none a power of two.
      request.options.spill.partitions = 5;
      ExecutionBudget budget;
      budget.memory_budget_bytes = table_bytes - 1;
      ExecutionGuard guard(budget);
      if (spill == Spill::kDegrading) request.options.guard = &guard;
      JoinResult result = Join(request);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      const JoinStats& stats = result.stats;
      EXPECT_EQ(stats.spill_partitions > 0, spill != Spill::kOff);
      EXPECT_EQ(result.pairs, expected.pairs);
      EXPECT_EQ(stats.candidates, expected.candidates);
      EXPECT_GT(stats.signature_collisions, stats.candidates)
          << "no pair shares two signatures: the dedup goes untested";
      EXPECT_EQ(stats.bitmap_filter_checked, stats.candidates);
      EXPECT_EQ(stats.bitmap_filter_pruned, expected.pruned);
      EXPECT_EQ(stats.results, result.pairs.size());
      EXPECT_EQ(stats.false_positives, stats.candidates - stats.results);
    }
  }
}

TEST(AccountingOracleTest, PartEnumJaccard) {
  SetCollection r = Clusters(2027, 1, 40, 6);
  SetCollection s = Clusters(2027, 2, 30, 4);
  PartEnumJaccardParams params;
  params.gamma = kGamma;
  params.max_set_size = std::max(r.max_set_size(), s.max_set_size());
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok()) << scheme.status().ToString();
  JaccardPredicate predicate(kGamma);
  ExpectExactAccounting("partenum self", r, nullptr, *scheme, predicate);
  ExpectExactAccounting("partenum binary", r, &s, *scheme, predicate);
}

TEST(AccountingOracleTest, PrefixFilter) {
  SetCollection r = Clusters(2028, 1, 40, 6);
  SetCollection s = Clusters(2028, 2, 30, 4);
  auto predicate = std::make_shared<JaccardPredicate>(kGamma);
  auto self_scheme = PrefixFilterScheme::Create(predicate, r);
  ASSERT_TRUE(self_scheme.ok()) << self_scheme.status().ToString();
  ExpectExactAccounting("prefix self", r, nullptr, *self_scheme, *predicate);
  auto binary_scheme = PrefixFilterScheme::Create(predicate, r, s);
  ASSERT_TRUE(binary_scheme.ok()) << binary_scheme.status().ToString();
  ExpectExactAccounting("prefix binary", r, &s, *binary_scheme, *predicate);
}

}  // namespace
}  // namespace ssjoin
