// Differential tests for partitioned candidate generation
// (core/kernels/posting_groups.h) against a std::sort reference: the
// grouping must be a partition of the postings into sorted, shard- and
// bucket-disjoint signature groups, and CandidateBuckets' survivors must
// be exactly the filtered sort+unique of every group's pairs, each at its
// offset in that sequence, with the same distinct and collision counts —
// at 1–5 shards, several bucket counts and 1 or 3 spill partitions, for
// CSR and flat (spill) input, self and binary joins.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/posting_groups.h"
#include "core/types.h"
#include "util/hashing.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ssjoin::kernels {
namespace {

// A signature table: set i owns values[offsets[i], offsets[i + 1]),
// sorted and duplicate-free, as SigGen produces it.
struct Table {
  std::vector<Signature> values;
  std::vector<size_t> offsets{0};

  void Add(std::vector<Signature> sigs) {
    std::sort(sigs.begin(), sigs.end());
    sigs.erase(std::unique(sigs.begin(), sigs.end()), sigs.end());
    values.insert(values.end(), sigs.begin(), sigs.end());
    offsets.push_back(values.size());
  }

  // The postings in set order, set i carrying id base + i: the order a
  // spill partition file holds them in.
  std::vector<Posting> Postings(SetId base) const {
    std::vector<Posting> out;
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
      for (size_t v = offsets[i]; v < offsets[i + 1]; ++v) {
        out.emplace_back(values[v], static_cast<SetId>(base + i));
      }
    }
    return out;
  }
};

Table RandomTable(Rng& rng, size_t sets, uint32_t max_sigs,
                  uint64_t universe) {
  Table table;
  for (size_t i = 0; i < sets; ++i) {
    std::vector<Signature> sigs(rng.Uniform(max_sigs + 1));
    for (Signature& sig : sigs) sig = rng.Next64() % universe;
    table.Add(std::move(sigs));
  }
  return table;
}

struct Candidates {
  std::vector<uint64_t> packed;
  uint64_t collisions = 0;

  bool operator==(const Candidates&) const = default;
};

// Reference: one global sort, then every pair of every group.
Candidates ReferenceSelf(std::vector<Posting> postings) {
  std::sort(postings.begin(), postings.end());
  Candidates out;
  for (size_t g = 0; g < postings.size();) {
    size_t h = g;
    while (h < postings.size() && postings[h].first == postings[g].first) ++h;
    for (size_t a = g; a < h; ++a) {
      for (size_t b = a + 1; b < h; ++b) {
        out.packed.push_back(PackPair(postings[a].second, postings[b].second));
        ++out.collisions;
      }
    }
    g = h;
  }
  std::sort(out.packed.begin(), out.packed.end());
  out.packed.erase(std::unique(out.packed.begin(), out.packed.end()),
                   out.packed.end());
  return out;
}

Candidates ReferenceBinary(const std::vector<Posting>& r,
                           const std::vector<Posting>& s) {
  std::map<Signature, std::vector<SetId>> ids_s;
  for (const Posting& p : s) ids_s[p.first].push_back(p.second);
  Candidates out;
  for (const Posting& p : r) {
    auto it = ids_s.find(p.first);
    if (it == ids_s.end()) continue;
    for (SetId id_s : it->second) {
      out.packed.push_back(PackPair(p.second, id_s));
      ++out.collisions;
    }
  }
  std::sort(out.packed.begin(), out.packed.end());
  out.packed.erase(std::unique(out.packed.begin(), out.packed.end()),
                   out.packed.end());
  return out;
}

// The grouping contract: the bucket count as asked, every bucket
// strictly sorted, no signature in two buckets (of any shard), and
// together exactly the input postings.
void ExpectValidGroups(const std::vector<PostingShard>& shards,
                       size_t buckets, std::vector<Posting> expected) {
  std::vector<Posting> seen;
  std::map<Signature, std::pair<size_t, size_t>> home;
  for (size_t s = 0; s < shards.size(); ++s) {
    const PostingShard& shard = shards[s];
    ASSERT_EQ(shard.buckets(), buckets);
    ASSERT_EQ(shard.offsets.front(), 0u);
    ASSERT_EQ(shard.offsets.back(), shard.postings.size());
    for (size_t b = 0; b < buckets; ++b) {
      ASSERT_LE(shard.offsets[b], shard.offsets[b + 1]);
      std::span<const Posting> bucket = shard.bucket(b);
      EXPECT_TRUE(std::adjacent_find(bucket.begin(), bucket.end(),
                                     [](const Posting& x, const Posting& y) {
                                       return !(x < y);
                                     }) == bucket.end())
          << "bucket " << b << " of shard " << s << " not strictly sorted";
      for (const Posting& p : bucket) {
        auto it = home.emplace(p.first, std::make_pair(s, b)).first;
        EXPECT_EQ(it->second, std::make_pair(s, b))
            << "signature " << p.first << " split across buckets";
        seen.push_back(p);
      }
    }
  }
  std::sort(seen.begin(), seen.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected);
}

// Test filters: a hash keeps about two thirds of the pairs, so survivors
// and their offsets interleave with pruned pairs.
bool KeepSome(uint64_t pair) { return Mix64(pair) % 3 != 0; }
bool KeepAll(uint64_t) { return true; }

// The reference bucket pass: every distinct candidate in order, the
// survivors at their offsets.
Survivors ReferenceFilter(const Candidates& all, const PairFilter& keep) {
  Survivors out;
  for (size_t i = 0; i < all.packed.size(); ++i) {
    if (keep(all.packed[i])) {
      out.pairs.push_back(all.packed[i]);
      out.offsets.push_back(i);
    }
  }
  out.candidates = all.packed.size();
  return out;
}

void ExpectSameSurvivors(const Survivors& got, const Survivors& want) {
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_EQ(got.offsets, want.offsets);
}

// The postings split into `partitions` spill partitions by signature, as
// the spill layer routes them.
std::vector<std::vector<Posting>> Partition(const std::vector<Posting>& all,
                                            uint32_t partitions) {
  std::vector<std::vector<Posting>> out(partitions);
  for (const Posting& p : all) {
    out[Mix64(p.first ^ 77) % partitions].push_back(p);
  }
  return out;
}

SetId MaxId(const std::vector<Posting>& postings) {
  SetId max_id = 0;
  for (const Posting& p : postings) max_id = std::max(max_id, p.second);
  return max_id;
}

// Runs the kernel over the partitions of `r` (self-join when `s` is
// null), grouping each with `buckets` buckets, and checks the survivors
// and collisions under both filters against the reference.
void ExpectKernelMatches(const std::vector<Posting>& r,
                         const std::vector<Posting>* s, size_t buckets,
                         ThreadPool& pool, const Candidates& expected) {
  for (uint32_t partitions : {1u, 3u}) {
    for (bool some : {true, false}) {
      SCOPED_TRACE(testing::Message() << "partitions " << partitions
                                      << (some ? " keep some" : " keep all"));
      const PairFilter keep = some ? PairFilter(KeepSome) : KeepAll;
      std::vector<std::vector<Posting>> parts_r = Partition(r, partitions);
      std::vector<std::vector<Posting>> parts_s;
      if (s != nullptr) parts_s = Partition(*s, partitions);
      CandidateBuckets kernel(MaxId(r), partitions);
      for (uint32_t p = 0; p < partitions; ++p) {
        std::vector<PostingShard> shards_r =
            GroupPostings(parts_r[p], buckets, pool, {});
        std::vector<PostingShard> shards_s;
        if (s != nullptr) {
          shards_s = GroupPostings(parts_s[p], buckets, pool, {});
        }
        ASSERT_TRUE(kernel.Add(&shards_r, s != nullptr ? &shards_s : nullptr,
                               pool, {}));
        for (const PostingShard& shard : shards_r) {
          EXPECT_TRUE(shard.postings.empty()) << "postings not freed";
        }
      }
      EXPECT_EQ(kernel.collisions(), expected.collisions);
      ExpectSameSurvivors(kernel.Filter(keep, pool, {}),
                          ReferenceFilter(expected, keep));
    }
  }
}

// Bucket counts to try at `threads` shards for `postings` postings: one
// bucket, a few odd ones, and the production choice.
std::vector<size_t> BucketCounts(size_t postings, size_t threads) {
  return {1, 3, 64, PostingBuckets(postings, threads)};
}

// Self join of `table` through both input forms (CSR when ids start at
// 0, flat from `base`) at 1–5 shards, against the reference.
void ExpectSelfJoinMatches(const Table& table, SetId base) {
  const std::vector<Posting> postings = table.Postings(base);
  const Candidates expected = ReferenceSelf(postings);
  for (size_t threads = 1; threads <= 5; ++threads) {
    ThreadPool pool(threads);
    for (size_t buckets : BucketCounts(postings.size(), threads)) {
      SCOPED_TRACE(testing::Message() << "threads " << threads << " buckets "
                                      << buckets << " base " << base);
      ExpectValidGroups(GroupPostings(postings, buckets, pool, {}), buckets,
                        postings);
      if (base == 0) {
        std::vector<PostingShard> shards = GroupPostings(
            table.values, table.offsets, buckets, pool, {});
        ASSERT_EQ(shards.size(), threads);
        ExpectValidGroups(shards, buckets, postings);
        CandidateBuckets kernel(MaxId(postings), 1);
        ASSERT_TRUE(kernel.Add(&shards, nullptr, pool, {}));
        EXPECT_EQ(kernel.collisions(), expected.collisions);
        ExpectSameSurvivors(kernel.Filter(KeepSome, pool, {}),
                            ReferenceFilter(expected, KeepSome));
      }
      ExpectKernelMatches(postings, nullptr, buckets, pool, expected);
    }
  }
}

void ExpectBinaryJoinMatches(const Table& r, SetId base_r, const Table& s,
                             SetId base_s) {
  const std::vector<Posting> postings_r = r.Postings(base_r);
  const std::vector<Posting> postings_s = s.Postings(base_s);
  const Candidates expected = ReferenceBinary(postings_r, postings_s);
  for (size_t threads = 1; threads <= 5; ++threads) {
    ThreadPool pool(threads);
    size_t larger = std::max(postings_r.size(), postings_s.size());
    for (size_t buckets : BucketCounts(larger, threads)) {
      SCOPED_TRACE(testing::Message() << "threads " << threads << " buckets "
                                      << buckets);
      ExpectValidGroups(GroupPostings(postings_r, buckets, pool, {}), buckets,
                        postings_r);
      ExpectValidGroups(GroupPostings(postings_s, buckets, pool, {}), buckets,
                        postings_s);
      ExpectKernelMatches(postings_r, &postings_s, buckets, pool, expected);
    }
  }
}

TEST(PostingGroups, RandomSelfJoinsMatchSortReference) {
  Rng rng(1206);
  // Dense universes make big groups; the 2^64 one makes mostly
  // singletons.
  for (uint64_t universe : {40ull, 2000ull, ~0ull}) {
    for (int trial = 0; trial < 3; ++trial) {
      Table table = RandomTable(rng, 1 + rng.Uniform(500), 12, universe);
      ExpectSelfJoinMatches(table, 0);
    }
  }
}

TEST(PostingGroups, RandomBinaryJoinsMatchSortReference) {
  Rng rng(1207);
  for (uint64_t universe : {40ull, 2000ull}) {
    for (int trial = 0; trial < 3; ++trial) {
      Table r = RandomTable(rng, 1 + rng.Uniform(300), 10, universe);
      Table s = RandomTable(rng, 1 + rng.Uniform(300), 10, universe);
      ExpectBinaryJoinMatches(r, 0, s, 0);
    }
  }
}

TEST(PostingGroups, EmptyTable) {
  Table empty;
  ExpectSelfJoinMatches(empty, 0);
  Rng rng(3);
  ExpectBinaryJoinMatches(empty, 0, RandomTable(rng, 20, 5, 30), 0);
  ExpectBinaryJoinMatches(RandomTable(rng, 20, 5, 30), 0, empty, 0);
}

TEST(PostingGroups, SingleSet) {
  Table one;
  one.Add({3, 9, 27, 81});
  ExpectSelfJoinMatches(one, 0);
  ExpectBinaryJoinMatches(one, 0, one, 0);
}

TEST(PostingGroups, OneSignatureSharedByEverySet) {
  // One giant group (and bucket): 300 * 299 / 2 = 44850 pairs, enough
  // for several first-id dedup buckets.
  Rng rng(5);
  Table table;
  for (int i = 0; i < 300; ++i) {
    table.Add({42, 1000 + rng.Uniform(50)});
  }
  ExpectSelfJoinMatches(table, 0);
  ExpectBinaryJoinMatches(table, 0, table, 0);
}

TEST(PostingGroups, SmallIntegerSignatures) {
  // The prefix filter's signatures are element ids: they must still
  // spread over shards and buckets through the hash.
  Rng rng(7);
  Table table = RandomTable(rng, 400, 6, 16);
  ExpectSelfJoinMatches(table, 0);
}

TEST(PostingGroups, AllOnesSignature) {
  const Signature all_ones = std::numeric_limits<Signature>::max();
  Table table;
  table.Add({all_ones, 0});
  table.Add({all_ones - 1});
  table.Add({all_ones, 5});
  table.Add({0, 5});
  ExpectSelfJoinMatches(table, 0);
  ExpectBinaryJoinMatches(table, 0, table, 0);
}

TEST(PostingGroups, SetIdsNearUint32Max) {
  // Ids run up to UINT32_MAX itself: the high half of PackPair and the
  // first-id dedup buckets see their largest values.
  Rng rng(11);
  Table table = RandomTable(rng, 200, 6, 60);
  const SetId top = std::numeric_limits<SetId>::max();
  const SetId base = top - 199;
  ExpectSelfJoinMatches(table, base);
  ExpectBinaryJoinMatches(table, base, table, 0);
  ExpectBinaryJoinMatches(table, 0, table, base);
}

TEST(PostingGroups, StopDiscardsOutput) {
  Rng rng(13);
  Table table = RandomTable(rng, 200, 6, 60);
  std::vector<Posting> postings = table.Postings(0);
  auto stop = [] { return true; };
  for (size_t threads = 1; threads <= 5; ++threads) {
    ThreadPool pool(threads);
    std::vector<PostingShard> stopped =
        GroupPostings(table.values, table.offsets, 5, pool, stop);
    ASSERT_EQ(stopped.size(), threads);
    for (const PostingShard& shard : stopped) {
      EXPECT_EQ(shard.buckets(), 5u);
      EXPECT_TRUE(shard.postings.empty());
    }
    // A stop during Add, then one during the bucket pass of a kernel
    // whose pairs were all added.
    std::vector<PostingShard> shards = GroupPostings(postings, 5, pool, {});
    CandidateBuckets add_stopped(MaxId(postings), 1);
    EXPECT_FALSE(add_stopped.Add(&shards, nullptr, pool, stop));
    shards = GroupPostings(postings, 5, pool, {});
    CandidateBuckets filter_stopped(MaxId(postings), 1);
    ASSERT_TRUE(filter_stopped.Add(&shards, nullptr, pool, {}));
    ASSERT_GT(filter_stopped.collisions(), 0u);
    Survivors out = filter_stopped.Filter(KeepAll, pool, stop);
    EXPECT_EQ(out.candidates, 0u);
    EXPECT_TRUE(out.pairs.empty());
    EXPECT_TRUE(out.offsets.empty());
  }
}

TEST(PostingGroups, ShardScopeWrapsEveryShardOnce) {
  Rng rng(17);
  Table table = RandomTable(rng, 300, 8, 50);
  std::vector<Posting> postings = table.Postings(0);
  const Candidates expected = ReferenceSelf(postings);
  for (size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    std::vector<PostingShard> shards = GroupPostings(postings, 7, pool, {});
    std::vector<uint64_t> seen(threads, 0);
    std::vector<int> calls(threads, 0);
    CandidateBuckets kernel(MaxId(postings), 1);
    ASSERT_TRUE(kernel.Add(&shards, nullptr, pool, {},
                           [&](size_t shard, uint64_t occurrences,
                               const std::function<void()>& scatter) {
                             ++calls[shard];
                             seen[shard] = occurrences;
                             scatter();
                           }));
    uint64_t total = 0;
    for (size_t shard = 0; shard < threads; ++shard) {
      EXPECT_EQ(calls[shard], 1) << "shard " << shard;
      total += seen[shard];
    }
    EXPECT_EQ(total, expected.collisions);
    ExpectSameSurvivors(kernel.Filter(KeepAll, pool, {}),
                        ReferenceFilter(expected, KeepAll));
  }
}

}  // namespace
}  // namespace ssjoin::kernels
