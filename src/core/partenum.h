// PartEnum: the paper's signature scheme for hamming SSJoins (Section 4).
//
// PartEnum combines two ideas (Section 4.1):
//   Partitioning — split the dimensions into n1 first-level partitions; two
//   vectors with Hd <= k must have Hd <= k2 = ceil((k+1)/n1) - 1 on at
//   least one first-level partition (counting argument).
//   Enumeration — within each first-level partition, split into n2
//   second-level partitions and emit one signature per subset of
//   (n2 - k2) second-level partitions; two projections with Hd <= k2
//   disagree on at most k2 second-level partitions, so some emitted subset
//   avoids all disagreements and its projections coincide.
//
// Each signature is the pair ⟨v[P], P⟩ (projection, dimension subset),
// hashed to 64 bits via the sparse encoding ⟨P1(v), i, S⟩ of Section 4.2.
// A set therefore gets exactly n1 * C(n2, k2) signatures, independent of
// the dimensionality n — the property that makes PartEnum work for sparse
// sets over huge domains (Theorem 2 discussion).
//
// Dimension assignment: the paper permutes {1..n} with a random
// permutation pi and uses contiguous equi-sized blocks. Our element domain
// is the full 32-bit hash space, so materializing pi is impossible;
// instead each element is assigned directly to one of the n1*n2
// second-level partitions by a seeded mixing hash. This has the same
// distribution as "random permutation + contiguous blocks" (each element
// lands in a uniformly random partition, independently across elements up
// to hash quality), and Theorem 1 (completeness) holds for *any*
// deterministic assignment map, because its counting argument never uses
// bijectivity — only that each differing dimension lands in exactly one
// partition. Tests verify completeness exhaustively.

#pragma once

#include <cstdint>
#include <vector>

#include "core/signature_scheme.h"
#include "util/hashing.h"
#include "util/status.h"

namespace ssjoin {

/// Parameters of a hamming PartEnum instance (paper Figure 3).
struct PartEnumParams {
  /// Hamming distance threshold k.
  uint32_t k = 0;
  /// Number of first-level partitions; must satisfy 1 <= n1 <= k + 1.
  uint32_t n1 = 1;
  /// Number of second-level partitions per first-level partition; must
  /// satisfy n1 * n2 > k + 1 (ensures n2 - k2 >= 1) and n2 >= 1.
  uint32_t n2 = 2;
  /// Seed of the dimension-assignment hash (the paper's permutation pi).
  /// All instances participating in one join must share it.
  uint64_t seed = 0x9E3779B9;

  /// The derived second-level threshold k2 = ceil((k+1)/n1) - 1.
  uint32_t k2() const { return (k + n1) / n1 - 1; }

  /// Number of signatures per set: n1 * C(n2, n2 - k2).
  uint64_t SignaturesPerSet() const;

  /// Validates the Figure 3 constraints.
  Status Validate() const;

  /// A reasonable default for a given k: n1 = ceil((k+1)/2) (so k2 = 1)
  /// and n2 = 4, the "hybrid" configuration of Section 4.1. Callers that
  /// care about performance should use the parameter advisor instead.
  static PartEnumParams Default(uint32_t k);

  /// This (n1, n2) shape fitted to threshold `k` under `seed`: n1 is
  /// clamped to [1, k + 1] and n2 raised until n1 * n2 > k + 1, so the
  /// result passes Validate(). Shape choosers may return settings tuned
  /// for another threshold (e.g. n1 > k + 1 on a tiny size interval);
  /// the schemes fit them rather than fail the whole join.
  PartEnumParams FittedTo(uint32_t k, uint64_t seed) const;

  /// All valid (n1, n2) settings for threshold k with at most
  /// `max_signatures` signatures per set — the search space swept by the
  /// parameter advisor and by the Figure 15 / Table 1 experiments.
  static std::vector<PartEnumParams> EnumerateValid(uint32_t k,
                                                    uint64_t max_signatures,
                                                    uint64_t seed);
};

/// \brief PartEnum signature scheme for hamming SSJoins.
class PartEnumScheme final : public SignatureScheme {
 public:
  /// Validates `params` and builds the scheme (precomputes the subset
  /// enumeration masks).
  static Result<PartEnumScheme> Create(const PartEnumParams& params);

  std::string Name() const override;

  void Generate(std::span<const ElementId> set,
                std::vector<Signature>* out) const override;

  const PartEnumParams& params() const { return params_; }

  /// The second-level partition (0 .. n1*n2-1) element `e` is assigned to.
  uint32_t PartitionOf(ElementId e) const;

 private:
  explicit PartEnumScheme(const PartEnumParams& params);

  PartEnumParams params_;
  uint32_t k2_;
  // Bitmasks over {0..n2-1}, one per (n2 - k2)-subset, enumerated once.
  std::vector<uint32_t> subset_masks_;
  // Precomputed hash material (core/kernels/hash_kernels.h split): the
  // per-signature header Adds — seed, first-level index i, subset mask,
  // partition tags — never vary per set, so their Mix64s are computed
  // once here and folded with AddMixed in Generate. Value-exact with the
  // original Add chain.
  std::vector<SequenceHasher> level_hashers_;   // state after Add(i)
  std::vector<uint64_t> mixed_subset_masks_;    // Mix64(mask)
  std::vector<uint64_t> mixed_partition_tags_;  // Mix64(kPartitionTag ^ j)
};

}  // namespace ssjoin
