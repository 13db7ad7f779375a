// Set algebra over sorted element arrays.
//
// Paper Section 2.2 views a set s ⊆ {1..n} as an n-dimensional binary
// vector; hamming distance between sets is the hamming distance between
// their vector representations, i.e. the size of their symmetric
// difference. These merges compute it, and the intersection size, from
// the sorted arrays directly. Tests use them as reference oracles and
// the benches as the unoptimized baseline.

#pragma once

#include <cstdint>
#include <span>

namespace ssjoin {

/// Hamming distance between two *sorted* element arrays = size of their
/// symmetric difference (paper: Hd(s1,s2) = |(s1-s2) ∪ (s2-s1)|).
/// O(|a|+|b|), no dense materialization.
uint32_t SparseHammingDistance(std::span<const uint32_t> a,
                               std::span<const uint32_t> b);

/// Intersection size of two *sorted* element arrays, O(|a|+|b|).
uint32_t SortedIntersectionSize(std::span<const uint32_t> a,
                                std::span<const uint32_t> b);

}  // namespace ssjoin
