// Set-intersection kernels (DESIGN.md Section 11).
//
// Exact verification spends its time in sorted-set intersection
// (Predicate::Evaluate -> SortedIntersectionSize). This module offers
// two bit-exact kernels and a per-pair dispatch policy:
//
//   * kScalar    — the two-pointer merge (mirrors util/sorted_sets.cc),
//                  kept as the semantics oracle galloping must match.
//   * kGalloping — for skewed size ratios (|b| >= kGallopRatio * |a|):
//                  binary-search each element of the small side in the
//                  large side, O(|a| log |b|) instead of O(|a| + |b|).
//
// Both kernels return exactly the same count for every input — the
// differential suite (tests/core/kernels_test.cc, ctest label `kernels`)
// enforces it exhaustively on small sets and randomly at scale — so the
// dispatch choice can never change join output, only its speed.
//
// Thread-safety: the kernels are pure functions over their operands.
// The dispatch counters are process-global relaxed atomics — cheap,
// monotone, and approximate under concurrent joins — published as
// kRuntime metrics only (they move with concurrent joins in the same
// process, so they can never be part of the deterministic export).

#pragma once

#include <cstdint>
#include <span>

namespace ssjoin::kernels {

/// Which implementation serviced an IntersectSize call.
enum class IntersectKernel {
  kScalar = 0,
  kGalloping = 1,
};

/// Size-ratio threshold for galloping: the large side must be at least
/// this many times the small side. Below it, the linear merge's
/// branch-predictable scan wins; above it, binary search does.
inline constexpr size_t kGallopRatio = 32;

/// |a ∩ b| for two sorted, duplicate-free element arrays. Dispatches to
/// galloping for skewed pairs and to the scalar merge otherwise, and
/// increments the matching dispatch counter. Bit-exact with
/// SortedIntersectionSize for every input.
uint32_t IntersectSize(std::span<const uint32_t> a,
                       std::span<const uint32_t> b);

/// Runs one specific kernel (differential tests and benchmarks; skips
/// the dispatch counters).
uint32_t IntersectSizeWith(IntersectKernel kernel,
                           std::span<const uint32_t> a,
                           std::span<const uint32_t> b);

/// Human name of the kernel ("scalar" / "galloping").
const char* IntersectKernelName(IntersectKernel kernel);

/// Monotone process-global dispatch totals (relaxed atomics).
struct IntersectCounts {
  uint64_t scalar = 0;
  uint64_t galloping = 0;
};

/// Snapshot of the dispatch counters. Drivers snapshot at join start and
/// publish the delta at join end as kRuntime metrics.
IntersectCounts IntersectDispatchCounts();

}  // namespace ssjoin::kernels
