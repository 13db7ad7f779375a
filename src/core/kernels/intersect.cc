#include "core/kernels/intersect.h"

#include <algorithm>
#include <atomic>

namespace ssjoin::kernels {

namespace {

std::atomic<uint64_t> g_scalar_calls{0};
std::atomic<uint64_t> g_galloping_calls{0};

// The two-pointer reference (mirrors util SortedIntersectionSize; kept
// local so the kernel layer has no dependency and the oracle cannot
// drift out from under the differential tests).
uint32_t IntersectScalar(std::span<const uint32_t> a,
                         std::span<const uint32_t> b) {
  size_t i = 0, j = 0;
  uint32_t size = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++size;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return size;
}

// Galloping search for skewed pairs: every element of the small side is
// located in the large side by a doubling probe + binary search that
// resumes where the previous element left off (both sides are sorted, so
// the search window only moves forward).
uint32_t IntersectGalloping(std::span<const uint32_t> small,
                            std::span<const uint32_t> large) {
  uint32_t size = 0;
  size_t lo = 0;
  for (uint32_t value : small) {
    // Doubling probe from the current frontier.
    size_t step = 1;
    size_t hi = lo;
    while (hi < large.size() && large[hi] < value) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    hi = std::min(hi, large.size());
    const uint32_t* pos =
        std::lower_bound(large.data() + lo, large.data() + hi, value);
    lo = static_cast<size_t>(pos - large.data());
    if (lo == large.size()) break;
    if (large[lo] == value) {
      ++size;
      ++lo;
    }
  }
  return size;
}

}  // namespace

const char* IntersectKernelName(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kScalar:
      return "scalar";
    case IntersectKernel::kGalloping:
      return "galloping";
  }
  return "unknown";
}

uint32_t IntersectSize(std::span<const uint32_t> a,
                       std::span<const uint32_t> b) {
  const size_t small = std::min(a.size(), b.size());
  const size_t large = std::max(a.size(), b.size());
  // Tiny small sides stay on the merge: the probe overhead would exceed
  // the work.
  if (small > 8 && large >= kGallopRatio * small) {
    g_galloping_calls.fetch_add(1, std::memory_order_relaxed);
    return a.size() <= b.size() ? IntersectGalloping(a, b)
                                : IntersectGalloping(b, a);
  }
  g_scalar_calls.fetch_add(1, std::memory_order_relaxed);
  return IntersectScalar(a, b);
}

uint32_t IntersectSizeWith(IntersectKernel kernel,
                           std::span<const uint32_t> a,
                           std::span<const uint32_t> b) {
  switch (kernel) {
    case IntersectKernel::kScalar:
      return IntersectScalar(a, b);
    case IntersectKernel::kGalloping:
      return a.size() <= b.size() ? IntersectGalloping(a, b)
                                  : IntersectGalloping(b, a);
  }
  return IntersectScalar(a, b);
}

IntersectCounts IntersectDispatchCounts() {
  IntersectCounts counts;
  counts.scalar = g_scalar_calls.load(std::memory_order_relaxed);
  counts.galloping = g_galloping_calls.load(std::memory_order_relaxed);
  return counts;
}

}  // namespace ssjoin::kernels
