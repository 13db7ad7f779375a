#include "util/sorted_sets.h"

namespace ssjoin {

uint32_t SparseHammingDistance(std::span<const uint32_t> a,
                               std::span<const uint32_t> b) {
  size_t i = 0, j = 0;
  uint32_t dist = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++dist;
      ++i;
    } else {
      ++dist;
      ++j;
    }
  }
  dist += static_cast<uint32_t>((a.size() - i) + (b.size() - j));
  return dist;
}

uint32_t SortedIntersectionSize(std::span<const uint32_t> a,
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

}  // namespace ssjoin
