// Set-collection storage.
//
// An SSJoin input is a collection of sets over an integer element domain
// (paper Section 2: r ⊆ {1..n}). SetCollection stores all sets in two flat
// arrays (CSR layout): cache-friendly iteration, zero per-set allocation,
// and cheap sharing across signature schemes. Elements within a set are
// kept sorted and deduplicated, which the merge-based intersection /
// hamming kernels rely on.

#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace ssjoin {

/// Index of a set within its collection.
using SetId = uint32_t;
/// An element of a set (paper: integer in {1..n}; we use the full uint32
/// range since all algorithms only need equality/order on elements).
using ElementId = uint32_t;

/// \brief Immutable CSR-layout collection of sorted sets.
///
/// Build with SetCollectionBuilder (or the FromVectors convenience), then
/// treat as read-only. All paper algorithms take `const SetCollection&`.
class SetCollection {
 public:
  SetCollection() { offsets_.push_back(0); }

  /// Number of sets.
  size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  /// The elements of set `id`, sorted ascending, duplicate-free.
  std::span<const ElementId> set(SetId id) const {
    SSJOIN_DCHECK_BOUNDS(id, size());
    return std::span<const ElementId>(elements_.data() + offsets_[id],
                                      offsets_[id + 1] - offsets_[id]);
  }

  /// |set(id)|.
  uint32_t set_size(SetId id) const {
    SSJOIN_DCHECK_BOUNDS(id, size());
    return static_cast<uint32_t>(offsets_[id + 1] - offsets_[id]);
  }

  /// Total number of stored elements (sum of set sizes).
  size_t total_elements() const { return elements_.size(); }

  /// Mean set size; 0 for an empty collection.
  double average_set_size() const {
    return empty() ? 0.0
                   : static_cast<double>(total_elements()) /
                         static_cast<double>(size());
  }

  /// Largest element value across all sets; 0 if there are none.
  ElementId max_element() const;

  /// Largest set size; 0 for an empty collection.
  uint32_t max_set_size() const;
  /// Smallest set size; 0 for an empty collection.
  uint32_t min_set_size() const;

  /// Convenience constructor from nested vectors (sorts + dedups each set).
  static SetCollection FromVectors(
      const std::vector<std::vector<ElementId>>& sets);

  /// A random sample (without replacement) of `k` sets, preserving nothing
  /// about ids. Used by the parameter advisor. If k >= size(), returns a
  /// copy. `seed` makes the sample reproducible.
  SetCollection Sample(size_t k, uint64_t seed) const;

 private:
  friend class SetCollectionBuilder;
  std::vector<size_t> offsets_;      // size() + 1 entries
  std::vector<ElementId> elements_;  // concatenated sorted sets
};

/// \brief Incremental builder for SetCollection.
class SetCollectionBuilder {
 public:
  /// Appends a set; the input may be unsorted and may contain duplicates.
  /// Returns the id assigned to the new set.
  SetId Add(std::span<const ElementId> elements);
  SetId Add(const std::vector<ElementId>& elements) {
    return Add(std::span<const ElementId>(elements));
  }
  SetId Add(std::initializer_list<ElementId> elements) {
    return Add(std::span<const ElementId>(elements.begin(), elements.size()));
  }

  /// Appends a *bag*: duplicates are preserved by re-encoding the j-th
  /// occurrence of element e as the distinct synthetic element
  /// HashCombine(Mix64(e), j) folded to 32 bits. This is the standard
  /// trick that lets set algorithms run on multisets (used for q-gram bags
  /// in the edit-distance join, paper Section 8.2).
  SetId AddBag(std::span<const ElementId> elements);

  size_t size() const { return collection_.size(); }

  /// Finalizes and returns the collection; the builder is left empty.
  SetCollection Build();

 private:
  SetCollection collection_;
  std::vector<ElementId> bag_scratch_;  // AddBag's sorted copy, reused
};

/// Basic distribution statistics of a collection (used by benches/docs).
struct CollectionStats {
  size_t num_sets = 0;
  size_t total_elements = 0;
  double avg_set_size = 0;
  uint32_t min_set_size = 0;
  uint32_t max_set_size = 0;
  size_t distinct_elements = 0;
};

CollectionStats ComputeStats(const SetCollection& collection);

/// Renders stats on one line ("sets=... avg=... ...").
std::string ToString(const CollectionStats& stats);

}  // namespace ssjoin
