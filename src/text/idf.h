// IDF (inverse document frequency) weighting.
//
// Paper Section 7: the IDF weight of an element is log(1 / f_e) where f_e
// is the fraction of input sets containing e. WtEnum's pruning argument
// relies on this definition: any element subset whose weights sum to
// TH = log(max(|R|, |S|)) occurs in at most one input set in expectation
// (under independence), so prefixes that heavy rarely collide.
//
// Weight() sits on hot paths: WtEnum signature generation and the
// weighted Verify call it per element of every set and candidate. So
// Compute() counts document frequencies once and then precomputes every
// seen element's weight into one flat open-addressing table of
// {element, df, weight} slots: capacity a power of two at least twice
// the number of distinct elements, linear probing from Mix64(element),
// df == 0 marking an empty slot (so every ElementId, 0 and UINT32_MAX
// included, is a valid key). Each slot's weight is the same log(N / df)
// expression evaluated once, so weights are bit-identical to computing
// them per call.

#pragma once

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "data/collection.h"
#include "util/hashing.h"

namespace ssjoin {

/// \brief Per-element IDF weights computed from one or two collections.
class IdfWeights {
 public:
  /// Computes document frequencies over `collection` (self-join case).
  static IdfWeights Compute(const SetCollection& collection);

  /// Computes document frequencies over the union of two collections
  /// (binary-join case: frequencies in R ∪ S, as the prefix-filter
  /// baseline also requires).
  static IdfWeights Compute(const SetCollection& r, const SetCollection& s);

  /// IDF weight of element e: log(N / df(e)). Elements never seen get the
  /// maximum weight log(N * 2) (rarer than everything observed).
  double Weight(ElementId e) const {
    const Slot* slot = Find(e);
    return slot != nullptr ? slot->weight : unseen_weight_;
  }

  /// Number of sets the element appears in (0 if unseen).
  uint32_t DocumentFrequency(ElementId e) const {
    const Slot* slot = Find(e);
    return slot != nullptr ? slot->df : 0;
  }

  /// Total number of documents (sets) the statistics were computed over.
  size_t num_documents() const { return num_documents_; }

  /// The WtEnum default pruning threshold TH = log(max(|R|,|S|)) (paper
  /// Section 7 discussion following Example 6).
  double DefaultPruningThreshold() const;

 private:
  // One table slot; df == 0 marks it empty.
  struct Slot {
    ElementId element;
    uint32_t df;
    double weight;  // log(N / df)
  };

  // Counts document frequencies over the union of `inputs`, then fills
  // the table.
  static IdfWeights Build(std::initializer_list<const SetCollection*> inputs);

  // The slot holding `e`, or nullptr if `e` was never seen. The table is
  // at most half full, so the probe always reaches an empty slot.
  const Slot* Find(ElementId e) const {
    size_t i = Mix64(e) & mask_;
    while (slots_[i].df != 0) {
      if (slots_[i].element == e) return &slots_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  // A default-constructed instance is the empty table (N = 0).
  size_t num_documents_ = 0;
  double unseen_weight_ = std::log(2.0);  // log(2N), N clamped to >= 1
  size_t mask_ = 1;                       // capacity - 1
  std::vector<Slot> slots_ = std::vector<Slot>(2, Slot{0, 0, 0});
};

}  // namespace ssjoin
