// The signature-scheme abstraction (paper Section 3).
//
// A signature-based SSJoin algorithm (Figure 2) generates a signature set
// Sign(x) for every input set, finds all pairs whose signature sets
// overlap, and post-filters candidates with the exact predicate. The only
// difference between algorithms is the signature scheme, so the scheme is
// the unit of pluggability here; the shared driver lives in core/ssjoin.h.
//
// Correctness requirement (Section 3.1): whenever pred(r, s) holds,
// Sign(r) ∩ Sign(s) must be non-empty. Exact schemes guarantee this
// deterministically; LSH-style schemes only with probability (IsExact()
// returns false, and the join result may miss pairs).

#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "data/collection.h"

namespace ssjoin {

/// \brief Generates signatures for input sets.
///
/// Implementations hold all "hidden parameters" (Section 3.1): thresholds,
/// collection statistics (element frequencies), and random bits. The same
/// scheme instance must be used for both join inputs so hidden parameters
/// agree.
class SignatureScheme {
 public:
  virtual ~SignatureScheme() = default;

  /// Display name used in experiment output ("PEN", "PF", "LSH", ...).
  virtual std::string Name() const = 0;

  /// Appends Sign(set) to *out. `set` is sorted and duplicate-free (a
  /// SetCollection member). Implementations must not emit duplicate
  /// signatures for one set (they would inflate F2 accounting and
  /// candidate generation for no benefit).
  virtual void Generate(std::span<const ElementId> set,
                        std::vector<Signature>* out) const = 0;

  /// True if the scheme satisfies the correctness requirement
  /// deterministically (never misses a joinable pair).
  virtual bool IsExact() const { return true; }

  /// Convenience: Sign(set) as a fresh vector.
  std::vector<Signature> Signatures(std::span<const ElementId> set) const {
    std::vector<Signature> out;
    Generate(set, &out);
    return out;
  }
};

using SignatureSchemePtr = std::shared_ptr<const SignatureScheme>;

/// Replaces *scratch with the deduplicated, sorted Sign(set) — the form
/// the join operators and the spill writer consume.
void GenerateSorted(const SignatureScheme& scheme,
                    std::span<const ElementId> set,
                    std::vector<Signature>* scratch);

/// \brief Wrapper narrowing another scheme's signatures to `bits` bits.
///
/// The paper hashes signatures "into 4 byte values" (Section 4.2) and
/// argues the extra hash-collision false positives are negligible; this
/// library defaults to 64-bit signatures. Wrapping a scheme in
/// NarrowedScheme reproduces the paper's 32-bit setting (or any width)
/// for the hash-width ablation. Narrowing can only merge signatures, so
/// completeness is preserved — only filtering effectiveness can degrade.
class NarrowedScheme final : public SignatureScheme {
 public:
  NarrowedScheme(SignatureSchemePtr base, int bits)
      : base_(std::move(base)), bits_(bits) {}

  std::string Name() const override {
    return base_->Name() + "/" + std::to_string(bits_) + "bit";
  }

  bool IsExact() const override { return base_->IsExact(); }

  void Generate(std::span<const ElementId> set,
                std::vector<Signature>* out) const override;

 private:
  SignatureSchemePtr base_;
  int bits_;
};

}  // namespace ssjoin
