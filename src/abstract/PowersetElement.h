//===- PowersetElement.h - Bounded powerset abstract domain ------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded powerset domains (Sec. 2.3): a disjunction of at most
/// MaxDisjuncts base-domain elements. The ReLU transformer performs case
/// splits on crossing neurons — Example 2.3's "two zonotopes" — keeping the
/// two sides of each chosen neuron separate instead of joining them, which
/// is what lets (Z, 2) verify properties plain zonotopes cannot.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_ABSTRACT_POWERSETELEMENT_H
#define CHARON_ABSTRACT_POWERSETELEMENT_H

#include "abstract/AbstractElement.h"

#include <vector>

namespace charon {

/// Disjunction of at most MaxDisjuncts base elements.
///
/// Alongside the disjuncts, the element propagates one *baseline* copy of
/// the base domain that is never case-split, and answers every bound query
/// with the tighter of the disjunct union and the baseline. The ReLU
/// relaxations of numeric domains are not monotone under inclusion, so a
/// case split can occasionally loosen a downstream bound (found by the
/// soundness fuzzer's precision oracle); the baseline makes the powerset
/// at-least-as-precise-as-base contract hold by construction. Both bounds
/// are sound overapproximations of the same concrete set, so combining
/// them is sound.
class PowersetElement : public AbstractElement {
public:
  /// Wraps \p Initial as a single-disjunct powerset with budget
  /// \p MaxDisjuncts (>= 1).
  PowersetElement(std::unique_ptr<AbstractElement> Initial, int MaxDisjuncts);

  /// Assembles a powerset from existing disjuncts and their unsplit
  /// \p Baseline.
  PowersetElement(std::vector<std::unique_ptr<AbstractElement>> Elems,
                  int MaxDisjuncts, std::unique_ptr<AbstractElement> Baseline);

  std::unique_ptr<AbstractElement> clone() const override;
  size_t dim() const override;

  void applyAffine(const Matrix &W, const Vector &B) override;
  void applyConv(const AffineView &View) override;

  /// ReLU with case splitting: repeatedly splits every disjunct on the
  /// crossing neuron with the widest straddling interval while the result
  /// fits in the disjunct budget, then applies the base ReLU transformer to
  /// each disjunct (exact on the decided neuron).
  void applyActivation(ActivationKind K, size_t Begin, size_t End) override;

  void applyMaxPool(const PoolSpec &Spec) override;

  double lowerBound(size_t I) const override;
  double upperBound(size_t I) const override;
  double lowerBoundDiff(size_t K, size_t J) const override;

  std::unique_ptr<AbstractElement>
  meetHalfspaceAtZero(size_t D, bool NonNegative) const override;

  size_t numDisjuncts() const { return Elems.size(); }

  /// Read access to disjunct \p I (for diagnostics and benches).
  const AbstractElement &disjunct(size_t I) const { return *Elems[I]; }

private:
  std::vector<std::unique_ptr<AbstractElement>> Elems;
  int Budget;
  /// Unsplit copy of the base element, propagated in parallel and used to
  /// tighten every bound query.
  std::unique_ptr<AbstractElement> Base;
};

} // namespace charon

#endif // CHARON_ABSTRACT_POWERSETELEMENT_H
