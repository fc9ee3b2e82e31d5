//===- LinearBoundsElement.h - Symbolic linear-bounds domain -----*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linear-bounds domain: each neuron carries one symbolic *linear* lower
/// and one linear upper bound over the network inputs, evaluated over the
/// input box. Keeping input dependencies symbolic through stable neurons is
/// what makes it much tighter than plain intervals. Two ReLU relaxations
/// share the representation and differ only in a crossing neuron's upper
/// bound:
///
///  - Concretize: the symbolic interval domain of ReluVal (Wang et al.,
///    USENIX Security'18), the substrate of the paper's ReluVal baseline
///    (Sec. 7.2, footnote 8: Charon's own engine does not support this
///    domain, which is why the paper compares against ReluVal directly; we
///    implement it faithfully so the baseline is real). The upper bound
///    stays symbolic only while it is nonnegative on the whole region and
///    is otherwise concretized to its maximum.
///  - Triangle: the sub-polyhedra restriction AI2 (Sec. 2.3) and modern
///    ELINA use in place of full convex polyhedra (exponential in
///    practice). With crossing bounds [l, u] and lambda = u / (u - l):
///
///      relu(x) <= lambda * (x - l)        (relational upper bound)
///      relu(x) >= 0                       (lower bound)
///
///    The upper bound stays *relational* through every crossing neuron,
///    which lets the domain prove properties plain intervals cannot, at
///    polynomial cost. (DeepPoly's alternative y >= x lower choice requires
///    per-layer back-substitution to pay off; in this eager-substitution
///    encoding it is counterproductive, so both relaxations take 0.)
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_ABSTRACT_LINEARBOUNDSELEMENT_H
#define CHARON_ABSTRACT_LINEARBOUNDSELEMENT_H

#include "abstract/AbstractElement.h"

namespace charon {

/// Linear-bounds element: per coordinate a linear lower and upper bound
/// expression over the *network inputs*, evaluated over the input box.
///
/// Row r of LowerExpr/UpperExpr holds [w_1 ... w_n, b] such that for every
/// input x in the region: LowerExpr_r(x) <= neuron_r <= UpperExpr_r(x).
class LinearBoundsElement : public AbstractElement {
public:
  /// How a crossing ReLU's upper bound is relaxed (see the file comment).
  enum class ReluRelaxation {
    Concretize, ///< ReluVal's symbolic intervals
    Triangle    ///< relational sub-polyhedra
  };

  /// Identity abstraction of the input region.
  LinearBoundsElement(const Box &Region, ReluRelaxation Relaxation);

  std::unique_ptr<AbstractElement> clone() const override;
  size_t dim() const override { return LowerExpr.rows(); }

  void applyAffine(const Matrix &W, const Vector &B) override;
  void applyActivation(ActivationKind K, size_t Begin, size_t End) override;
  void applyMaxPool(const PoolSpec &Spec) override;

  double lowerBound(size_t I) const override;
  double upperBound(size_t I) const override;
  double lowerBoundDiff(size_t K, size_t J) const override;

  /// Not supported: the eager-substitution encoding cannot tighten the
  /// per-input bounds soundly without a solver, and ReluVal refines by
  /// splitting the *input* region, never by case-splitting intermediate
  /// neurons. Returns a clone (a sound overapproximation), so powerset
  /// lifting is legal but unhelpful — matching how the paper's policy menu
  /// restricts powersets to intervals and zonotopes.
  std::unique_ptr<AbstractElement>
  meetHalfspaceAtZero(size_t D, bool NonNegative) const override;

  /// ReluVal's "smear" heuristic input for refinement: an upper bound on
  /// how much input \p InputDim sways the current output bounds (gradient
  /// mass times input width). Used by the baseline's bisection strategy.
  double smear(size_t InputDim) const;

private:
  /// Evaluates expression row \p R of \p Expr over the input box, returning
  /// its minimum (Minimize=true) or maximum.
  double evalExtreme(const Matrix &Expr, size_t R, bool Minimize) const;

  ReluRelaxation Relaxation;
  Box InputRegion;
  /// dim() x (numInputs + 1) coefficient rows; last column is the constant.
  Matrix LowerExpr;
  Matrix UpperExpr;
};

} // namespace charon

#endif // CHARON_ABSTRACT_LINEARBOUNDSELEMENT_H
