//===- AbstractElement.h - Abstract domain element interface -----*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface every numeric abstract domain implements. Following AI2
/// (Gehr et al., S&P'18), which the paper builds on (Sec. 2.3), an abstract
/// element overapproximates a set of activation vectors and supports the
/// three transformers a ReLU network needs: affine maps, ReLU, and max-pool.
/// Bounded powerset domains additionally require a halfspace meet at zero
/// so ReLU case splits can keep disjuncts separate.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_ABSTRACT_ABSTRACTELEMENT_H
#define CHARON_ABSTRACT_ABSTRACTELEMENT_H

#include "linalg/Box.h"
#include "linalg/Matrix.h"
#include "nn/Layer.h"

#include <memory>

namespace charon {

/// An element of a numeric abstract domain over R^n.
///
/// Soundness contract: every transformer must map an element whose
/// concretization contains a set S to an element whose concretization
/// contains the image of S under the corresponding concrete operation.
class AbstractElement {
public:
  virtual ~AbstractElement();

  /// Deep copy.
  virtual std::unique_ptr<AbstractElement> clone() const = 0;

  /// Current dimensionality of the element.
  virtual size_t dim() const = 0;

  /// Abstract transformer for y = W x + b.
  virtual void applyAffine(const Matrix &W, const Vector &B) = 0;

  /// Abstract transformer for a convolution: \p View has View.Conv set and
  /// View.W, View.B its dense lowering. The default applies the lowering
  /// through applyAffine; a domain overrides it when the layer's
  /// structured kernel (Conv2DLayer::convolveRowsInto) computes the same
  /// values for less. propagate() sends every convolution here.
  virtual void applyConv(const AffineView &View) {
    applyAffine(*View.W, *View.B);
  }

  /// Abstract transformer for an element-wise activation applied to the
  /// coordinate range [\p Begin, \p End); coordinates outside the range pass
  /// through unchanged. ReLU keeps its exact case-split treatment; the
  /// smooth kinds (sigmoid, tanh) use the sound linear relaxation from
  /// nn/Activation.h — relaxation slack, never split candidates. The ranged
  /// form is what lets the analyzer run activations inside a residual block
  /// on the working half of the duplicated state only.
  virtual void applyActivation(ActivationKind K, size_t Begin, size_t End) = 0;

  /// Abstract transformer for element-wise ReLU over every coordinate.
  void applyRelu() { applyActivation(ActivationKind::Relu, 0, dim()); }

  /// Abstract transformer for max pooling with the given window structure.
  virtual void applyMaxPool(const PoolSpec &Spec) = 0;

  /// Sound lower bound on coordinate \p I over the concretization.
  virtual double lowerBound(size_t I) const = 0;

  /// Sound upper bound on coordinate \p I over the concretization.
  virtual double upperBound(size_t I) const = 0;

  /// Sound lower bound of (x_K - x_J) over the concretization. Domains that
  /// track correlations (zonotopes, symbolic intervals) give much tighter
  /// bounds here than lowerBound(K) - upperBound(J); this is what makes
  /// them verify properties boxes cannot (Example 2.3 of the paper).
  virtual double lowerBoundDiff(size_t K, size_t J) const = 0;

  /// Sound overapproximation of the meet with the halfspace {x_D >= 0}
  /// (when \p NonNegative) or {x_D <= 0}. Returns nullptr when the
  /// intersection is provably empty. Used by powerset ReLU case splitting.
  virtual std::unique_ptr<AbstractElement>
  meetHalfspaceAtZero(size_t D, bool NonNegative) const = 0;

  /// Interval concretization (bounding box) of the element.
  Box toBox() const;
};

} // namespace charon

#endif // CHARON_ABSTRACT_ABSTRACTELEMENT_H
