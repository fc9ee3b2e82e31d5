//===- ZonotopeElement.h - Zonotope abstract domain --------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The zonotope abstract domain (Ghorbal, Goubault, Putot — "Taylor1+",
/// CAV'09), the second base domain the paper's policy can select. A zonotope
/// is the affine image of a unit hypercube of noise symbols:
///
///   gamma(Z) = { Center + sum_e eps_e * G_e : eps in [-1,1]^m }.
///
/// Affine maps are exact; ReLU on a crossing neuron uses the minimal-area
/// linear relaxation (slope u/(u-l)) plus one fresh noise symbol; the
/// halfspace meet used by powerset case splits tightens noise-symbol bounds
/// (Girard's method) and renormalizes.
///
/// Storage is a contiguous row-major G x N *generator matrix* (one row per
/// noise symbol) plus a tail of *sparse one-hot generators* — the fresh
/// symbols ReLU and max-pool introduce are mu * e_i, so they are kept as
/// (coordinate, magnitude) pairs until the next affine layer densifies them.
/// All transformers are batched kernels over this layout (linalg/Kernels.h):
/// applyAffine is one blocked G x N x M product plus one sparse
/// oneHotMatMulInto pass (applyConv runs the dense rows through the
/// convolution's own kernel instead), activations one fused column-rescale
/// sweep, applyMaxPool one column gather that materializes only the
/// *prefix* of the sparse tail feeding overlapping windows (non-overlapping
/// pools never densify the tail at all). Per-coordinate deviation radii are
/// cached and invalidated on mutation, making repeated bound queries (the
/// powerset split search is quadratic in them) O(1) after the first.
///
/// Generator ordering contract: dense rows precede sparse entries, oldest
/// first — the exact order the historical vector-of-generators layout
/// produced, which keeps accumulation orders (and therefore every bound, to
/// the last bit on serial scalar paths) identical to that layout.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_ABSTRACT_ZONOTOPEELEMENT_H
#define CHARON_ABSTRACT_ZONOTOPEELEMENT_H

#include "abstract/AbstractElement.h"
#include "linalg/Kernels.h"

#include <vector>

namespace charon {

/// Zonotope abstract element: Center + span of generator rows over [-1,1]^m.
class ZonotopeElement : public AbstractElement {
public:
  /// A one-hot generator Mag * e_Coord, kept sparse until densified (the
  /// shared kernel-layer representation, see linalg/Kernels.h).
  using SparseGenerator = kernels::OneHot;

  /// Abstraction of the box \p Region: one generator per nonzero-width
  /// dimension. All initial generators are one-hot and stay sparse until the
  /// first affine layer.
  explicit ZonotopeElement(const Box &Region);

  /// Assembles an element from an explicit layout. \p DenseGens is G x N
  /// (may have zero rows); \p SparseGens are appended after the dense rows
  /// in order.
  ZonotopeElement(Vector C, Matrix DenseGens,
                  std::vector<SparseGenerator> SparseGens = {});

  std::unique_ptr<AbstractElement> clone() const override;
  size_t dim() const override { return Center.size(); }

  void applyAffine(const Matrix &W, const Vector &B) override;

  /// The affine step with the dense generator rows run through the
  /// convolution's structured kernel; the center and the sparse tail stay
  /// on the lowering. Every value equals applyAffine(*View.W, *View.B)'s.
  void applyConv(const AffineView &View) override;

  void applyActivation(ActivationKind K, size_t Begin, size_t End) override;
  void applyMaxPool(const PoolSpec &Spec) override;

  double lowerBound(size_t I) const override;
  double upperBound(size_t I) const override;
  double lowerBoundDiff(size_t K, size_t J) const override;

  std::unique_ptr<AbstractElement>
  meetHalfspaceAtZero(size_t D, bool NonNegative) const override;

  /// Number of noise symbols currently tracked (dense rows + sparse tail).
  size_t numGenerators() const { return Dense.rows() + Sparse.size(); }

  const Vector &center() const { return Center; }

  /// Materialized copy of generator \p E (dense rows first, then the sparse
  /// tail) — for tests and diagnostics, not hot paths.
  Vector generatorRow(size_t E) const;

private:
  /// Per-coordinate deviation radii (sum of |g_I| over generators), cached
  /// until the next mutation.
  const Vector &radii() const;
  void invalidateRadii() { RadiiValid = false; }

  /// Finishes an affine step whose dense rows \p NewDense already hold:
  /// writes the sparse tail's images below them, installs the block, and
  /// maps the center through the lowering (W, B).
  void finishAffine(Matrix NewDense, const Matrix &W, const Vector &B);

  /// Densifies the sparse prefix [0, Prefix) into the dense block, leaving
  /// [Prefix, end) in place.
  void materializeSparsePrefix(size_t Prefix);

  Vector Center;
  /// G x N generator matrix: row e is noise symbol e's coefficient vector.
  Matrix Dense;
  /// Fresh one-hot symbols, logically appended after the dense rows.
  std::vector<SparseGenerator> Sparse;

  mutable Vector RadiiCache;
  mutable bool RadiiValid = false;
};

} // namespace charon

#endif // CHARON_ABSTRACT_ZONOTOPEELEMENT_H
