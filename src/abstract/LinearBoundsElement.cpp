//===- LinearBoundsElement.cpp - Symbolic linear-bounds domain ---------------===//

#include "abstract/LinearBoundsElement.h"

#include "nn/Activation.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace charon;

LinearBoundsElement::LinearBoundsElement(const Box &Region,
                                         ReluRelaxation Relaxation)
    : Relaxation(Relaxation), InputRegion(Region),
      LowerExpr(Region.dim(), Region.dim() + 1),
      UpperExpr(Region.dim(), Region.dim() + 1) {
  for (size_t I = 0, E = Region.dim(); I < E; ++I) {
    LowerExpr(I, I) = 1.0;
    UpperExpr(I, I) = 1.0;
  }
}

std::unique_ptr<AbstractElement> LinearBoundsElement::clone() const {
  return std::make_unique<LinearBoundsElement>(*this);
}

double LinearBoundsElement::evalExtreme(const Matrix &Expr, size_t R,
                                        bool Minimize) const {
  size_t NumInputs = InputRegion.dim();
  const double *Row = Expr.row(R);
  double Val = Row[NumInputs]; // constant term
  for (size_t C = 0; C < NumInputs; ++C) {
    double Coef = Row[C];
    if (Coef == 0.0)
      continue;
    bool TakeLower = (Coef > 0.0) == Minimize;
    Val += Coef * (TakeLower ? InputRegion.lower()[C] : InputRegion.upper()[C]);
  }
  return Val;
}

void LinearBoundsElement::applyAffine(const Matrix &W, const Vector &B) {
  assert(W.cols() == dim() && "affine shape mismatch");
  size_t OutDim = W.rows();
  size_t Cols = LowerExpr.cols();
  Matrix NewLower(OutDim, Cols), NewUpper(OutDim, Cols);
  for (size_t R = 0; R < OutDim; ++R) {
    double *LRow = NewLower.row(R);
    double *URow = NewUpper.row(R);
    LRow[Cols - 1] = B[R];
    URow[Cols - 1] = B[R];
    for (size_t K = 0, E = dim(); K < E; ++K) {
      double Coef = W(R, K);
      if (Coef == 0.0)
        continue;
      // Positive coefficients keep bound polarity; negative swap it.
      const double *SrcLo = Coef > 0.0 ? LowerExpr.row(K) : UpperExpr.row(K);
      const double *SrcHi = Coef > 0.0 ? UpperExpr.row(K) : LowerExpr.row(K);
      for (size_t C = 0; C < Cols; ++C) {
        LRow[C] += Coef * SrcLo[C];
        URow[C] += Coef * SrcHi[C];
      }
    }
  }
  LowerExpr = std::move(NewLower);
  UpperExpr = std::move(NewUpper);
}

void LinearBoundsElement::applyActivation(ActivationKind K, size_t Begin,
                                          size_t End) {
  assert(Begin <= End && End <= dim() && "activation range out of bounds");
  size_t Cols = LowerExpr.cols();
  if (K != ActivationKind::Relu) {
    // Smooth activation: relax to the parallel-line band
    // act(x) in [Lambda*x + Mu - Beta, Lambda*x + Mu + Beta] on the
    // coordinate's concrete range. Lambda >= 0 preserves bound polarity, so
    // substituting the symbolic lower/upper expressions is sound.
    for (size_t R = Begin; R < End; ++R) {
      double Lo = evalExtreme(LowerExpr, R, /*Minimize=*/true);
      double Hi = evalExtreme(UpperExpr, R, /*Minimize=*/false);
      SmoothRelaxation Rel = relaxSmoothActivation(K, Lo, Hi);
      for (size_t C = 0; C < Cols; ++C) {
        LowerExpr(R, C) *= Rel.Lambda;
        UpperExpr(R, C) *= Rel.Lambda;
      }
      LowerExpr(R, Cols - 1) += Rel.Mu - Rel.Beta;
      UpperExpr(R, Cols - 1) += Rel.Mu + Rel.Beta;
    }
    return;
  }
  for (size_t R = Begin; R < End; ++R) {
    double Lo = evalExtreme(LowerExpr, R, /*Minimize=*/true);
    double Hi = evalExtreme(UpperExpr, R, /*Minimize=*/false);
    if (Lo >= 0.0)
      continue; // Stable active: both bounds pass through unchanged.
    if (Hi <= 0.0) {
      // Stable inactive: exactly zero.
      for (size_t C = 0; C < Cols; ++C) {
        LowerExpr(R, C) = 0.0;
        UpperExpr(R, C) = 0.0;
      }
      continue;
    }
    // Crossing neuron. Lower: relu(x) >= 0.
    for (size_t C = 0; C < Cols; ++C)
      LowerExpr(R, C) = 0.0;
    if (Relaxation == ReluRelaxation::Triangle) {
      // Upper: relu(x) <= Lambda * (x - Lo) with Lambda = Hi / (Hi - Lo);
      // substituting x by its symbolic upper bound is sound (Lambda >= 0).
      double Lambda = Hi / (Hi - Lo);
      for (size_t C = 0; C < Cols; ++C)
        UpperExpr(R, C) *= Lambda;
      UpperExpr(R, Cols - 1) -= Lambda * Lo;
    } else if (evalExtreme(UpperExpr, R, /*Minimize=*/true) < 0.0) {
      // Upper (ReluVal): keep the symbolic expression if it is nonnegative
      // on the whole region; otherwise concretize to the constant Hi.
      for (size_t C = 0; C < Cols; ++C)
        UpperExpr(R, C) = 0.0;
      UpperExpr(R, Cols - 1) = Hi;
    }
  }
}

void LinearBoundsElement::applyMaxPool(const PoolSpec &Spec) {
  // Concretizing fallback: max of interval bounds per window (ReluVal does
  // not support pooling layers, and pooling only occurs in the conv nets,
  // where the zonotope domain is the tool of choice; this keeps the domain
  // total and sound).
  size_t OutDim = Spec.PoolIndices.size();
  size_t Cols = LowerExpr.cols();
  Matrix NewLower(OutDim, Cols), NewUpper(OutDim, Cols);
  for (size_t O = 0; O < OutDim; ++O) {
    const std::vector<int> &Pool = Spec.PoolIndices[O];
    double L = lowerBound(Pool.front());
    double U = upperBound(Pool.front());
    for (size_t I = 1; I < Pool.size(); ++I) {
      L = std::max(L, lowerBound(Pool[I]));
      U = std::max(U, upperBound(Pool[I]));
    }
    NewLower(O, Cols - 1) = L;
    NewUpper(O, Cols - 1) = U;
  }
  LowerExpr = std::move(NewLower);
  UpperExpr = std::move(NewUpper);
}

double LinearBoundsElement::lowerBound(size_t I) const {
  return evalExtreme(LowerExpr, I, /*Minimize=*/true);
}

double LinearBoundsElement::upperBound(size_t I) const {
  return evalExtreme(UpperExpr, I, /*Minimize=*/false);
}

double LinearBoundsElement::lowerBoundDiff(size_t K, size_t J) const {
  // Subtract symbolically, then minimize the single linear expression over
  // the box. This preserves shared input dependencies — the key advantage
  // of linear bounds over plain boxes.
  size_t NumInputs = InputRegion.dim();
  double Val = LowerExpr(K, NumInputs) - UpperExpr(J, NumInputs);
  for (size_t C = 0; C < NumInputs; ++C) {
    double Coef = LowerExpr(K, C) - UpperExpr(J, C);
    if (Coef == 0.0)
      continue;
    Val += Coef * (Coef > 0.0 ? InputRegion.lower()[C]
                              : InputRegion.upper()[C]);
  }
  return Val;
}

std::unique_ptr<AbstractElement>
LinearBoundsElement::meetHalfspaceAtZero(size_t, bool) const {
  return clone();
}

double LinearBoundsElement::smear(size_t InputDim) const {
  assert(InputDim < InputRegion.dim() && "input dimension out of range");
  double Width = InputRegion.width(InputDim);
  double Mass = 0.0;
  for (size_t R = 0, E = dim(); R < E; ++R)
    Mass += std::max(std::fabs(LowerExpr(R, InputDim)),
                     std::fabs(UpperExpr(R, InputDim)));
  return Mass * Width;
}
