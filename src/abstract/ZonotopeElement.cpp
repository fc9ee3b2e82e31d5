//===- ZonotopeElement.cpp - Zonotope abstract domain ------------------------===//
//
// Batched generator-matrix implementation. Every transformer is phrased as a
// kernel over the dense G x N generator block (linalg/Kernels.h) plus a cheap
// pass over the sparse one-hot tail. The accumulation order of every
// reduction matches the historical vector-of-generators code (dense rows
// oldest-first, sparse tail afterwards), which is what the layout-equivalence
// suite pins down.
//
//===----------------------------------------------------------------------===//

#include "abstract/ZonotopeElement.h"

#include "nn/Activation.h"
#include "nn/Conv2D.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace charon;

ZonotopeElement::ZonotopeElement(const Box &Region)
    : Center(Region.center()), Dense(0, Region.dim()) {
  for (size_t I = 0, E = Region.dim(); I < E; ++I) {
    double HalfWidth = 0.5 * Region.width(I);
    if (HalfWidth == 0.0)
      continue;
    Sparse.push_back({I, HalfWidth});
  }
}

ZonotopeElement::ZonotopeElement(Vector C, Matrix DenseGens,
                                 std::vector<SparseGenerator> SparseGens)
    : Center(std::move(C)), Dense(std::move(DenseGens)),
      Sparse(std::move(SparseGens)) {
  if (Dense.rows() == 0 && Dense.cols() != Center.size())
    Dense = Matrix(0, Center.size());
  assert(Dense.cols() == Center.size() && "generator dimension mismatch");
#ifndef NDEBUG
  for (const SparseGenerator &S : Sparse)
    assert(S.Coord < Center.size() && "sparse generator out of range");
#endif
}

std::unique_ptr<AbstractElement> ZonotopeElement::clone() const {
  return std::unique_ptr<AbstractElement>(new ZonotopeElement(*this));
}

const Vector &ZonotopeElement::radii() const {
  if (!RadiiValid) {
    RadiiCache = kernels::absColumnSums(Dense);
    for (const SparseGenerator &S : Sparse)
      RadiiCache[S.Coord] += std::fabs(S.Mag);
    RadiiValid = true;
  }
  return RadiiCache;
}

Vector ZonotopeElement::generatorRow(size_t E) const {
  assert(E < numGenerators() && "generator index out of range");
  Vector Row(dim());
  size_t Gd = Dense.rows();
  if (E < Gd) {
    const double *Src = Dense.row(E);
    for (size_t I = 0, N = dim(); I < N; ++I)
      Row[I] = Src[I];
  } else {
    const SparseGenerator &S = Sparse[E - Gd];
    Row[S.Coord] = S.Mag;
  }
  return Row;
}

void ZonotopeElement::materializeSparsePrefix(size_t Prefix) {
  if (Prefix == 0)
    return;
  assert(Prefix <= Sparse.size() && "prefix past the sparse tail");
  size_t Gd = Dense.rows();
  Dense.resizeRows(Gd + Prefix);
  for (size_t S = 0; S < Prefix; ++S)
    Dense(Gd + S, Sparse[S].Coord) = Sparse[S].Mag;
  Sparse.erase(Sparse.begin(), Sparse.begin() + static_cast<long>(Prefix));
}

void ZonotopeElement::applyAffine(const Matrix &W, const Vector &B) {
  assert(W.cols() == dim() && "affine shape mismatch");
  // All dense generators go through one blocked W * G^T product; each sparse
  // one-hot mu * e_c densifies to the scaled column mu * W(:, c) without
  // ever materializing the one-hot rows. The two kernels together write
  // every element, so the buffer starts uninitialized.
  Matrix NewDense = Matrix::uninit(Dense.rows() + Sparse.size(), W.rows());
  kernels::matMulTransposedInto(Dense, W, NewDense, 0);
  finishAffine(std::move(NewDense), W, B);
}

void ZonotopeElement::applyConv(const AffineView &View) {
  assert(View.Conv && View.W->cols() == dim() && "conv shape mismatch");
  // The convolution kernel writes each dense row with matMulTransposed's
  // chain over the window taps alone. The center stays a matVec over the
  // lowering: its dot regroups terms at avx2, which no tap chain
  // reproduces, and it costs one row.
  Matrix NewDense =
      Matrix::uninit(Dense.rows() + Sparse.size(), View.W->rows());
  View.Conv->convolveRowsInto(Dense, NewDense);
  finishAffine(std::move(NewDense), *View.W, *View.B);
}

void ZonotopeElement::finishAffine(Matrix NewDense, const Matrix &W,
                                   const Vector &B) {
  kernels::oneHotMatMulInto(Sparse, W, NewDense, Dense.rows());
  Dense = std::move(NewDense);
  Sparse.clear();

  Center = matVec(W, Center);
  Center += B;
  invalidateRadii();
}

void ZonotopeElement::applyActivation(ActivationKind K, size_t Begin,
                                      size_t End) {
  assert(Begin <= End && End <= dim() && "activation range out of bounds");
  size_t N = dim();
  const Vector &Radius = radii();

  // Decide every in-range neuron first, building a per-coordinate rescale
  // vector (1 = untouched / stable active, 0 = stable inactive, lambda for
  // relaxations), then apply it to the whole generator block in one fused
  // sweep. Smooth activations always relax: the parallel-line band
  // act(x) in Lambda*x + Mu +- Beta becomes a column rescale by Lambda, a
  // center shift, and one fresh noise symbol of magnitude Beta per
  // coordinate — slack, never a case split.
  Vector Scale(N, 1.0);
  bool AnyChange = false;
  std::vector<SparseGenerator> Fresh;
  for (size_t I = Begin; I < End; ++I) {
    double L = Center[I] - Radius[I];
    double U = Center[I] + Radius[I];
    if (K != ActivationKind::Relu) {
      SmoothRelaxation Rel = relaxSmoothActivation(K, L, U);
      Center[I] = Rel.Lambda * Center[I] + Rel.Mu;
      Scale[I] = Rel.Lambda;
      AnyChange = true;
      if (Rel.Beta != 0.0)
        Fresh.push_back({I, Rel.Beta});
      continue;
    }
    if (L >= 0.0)
      continue; // Stable active: identity.
    if (U <= 0.0) {
      // Stable inactive: output is exactly zero.
      Center[I] = 0.0;
      Scale[I] = 0.0;
      AnyChange = true;
      continue;
    }
    // Crossing neuron: minimal-area relaxation. ReLU(x) lies between
    // Lambda*x and Lambda*x - Lambda*L, so y = Lambda*x + Mu + Mu*eps_new
    // with Mu = -Lambda*L/2 covers it with one fresh noise symbol.
    double Lambda = U / (U - L);
    double Mu = -Lambda * L * 0.5;
    Center[I] = Lambda * Center[I] + Mu;
    Scale[I] = Lambda;
    AnyChange = true;
    Fresh.push_back({I, Mu});
  }

  if (AnyChange) {
    kernels::scaleColumns(Dense, Scale);
    for (SparseGenerator &S : Sparse)
      S.Mag *= Scale[S.Coord];
    invalidateRadii();
  }
  if (!Fresh.empty()) {
    Sparse.insert(Sparse.end(), Fresh.begin(), Fresh.end());
    invalidateRadii();
  }
}

void ZonotopeElement::applyMaxPool(const PoolSpec &Spec) {
  size_t OutDim = Spec.PoolIndices.size();
  const Vector &Radius = radii();

  Vector NewCenter(OutDim);
  // Per output: index of the window entry to copy, or -1 for the
  // interval-hull fallback (generator column starts at zero).
  std::vector<int> SrcCol(OutDim, -1);
  std::vector<SparseGenerator> Fresh;

  for (size_t O = 0; O < OutDim; ++O) {
    const std::vector<int> &Pool = Spec.PoolIndices[O];
    assert(!Pool.empty() && "empty pool window");
    // If one window entry dominates every other (its lower bound beats all
    // other upper bounds), max-pool is exact: copy that coordinate.
    int Dominant = -1;
    for (int Candidate : Pool) {
      double CandLo = Center[Candidate] - Radius[Candidate];
      bool Dominates = true;
      for (int Other : Pool) {
        if (Other == Candidate)
          continue;
        if (CandLo < Center[Other] + Radius[Other]) {
          Dominates = false;
          break;
        }
      }
      if (Dominates) {
        Dominant = Candidate;
        break;
      }
    }
    if (Dominant >= 0) {
      NewCenter[O] = Center[Dominant];
      SrcCol[O] = Dominant;
      continue;
    }
    // Otherwise fall back to the interval hull of the window (sound but
    // drops correlations for this output): max of lowers .. max of uppers.
    double L = Center[Pool.front()] - Radius[Pool.front()];
    double U = Center[Pool.front()] + Radius[Pool.front()];
    for (size_t I = 1; I < Pool.size(); ++I) {
      L = std::max(L, Center[Pool[I]] - Radius[Pool[I]]);
      U = std::max(U, Center[Pool[I]] + Radius[Pool[I]]);
    }
    NewCenter[O] = 0.5 * (L + U);
    double HalfWidth = 0.5 * (U - L);
    if (HalfWidth != 0.0)
      Fresh.push_back({O, HalfWidth});
  }

  // A one-hot generator survives the gather sparse unless its coordinate is
  // copied into two or more (overlapping) windows — only then does it grow a
  // second nonzero entry. Materialize exactly the tail *prefix* up to the
  // last such generator (preserving the ordering contract); everything after
  // it stays sparse: single-copy one-hots just move to the output
  // coordinate, uncopied ones become zero generators (kept as {0, 0}
  // placeholders so generator count and order match the historical layout).
  // Non-overlapping pools always have Prefix == 0: the tail never densifies.
  std::vector<unsigned> CopyCount(dim(), 0);
  for (size_t O = 0; O < OutDim; ++O)
    if (SrcCol[O] >= 0)
      ++CopyCount[static_cast<size_t>(SrcCol[O])];
  size_t Prefix = 0;
  for (size_t S = 0, E = Sparse.size(); S < E; ++S)
    if (CopyCount[Sparse[S].Coord] >= 2)
      Prefix = S + 1;
  materializeSparsePrefix(Prefix);

  std::vector<int> UniqueOut(dim(), -1);
  for (size_t O = 0; O < OutDim; ++O)
    if (SrcCol[O] >= 0)
      UniqueOut[static_cast<size_t>(SrcCol[O])] = static_cast<int>(O);
  std::vector<SparseGenerator> NewSparse;
  NewSparse.reserve(Sparse.size() + Fresh.size());
  for (const SparseGenerator &S : Sparse) {
    if (CopyCount[S.Coord] == 1)
      NewSparse.push_back({static_cast<size_t>(UniqueOut[S.Coord]), S.Mag});
    else
      NewSparse.push_back({0, 0.0});
  }
  NewSparse.insert(NewSparse.end(), Fresh.begin(), Fresh.end());

  Matrix NewDense(Dense.rows(), OutDim);
  kernels::gatherColumns(Dense, SrcCol, NewDense);
  Dense = std::move(NewDense);
  Center = std::move(NewCenter);
  Sparse = std::move(NewSparse);
  invalidateRadii();
}

double ZonotopeElement::lowerBound(size_t I) const {
  return Center[I] - radii()[I];
}

double ZonotopeElement::upperBound(size_t I) const {
  return Center[I] + radii()[I];
}

double ZonotopeElement::lowerBoundDiff(size_t K, size_t J) const {
  // min over eps of (x_K - x_J) = (c_K - c_J) - sum_e |g_K - g_J|: exact for
  // the linear functional, capturing shared noise symbols.
  double Diff = Center[K] - Center[J];
  for (size_t E = 0, G = Dense.rows(); E < G; ++E) {
    const double *Row = Dense.row(E);
    Diff -= std::fabs(Row[K] - Row[J]);
  }
  for (const SparseGenerator &S : Sparse) {
    if (S.Coord != K && S.Coord != J)
      continue;
    double GK = S.Coord == K ? S.Mag : 0.0;
    double GJ = S.Coord == J ? S.Mag : 0.0;
    Diff -= std::fabs(GK - GJ);
  }
  return Diff;
}

std::unique_ptr<AbstractElement>
ZonotopeElement::meetHalfspaceAtZero(size_t D, bool NonNegative) const {
  assert(D < dim() && "meet dimension out of range");
  // Work in noise-symbol space. The constraint (NonNegative ? x_D >= 0 :
  // x_D <= 0) becomes a . eps <= e with a_j = sgn * g_j[D], e = sgn * -c[D],
  // where sgn = -1 for x_D >= 0 and +1 for x_D <= 0.
  double Sign = NonNegative ? -1.0 : 1.0;
  size_t Gd = Dense.rows();
  size_t M = Gd + Sparse.size();
  std::vector<double> A(M);
  double TotalMag = 0.0;
  for (size_t J = 0; J < Gd; ++J) {
    A[J] = Sign * Dense(J, D);
    TotalMag += std::fabs(A[J]);
  }
  for (size_t S = 0, E = Sparse.size(); S < E; ++S) {
    A[Gd + S] = Sparse[S].Coord == D ? Sign * Sparse[S].Mag : 0.0;
    TotalMag += std::fabs(A[Gd + S]);
  }
  double E = -Sign * Center[D];

  if (TotalMag <= E)
    return clone(); // Constraint already satisfied everywhere.
  if (-TotalMag > E)
    return nullptr; // Provably empty intersection.

  // Girard-style tightening: interval-propagate the constraint onto each
  // noise symbol, then renormalize symbols back into [-1, 1]. Two passes
  // sharpen the bounds noticeably at negligible cost. MinSum carries
  // sum_K min(A_K * Lo_K, A_K * Hi_K) incrementally, so each pass is O(M)
  // instead of the O(M^2) rescan the per-J recomputation used to do.
  std::vector<double> LoEps(M, -1.0), HiEps(M, 1.0);
  double MinSum = 0.0;
  for (size_t K = 0; K < M; ++K)
    MinSum += std::min(A[K] * LoEps[K], A[K] * HiEps[K]);
  for (int Pass = 0; Pass < 2; ++Pass) {
    for (size_t J = 0; J < M; ++J) {
      if (A[J] == 0.0)
        continue;
      // a_J * eps_J <= e - min_{k != J} sum a_k eps_k.
      double OwnMin = std::min(A[J] * LoEps[J], A[J] * HiEps[J]);
      double OthersMin = MinSum - OwnMin;
      double Rhs = E - OthersMin;
      if (A[J] > 0.0)
        HiEps[J] = std::min(HiEps[J], Rhs / A[J]);
      else
        LoEps[J] = std::max(LoEps[J], Rhs / A[J]);
      if (LoEps[J] > HiEps[J])
        return nullptr; // Tightening proved emptiness.
      MinSum = OthersMin + std::min(A[J] * LoEps[J], A[J] * HiEps[J]);
    }
  }

  // Renormalize eps_J in [LoEps, HiEps] to Mid + Rad * eps'_J.
  Vector NewCenter = Center;
  size_t N = dim();
  std::vector<size_t> KeptRows;
  std::vector<double> KeptRads;
  KeptRows.reserve(Gd);
  for (size_t J = 0; J < Gd; ++J) {
    double Mid = 0.5 * (LoEps[J] + HiEps[J]);
    double Rad = 0.5 * (HiEps[J] - LoEps[J]);
    if (Mid != 0.0) {
      const double *Row = Dense.row(J);
      for (size_t I = 0; I < N; ++I)
        NewCenter[I] += Mid * Row[I];
    }
    if (Rad == 0.0)
      continue;
    KeptRows.push_back(J);
    KeptRads.push_back(Rad);
  }
  Matrix NewDense(KeptRows.size(), N);
  for (size_t R = 0, E2 = KeptRows.size(); R < E2; ++R) {
    const double *Src = Dense.row(KeptRows[R]);
    double *Dst = NewDense.row(R);
    double Rad = KeptRads[R];
    if (Rad == 1.0) {
      for (size_t I = 0; I < N; ++I)
        Dst[I] = Src[I];
    } else {
      for (size_t I = 0; I < N; ++I)
        Dst[I] = Rad * Src[I];
    }
  }
  std::vector<SparseGenerator> NewSparse;
  NewSparse.reserve(Sparse.size());
  for (size_t S = 0, E2 = Sparse.size(); S < E2; ++S) {
    size_t J = Gd + S;
    double Mid = 0.5 * (LoEps[J] + HiEps[J]);
    double Rad = 0.5 * (HiEps[J] - LoEps[J]);
    if (Mid != 0.0)
      NewCenter[Sparse[S].Coord] += Mid * Sparse[S].Mag;
    if (Rad == 0.0)
      continue;
    NewSparse.push_back(
        {Sparse[S].Coord, Rad == 1.0 ? Sparse[S].Mag : Rad * Sparse[S].Mag});
  }
  return std::make_unique<ZonotopeElement>(
      std::move(NewCenter), std::move(NewDense), std::move(NewSparse));
}
