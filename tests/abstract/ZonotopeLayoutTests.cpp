//===- ZonotopeLayoutTests.cpp - Generator-matrix layout equivalence ---------===//
//
// The zonotope domain moved from a vector-of-generator-vectors layout to a
// contiguous generator matrix with a sparse one-hot tail and batched kernels.
// These tests pin the refactor against a faithful in-test copy of the
// historical implementation: every transformer, bound query, meet, and
// compaction must agree within 1e-12 on randomized ACAS-scale stacks (most
// agree to the bit at SimdLevel::Scalar — the meet differs only in the
// rounding of its incremental running sum). Every comparison runs at every
// SIMD level the build + host support, and a separate test checks that
// forcing every kernel onto the thread pool is bit-identical to the serial
// path at each level. The convolution step (applyConv, the structured
// kernel) is pinned against applyAffine over the dense lowering, value for
// value, on the shared geometry table, and through a powerset on LeNet.
//
//===----------------------------------------------------------------------===//

#include "ConvGeometries.h"
#include "abstract/Analyzer.h"
#include "abstract/PowersetElement.h"
#include "abstract/ZonotopeElement.h"
#include "linalg/Kernels.h"
#include "nn/Builder.h"
#include "linalg/SimdDispatch.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace charon;

namespace {

/// Verbatim port of the pre-refactor vector-of-generators zonotope — the
/// reference semantics the batched implementation must reproduce.
class RefZonotope {
public:
  explicit RefZonotope(const Box &Region) : Center(Region.center()) {
    for (size_t I = 0, E = Region.dim(); I < E; ++I) {
      double HalfWidth = 0.5 * Region.width(I);
      if (HalfWidth == 0.0)
        continue;
      Vector G(Region.dim());
      G[I] = HalfWidth;
      Generators.push_back(std::move(G));
    }
  }
  RefZonotope(Vector C, std::vector<Vector> Gens)
      : Center(std::move(C)), Generators(std::move(Gens)) {}

  size_t dim() const { return Center.size(); }

  double radius(size_t I) const {
    double Sum = 0.0;
    for (const Vector &G : Generators)
      Sum += std::fabs(G[I]);
    return Sum;
  }

  void applyAffine(const Matrix &W, const Vector &B) {
    Center = matVec(W, Center);
    Center += B;
    for (Vector &G : Generators)
      G = matVec(W, G);
  }

  void applyRelu() {
    size_t N = dim();
    Vector Radius(N);
    for (const Vector &G : Generators)
      for (size_t I = 0; I < N; ++I)
        Radius[I] += std::fabs(G[I]);

    std::vector<std::pair<size_t, double>> Fresh;
    for (size_t I = 0; I < N; ++I) {
      double L = Center[I] - Radius[I];
      double U = Center[I] + Radius[I];
      if (L >= 0.0)
        continue;
      if (U <= 0.0) {
        Center[I] = 0.0;
        for (Vector &G : Generators)
          G[I] = 0.0;
        continue;
      }
      double Lambda = U / (U - L);
      double Mu = -Lambda * L * 0.5;
      Center[I] = Lambda * Center[I] + Mu;
      for (Vector &G : Generators)
        G[I] *= Lambda;
      Fresh.emplace_back(I, Mu);
    }
    for (const auto &[I, Mu] : Fresh) {
      Vector G(N);
      G[I] = Mu;
      Generators.push_back(std::move(G));
    }
  }

  void applyMaxPool(const PoolSpec &Spec) {
    size_t OutDim = Spec.PoolIndices.size();
    size_t N = dim();
    Vector Radius(N);
    for (const Vector &G : Generators)
      for (size_t I = 0; I < N; ++I)
        Radius[I] += std::fabs(G[I]);

    Vector NewCenter(OutDim);
    std::vector<Vector> NewGens(Generators.size(), Vector(OutDim));
    std::vector<std::pair<size_t, double>> Fresh;
    for (size_t O = 0; O < OutDim; ++O) {
      const std::vector<int> &Pool = Spec.PoolIndices[O];
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
        for (size_t E = 0; E < Generators.size(); ++E)
          NewGens[E][O] = Generators[E][Dominant];
        continue;
      }
      double L = Center[Pool.front()] - Radius[Pool.front()];
      double U = Center[Pool.front()] + Radius[Pool.front()];
      for (size_t I = 1; I < Pool.size(); ++I) {
        L = std::max(L, Center[Pool[I]] - Radius[Pool[I]]);
        U = std::max(U, Center[Pool[I]] + Radius[Pool[I]]);
      }
      NewCenter[O] = 0.5 * (L + U);
      Fresh.emplace_back(O, 0.5 * (U - L));
    }
    Center = std::move(NewCenter);
    Generators = std::move(NewGens);
    for (const auto &[O, HalfWidth] : Fresh) {
      if (HalfWidth == 0.0)
        continue;
      Vector G(OutDim);
      G[O] = HalfWidth;
      Generators.push_back(std::move(G));
    }
  }

  double lowerBound(size_t I) const { return Center[I] - radius(I); }
  double upperBound(size_t I) const { return Center[I] + radius(I); }

  double lowerBoundDiff(size_t K, size_t J) const {
    double Diff = Center[K] - Center[J];
    for (const Vector &G : Generators)
      Diff -= std::fabs(G[K] - G[J]);
    return Diff;
  }

  std::unique_ptr<RefZonotope> meetHalfspaceAtZero(size_t D,
                                                   bool NonNegative) const {
    double Sign = NonNegative ? -1.0 : 1.0;
    size_t M = Generators.size();
    std::vector<double> A(M);
    double TotalMag = 0.0;
    for (size_t J = 0; J < M; ++J) {
      A[J] = Sign * Generators[J][D];
      TotalMag += std::fabs(A[J]);
    }
    double E = -Sign * Center[D];
    if (TotalMag <= E)
      return std::make_unique<RefZonotope>(Center, Generators);
    if (-TotalMag > E)
      return nullptr;

    // The historical O(M^2) rescan of min-terms per tightened symbol.
    std::vector<double> LoEps(M, -1.0), HiEps(M, 1.0);
    for (int Pass = 0; Pass < 2; ++Pass) {
      for (size_t J = 0; J < M; ++J) {
        if (A[J] == 0.0)
          continue;
        double OthersMin = 0.0;
        for (size_t K = 0; K < M; ++K) {
          if (K == J)
            continue;
          OthersMin += std::min(A[K] * LoEps[K], A[K] * HiEps[K]);
        }
        double Rhs = E - OthersMin;
        if (A[J] > 0.0)
          HiEps[J] = std::min(HiEps[J], Rhs / A[J]);
        else
          LoEps[J] = std::max(LoEps[J], Rhs / A[J]);
        if (LoEps[J] > HiEps[J])
          return nullptr;
      }
    }

    Vector NewCenter = Center;
    std::vector<Vector> NewGens;
    for (size_t J = 0; J < M; ++J) {
      double Mid = 0.5 * (LoEps[J] + HiEps[J]);
      double Rad = 0.5 * (HiEps[J] - LoEps[J]);
      if (Mid != 0.0)
        for (size_t I = 0, N = dim(); I < N; ++I)
          NewCenter[I] += Mid * Generators[J][I];
      if (Rad == 0.0)
        continue;
      Vector G = Generators[J];
      if (Rad != 1.0)
        G *= Rad;
      NewGens.push_back(std::move(G));
    }
    return std::make_unique<RefZonotope>(std::move(NewCenter),
                                         std::move(NewGens));
  }

  void compact(double Tol) {
    size_t N = dim();
    Vector Folded(N);
    std::vector<Vector> Kept;
    for (Vector &G : Generators) {
      double Mag = 0.0;
      for (size_t I = 0; I < N; ++I)
        Mag += std::fabs(G[I]);
      if (Mag <= Tol) {
        for (size_t I = 0; I < N; ++I)
          Folded[I] += std::fabs(G[I]);
      } else {
        Kept.push_back(std::move(G));
      }
    }
    Generators = std::move(Kept);
    for (size_t I = 0; I < N; ++I) {
      if (Folded[I] == 0.0)
        continue;
      Vector G(N);
      G[I] = Folded[I];
      Generators.push_back(std::move(G));
    }
  }

  size_t numGenerators() const { return Generators.size(); }
  Vector generator(size_t E) const { return Generators[E]; }
  const Vector &center() const { return Center; }

private:
  Vector Center;
  std::vector<Vector> Generators;
};

Matrix randomWeights(size_t Rows, size_t Cols, Rng &R) {
  Matrix W(Rows, Cols);
  for (size_t I = 0; I < Rows; ++I)
    for (size_t J = 0; J < Cols; ++J)
      W(I, J) = R.gaussian(0.0, 1.0 / std::sqrt(double(Cols)));
  return W;
}

Vector randomBias(size_t N, Rng &R) {
  Vector B(N);
  for (size_t I = 0; I < N; ++I)
    B[I] = R.uniform(-0.1, 0.1);
  return B;
}

Box randomInputBox(size_t N, Rng &R) {
  Vector C(N);
  for (size_t I = 0; I < N; ++I)
    C[I] = R.uniform(0.2, 0.8);
  return Box::linfBall(C, 0.05, 0.0, 1.0);
}

void expectSameBounds(const ZonotopeElement &Got, const RefZonotope &Want,
                      double Tol) {
  ASSERT_EQ(Got.dim(), Want.dim());
  ASSERT_EQ(Got.numGenerators(), Want.numGenerators());
  for (size_t I = 0; I < Got.dim(); ++I) {
    EXPECT_NEAR(Got.lowerBound(I), Want.lowerBound(I), Tol) << "dim " << I;
    EXPECT_NEAR(Got.upperBound(I), Want.upperBound(I), Tol) << "dim " << I;
  }
}

void expectSameGenerators(const ZonotopeElement &Got, const RefZonotope &Want,
                          double Tol) {
  ASSERT_EQ(Got.numGenerators(), Want.numGenerators());
  for (size_t E = 0; E < Got.numGenerators(); ++E) {
    Vector G = Got.generatorRow(E);
    Vector W = Want.generator(E);
    for (size_t I = 0; I < Got.dim(); ++I)
      ASSERT_NEAR(G[I], W[I], Tol) << "generator " << E << " dim " << I;
  }
}

/// Restores the SIMD level when a test scope ends.
class SimdGuard {
public:
  SimdGuard() : Saved(kernels::simdLevel()) {}
  ~SimdGuard() { kernels::setSimdLevel(Saved); }

private:
  kernels::SimdLevel Saved;
};

/// Runs \p Body once per available SIMD level with that level active.
template <typename Fn> void forEachSimdLevel(Fn Body) {
  SimdGuard Guard;
  for (kernels::SimdLevel L : kernels::availableSimdLevels()) {
    SCOPED_TRACE(std::string("simd=") + kernels::simdLevelName(L));
    ASSERT_TRUE(kernels::setSimdLevel(L));
    Body();
  }
}

} // namespace

// An ACAS-scale Dense+ReLU stack: every layer's bounds, every generator, and
// every pairwise margin must match the historical layout at every SIMD level
// (at SimdLevel::Scalar the serial kernels preserve accumulation order
// exactly, so Tol = 0 would also pass; 1e-12 is the contract the issue
// states and it absorbs the AVX2/FMA regrouping too).
TEST(ZonotopeLayoutTest, DenseReluStackMatchesReference) {
  forEachSimdLevel([&] {
    for (uint64_t Seed : {7u, 19u, 23u}) {
      Rng R(Seed);
      const size_t Sizes[] = {5, 50, 50, 50, 5};
      Box In = randomInputBox(Sizes[0], R);
      ZonotopeElement Z(In);
      RefZonotope Ref(In);
      expectSameBounds(Z, Ref, 0.0);

      for (size_t L = 0; L + 1 < std::size(Sizes); ++L) {
        Matrix W = randomWeights(Sizes[L + 1], Sizes[L], R);
        Vector B = randomBias(Sizes[L + 1], R);
        Z.applyAffine(W, B);
        Ref.applyAffine(W, B);
        expectSameBounds(Z, Ref, 1e-12);
        if (L + 2 < std::size(Sizes)) {
          Z.applyRelu();
          Ref.applyRelu();
          expectSameBounds(Z, Ref, 1e-12);
          expectSameGenerators(Z, Ref, 1e-12);
        }
      }
      for (size_t K = 0; K < Sizes[4]; ++K)
        for (size_t J = 0; J < Sizes[4]; ++J) {
          if (K == J)
            continue;
          EXPECT_NEAR(Z.lowerBoundDiff(K, J), Ref.lowerBoundDiff(K, J),
                      1e-12);
        }
    }
  });
}

TEST(ZonotopeLayoutTest, MaxPoolMatchesReference) {
  forEachSimdLevel([&] {
    Rng R(31);
    Box In = randomInputBox(16, R);
    ZonotopeElement Z(In);
    RefZonotope Ref(In);
    Matrix W = randomWeights(16, 16, R);
    Vector B = randomBias(16, R);
    Z.applyAffine(W, B);
    Ref.applyAffine(W, B);
    Z.applyRelu();
    Ref.applyRelu();

    PoolSpec Spec;
    for (size_t O = 0; O < 4; ++O)
      Spec.PoolIndices.push_back(
          {int(4 * O), int(4 * O + 1), int(4 * O + 2), int(4 * O + 3)});
    Z.applyMaxPool(Spec);
    Ref.applyMaxPool(Spec);
    expectSameBounds(Z, Ref, 1e-12);
    expectSameGenerators(Z, Ref, 1e-12);

    // Pool again while fresh one-hot symbols are still sparse: overlapping
    // windows copy sparse coordinates into two outputs each, exercising the
    // prefix materialization (non-overlapping pools never densify).
    PoolSpec Spec2;
    Spec2.PoolIndices.push_back({0, 1, 2});
    Spec2.PoolIndices.push_back({1, 2, 3});
    Z.applyMaxPool(Spec2);
    Ref.applyMaxPool(Spec2);
    expectSameBounds(Z, Ref, 1e-12);
    expectSameGenerators(Z, Ref, 1e-12);
  });
}

// The meet rewrites the O(M^2) others-minimum rescan as an incremental
// running sum; agreement is within rounding (1e-12), not bitwise.
TEST(ZonotopeLayoutTest, MeetHalfspaceMatchesReference) {
  forEachSimdLevel([&] {
    size_t Meets = 0;
    for (uint64_t Seed : {3u, 11u, 29u, 41u}) {
      Rng R(Seed);
      Box In = randomInputBox(8, R);
      ZonotopeElement Z(In);
      RefZonotope Ref(In);
      Matrix W = randomWeights(8, 8, R);
      Vector B = randomBias(8, R);
      Z.applyAffine(W, B);
      Ref.applyAffine(W, B);
      Z.applyRelu();
      Ref.applyRelu();

      for (size_t D = 0; D < 8; ++D)
        for (bool NonNegative : {true, false}) {
          auto Got = Z.meetHalfspaceAtZero(D, NonNegative);
          auto Want = Ref.meetHalfspaceAtZero(D, NonNegative);
          ASSERT_EQ(Got == nullptr, Want == nullptr)
              << "dim " << D << " nonneg " << NonNegative;
          if (!Got)
            continue;
          ++Meets;
          auto *GotZ = static_cast<ZonotopeElement *>(Got.get());
          expectSameBounds(*GotZ, *Want, 1e-12);
          expectSameGenerators(*GotZ, *Want, 1e-12);
        }
    }
    EXPECT_GT(Meets, 0u); // The sweep must exercise non-trivial meets.
  });
}

TEST(ZonotopeLayoutTest, CompactMatchesReference) {
  forEachSimdLevel([&] {
    Rng R(57);
    Box In = randomInputBox(12, R);
    ZonotopeElement Z(In);
    RefZonotope Ref(In);
    for (int Layer = 0; Layer < 3; ++Layer) {
      Matrix W = randomWeights(12, 12, R);
      Vector B = randomBias(12, R);
      Z.applyAffine(W, B);
      Ref.applyAffine(W, B);
      Z.applyRelu();
      Ref.applyRelu();
    }
    ASSERT_GT(Z.numGenerators(), 12u);
    Z.compact(0.05);
    Ref.compact(0.05);
    expectSameBounds(Z, Ref, 1e-12);
    expectSameGenerators(Z, Ref, 1e-12);
    ASSERT_LT(Z.numGenerators(), Ref.numGenerators() + 1); // Same count.
  });
}

// Forcing every kernel onto the thread pool must not change a single bit at
// any SIMD level: threading shards output rows (or, for absColumnSums,
// whole columns), never accumulation order.
TEST(ZonotopeLayoutTest, ForcedThreadingIsBitIdentical) {
  Rng R(83);
  const size_t Sizes[] = {10, 64, 64, 10};
  Box In = randomInputBox(Sizes[0], R);

  std::vector<Matrix> Ws;
  std::vector<Vector> Bs;
  for (size_t L = 0; L + 1 < std::size(Sizes); ++L) {
    Ws.push_back(randomWeights(Sizes[L + 1], Sizes[L], R));
    Bs.push_back(randomBias(Sizes[L + 1], R));
  }

  auto Propagate = [&] {
    ZonotopeElement Z(In);
    for (size_t L = 0; L < Ws.size(); ++L) {
      Z.applyAffine(Ws[L], Bs[L]);
      if (L + 1 < Ws.size())
        Z.applyRelu();
    }
    Vector Out(2 * Z.dim());
    for (size_t I = 0; I < Z.dim(); ++I) {
      Out[2 * I] = Z.lowerBound(I);
      Out[2 * I + 1] = Z.upperBound(I);
    }
    return Out;
  };

  forEachSimdLevel([&] {
    size_t Saved = kernels::parallelThreshold();
    kernels::setParallelThreshold(size_t(1) << 40);
    Vector Serial = Propagate();
    kernels::setParallelThreshold(0);
    Vector Threaded = Propagate();
    kernels::setParallelThreshold(Saved);

    for (size_t I = 0; I < Serial.size(); ++I)
      ASSERT_EQ(Serial[I], Threaded[I]) << "entry " << I;
  });
}

namespace {

/// propagate() with every affine layer, convolutions included, applied
/// through its dense lowering.
void propagateLowered(const Network &Net, AbstractElement &Elem) {
  for (size_t I = 0, E = Net.numLayers(); I < E; ++I) {
    const Layer &L = Net.layer(I);
    if (auto Affine = L.affineForm())
      Elem.applyAffine(*Affine->W, *Affine->B);
    else if (auto Act = L.activationKind())
      Elem.applyActivation(*Act, 0, Elem.dim());
    else
      Elem.applyMaxPool(*L.poolSpec());
  }
}

} // namespace

// The conv step runs the dense generator rows through the structured
// kernel. On an element with dense rows (a third of their entries zero, as
// after a ReLU) and a sparse one-hot tail, it must equal applyAffine over
// the lowering in the center, every generator and every bound, under ==.
// 1 and 2 dense rows take the kernel's narrow packings, 17 its wide one.
TEST(ZonotopeLayoutTest, ConvStepEqualsLowering) {
  auto Check = [](const Conv2DLayer &L, const ZonotopeElement &Start) {
    const AffineView View = *L.affineForm();
    ASSERT_EQ(View.Conv, &L);
    auto Want = Start.clone();
    Want->applyAffine(*View.W, *View.B);
    const auto &WantZ = static_cast<const ZonotopeElement &>(*Want);
    for (size_t Threshold : {size_t(1) << 40, size_t(0)}) {
      size_t Saved = kernels::parallelThreshold();
      kernels::setParallelThreshold(Threshold);
      ZonotopeElement Got = Start;
      Got.applyConv(View);
      kernels::setParallelThreshold(Saved);

      ASSERT_EQ(Got.numGenerators(), WantZ.numGenerators());
      const size_t M = Got.dim();
      ASSERT_EQ(M, WantZ.dim());
      for (size_t I = 0; I < M; ++I) {
        ASSERT_EQ(Got.center()[I], WantZ.center()[I]) << "dim " << I;
        ASSERT_EQ(Got.lowerBound(I), WantZ.lowerBound(I)) << "dim " << I;
        ASSERT_EQ(Got.upperBound(I), WantZ.upperBound(I)) << "dim " << I;
      }
      for (size_t E = 0; E < Got.numGenerators(); ++E) {
        Vector Gr = Got.generatorRow(E), Wr = WantZ.generatorRow(E);
        for (size_t I = 0; I < M; ++I)
          ASSERT_EQ(Gr[I], Wr[I]) << "generator " << E << " dim " << I;
      }
      for (size_t K = 0; K < M; K += 1 + M / 16)
        for (size_t J = 0; J < M; ++J)
          ASSERT_EQ(Got.lowerBoundDiff(K, J), WantZ.lowerBoundDiff(K, J))
              << "pair (" << K << ", " << J << ")";
    }
  };
  forEachSimdLevel([&] {
    Rng R(97);
    for (const testing_nets::ConvGeometry &G : testing_nets::ConvGeometries) {
      SCOPED_TRACE(G.Name);
      std::unique_ptr<Conv2DLayer> L = testing_nets::makeConv(G, R);
      const size_t N = L->inputSize();
      for (size_t Rows : {1, 2, 17}) {
        SCOPED_TRACE(std::to_string(Rows) + " dense rows");
        Vector C(N);
        for (size_t I = 0; I < N; ++I)
          C[I] = R.uniform(-1.0, 1.0);
        Matrix Dense(Rows, N);
        for (size_t E = 0; E < Rows; ++E)
          for (size_t I = 0; I < N; ++I)
            Dense(E, I) = (E + I) % 3 == 0 ? 0.0 : R.uniform(-0.2, 0.2);
        std::vector<ZonotopeElement::SparseGenerator> Sparse;
        for (size_t S = 0; S < 11; ++S)
          Sparse.push_back({R.uniformInt(N), R.uniform(-0.1, 0.1)});
        Check(*L, ZonotopeElement(C, Dense, Sparse));
      }
    }
  });
}

// A powerset forwards the conv step to every disjunct and its baseline, so
// Zonotope^4 on LeNet, with splits at every ReLU, must reach the margins
// the lowering reaches.
TEST(ZonotopeLayoutTest, PowersetConvStepEqualsLowering) {
  forEachSimdLevel([&] {
    Rng NetRng(101);
    Network Net = makeLeNet(TensorShape{1, 10, 10}, 4, NetRng);
    Rng R(103);
    Vector Center(Net.inputSize());
    for (size_t I = 0; I < Center.size(); ++I)
      Center[I] = R.uniform(0.2, 0.8);
    Box Region = Box::linfBall(Center, 0.02, 0.0, 1.0);
    const DomainSpec Spec{BaseDomainKind::Zonotope, 4};

    auto Got = makeElement(Region, Spec);
    ASSERT_TRUE(propagate(Net, *Got));
    auto Want = makeElement(Region, Spec);
    propagateLowered(Net, *Want);
    EXPECT_GT(static_cast<const PowersetElement &>(*Got).numDisjuncts(), 1u);
    for (size_t K = 0; K < Net.outputSize(); ++K)
      for (size_t J = 0; J < Net.outputSize(); ++J)
        if (J != K)
          ASSERT_EQ(Got->lowerBoundDiff(K, J), Want->lowerBoundDiff(K, J))
              << "classes (" << K << ", " << J << ")";
  });
}
