//===- KernelTests.cpp - Dispatched kernels vs naive references --------------===//
//
// The kernels in linalg/Kernels.h run behind a runtime SIMD dispatch table
// (linalg/SimdDispatch.h). These tests sweep every level the build + host
// support and pin the determinism contract at each one:
//
//  - at SimdLevel::Scalar every kernel is bit-identical to its naive
//    single-threaded reference loop (the historical contract);
//  - elementwise kernels (scaleColumns, gatherColumns, relu*) and
//    absColumnSums are bit-identical across *all* levels;
//  - reductions (matMul, matMulTransposed, absRowSums) may regroup their
//    accumulation under AVX2/FMA, but stay bit-identical across thread
//    counts *within* a level and within a small tolerance of the reference;
//  - the Dense batch kernels (affineBatch, matMul) equal the per-point
//    matVec + bias and matTVec byte for byte at every level.
//
// Each product/sweep case runs both below and above the parallel threshold
// (setParallelThreshold(0) forces every kernel onto the thread pool), on
// shapes including empty, single-row, and strongly non-square matrices.
//
//===----------------------------------------------------------------------===//

#include "linalg/Kernels.h"
#include "linalg/Matrix.h"
#include "linalg/SimdDispatch.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

using namespace charon;

namespace {

Matrix randomMatrix(size_t Rows, size_t Cols, Rng &R, double ZeroFrac = 0.0) {
  Matrix M(Rows, Cols);
  for (size_t I = 0; I < Rows; ++I)
    for (size_t J = 0; J < Cols; ++J)
      M(I, J) = R.uniform() < ZeroFrac ? 0.0 : R.uniform(-2.0, 2.0);
  return M;
}

Matrix naiveMatMul(const Matrix &A, const Matrix &B) {
  Matrix C(A.rows(), B.cols());
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < B.cols(); ++J) {
      double Sum = 0.0;
      for (size_t K = 0; K < A.cols(); ++K)
        Sum += A(I, K) * B(K, J);
      C(I, J) = Sum;
    }
  return C;
}

Matrix naiveMatMulTransposed(const Matrix &A, const Matrix &B) {
  Matrix C(A.rows(), B.rows());
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < B.rows(); ++J) {
      double Sum = 0.0;
      for (size_t K = 0; K < A.cols(); ++K)
        Sum += A(I, K) * B(J, K);
      C(I, J) = Sum;
    }
  return C;
}

Vector naiveAbsRowSums(const Matrix &A) {
  Vector Out(A.rows());
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < A.cols(); ++J)
      Out[I] += std::fabs(A(I, J));
  return Out;
}

Vector naiveAbsColumnSums(const Matrix &A) {
  Vector Out(A.cols());
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < A.cols(); ++J)
      Out[J] += std::fabs(A(I, J));
  return Out;
}

// == on doubles treats -0.0 == 0.0 as equal, which is exactly the contract:
// values bit-identical up to zero sign.
void expectValueEqual(const Matrix &Got, const Matrix &Want) {
  ASSERT_EQ(Got.rows(), Want.rows());
  ASSERT_EQ(Got.cols(), Want.cols());
  for (size_t I = 0; I < Got.rows(); ++I)
    for (size_t J = 0; J < Got.cols(); ++J)
      ASSERT_EQ(Got(I, J), Want(I, J)) << "at (" << I << ", " << J << ")";
}

void expectValueEqual(const Vector &Got, const Vector &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I)
    ASSERT_EQ(Got[I], Want[I]) << "at " << I;
}

// Reductions regroup their accumulation under AVX2/FMA: compare against the
// naive reference with a relative tolerance far above double noise but far
// below any real defect.
void expectClose(const Matrix &Got, const Matrix &Want, double Tol) {
  ASSERT_EQ(Got.rows(), Want.rows());
  ASSERT_EQ(Got.cols(), Want.cols());
  for (size_t I = 0; I < Got.rows(); ++I)
    for (size_t J = 0; J < Got.cols(); ++J)
      ASSERT_NEAR(Got(I, J), Want(I, J),
                  Tol * std::max(1.0, std::fabs(Want(I, J))))
          << "at (" << I << ", " << J << ")";
}

void expectClose(const Vector &Got, const Vector &Want, double Tol) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I)
    ASSERT_NEAR(Got[I], Want[I], Tol * std::max(1.0, std::fabs(Want[I])))
        << "at " << I;
}

/// Restores the parallel threshold when a test scope ends.
class ThresholdGuard {
public:
  ThresholdGuard() : Saved(kernels::parallelThreshold()) {}
  ~ThresholdGuard() { kernels::setParallelThreshold(Saved); }

private:
  size_t Saved;
};

/// Restores the SIMD level when a test scope ends.
class SimdGuard {
public:
  SimdGuard() : Saved(kernels::simdLevel()) {}
  ~SimdGuard() { kernels::setSimdLevel(Saved); }

private:
  kernels::SimdLevel Saved;
};

/// Runs \p Body once per available SIMD level with that level active, under
/// a SCOPED_TRACE naming the level.
template <typename Fn> void forEachSimdLevel(Fn Body) {
  SimdGuard Guard;
  for (kernels::SimdLevel L : kernels::availableSimdLevels()) {
    SCOPED_TRACE(std::string("simd=") + kernels::simdLevelName(L));
    ASSERT_TRUE(kernels::setSimdLevel(L));
    Body(L);
  }
}

// The shapes every product/sweep test runs over: empty operands, single
// rows/columns, strongly rectangular, and a large-enough square that blocked
// panels actually wrap around.
struct Shape {
  size_t M, K, N;
};
const Shape ProductShapes[] = {
    {0, 0, 0}, {0, 7, 3},  {3, 7, 0},   {1, 1, 1},    {1, 17, 5},
    {5, 1, 9}, {9, 33, 1}, {13, 7, 61}, {40, 90, 17}, {70, 70, 70},
};

} // namespace

TEST(KernelTest, DispatchLevelsRoundTrip) {
  SimdGuard Guard;
  std::vector<kernels::SimdLevel> Levels = kernels::availableSimdLevels();
  ASSERT_FALSE(Levels.empty());
  EXPECT_EQ(Levels.front(), kernels::SimdLevel::Scalar);
  EXPECT_STREQ(kernels::simdLevelName(kernels::SimdLevel::Scalar), "scalar");
  EXPECT_STREQ(kernels::simdLevelName(kernels::SimdLevel::Avx2), "avx2");
  for (kernels::SimdLevel L : Levels) {
    ASSERT_TRUE(kernels::setSimdLevel(L));
    EXPECT_EQ(kernels::simdLevel(), L);
  }
}

TEST(KernelTest, MatMulMatchesNaiveSerialAndParallel) {
  Rng R(101);
  for (const Shape &S : ProductShapes) {
    Matrix A = randomMatrix(S.M, S.K, R, 0.3); // Zeros exercise the skip path.
    Matrix B = randomMatrix(S.K, S.N, R);
    Matrix Want = naiveMatMul(A, B);
    forEachSimdLevel([&](kernels::SimdLevel L) {
      ThresholdGuard G;
      kernels::setParallelThreshold(size_t(1) << 40); // Always serial.
      Matrix Serial = matMul(A, B);
      if (L == kernels::SimdLevel::Scalar)
        expectValueEqual(Serial, Want);
      else
        expectClose(Serial, Want, 1e-12);
      kernels::setParallelThreshold(0); // Always threaded.
      expectValueEqual(matMul(A, B), Serial); // Bit-identical within a level.
    });
  }
}

TEST(KernelTest, MatMulTransposedMatchesNaiveSerialAndParallel) {
  Rng R(202);
  for (const Shape &S : ProductShapes) {
    Matrix A = randomMatrix(S.M, S.K, R);
    Matrix B = randomMatrix(S.N, S.K, R); // B is N x K; product is M x N.
    Matrix Want = naiveMatMulTransposed(A, B);
    forEachSimdLevel([&](kernels::SimdLevel L) {
      ThresholdGuard G;
      kernels::setParallelThreshold(size_t(1) << 40);
      Matrix Serial = kernels::matMulTransposed(A, B);
      if (L == kernels::SimdLevel::Scalar)
        expectValueEqual(Serial, Want);
      else
        expectClose(Serial, Want, 1e-12);
      kernels::setParallelThreshold(0);
      expectValueEqual(kernels::matMulTransposed(A, B), Serial);
    });
  }
}

TEST(KernelTest, MatMulTransposedIntoWritesOffsetBlock) {
  Rng R(303);
  Matrix A = randomMatrix(6, 11, R);
  Matrix B = randomMatrix(4, 11, R);
  forEachSimdLevel([&](kernels::SimdLevel) {
    // The Into form must agree bit-for-bit with the level's own full
    // product and leave rows outside the block untouched.
    Matrix Want = kernels::matMulTransposed(A, B);
    Matrix C(9, 4);
    for (size_t I = 0; I < C.rows(); ++I)
      for (size_t J = 0; J < C.cols(); ++J)
        C(I, J) = -7.0; // Sentinel: rows outside the block must survive.
    kernels::matMulTransposedInto(A, B, C, 2);
    for (size_t I = 0; I < C.rows(); ++I)
      for (size_t J = 0; J < C.cols(); ++J) {
        if (I >= 2 && I < 8)
          ASSERT_EQ(C(I, J), Want(I - 2, J));
        else
          ASSERT_EQ(C(I, J), -7.0);
      }
  });
}

TEST(KernelTest, AbsColumnSumsExactAtEveryLevelAndThreading) {
  Rng R(404);
  const Shape Shapes[] = {{0, 0, 0}, {0, 5, 0}, {1, 9, 0},
                          {9, 1, 0}, {23, 57, 0}, {67, 130, 0}};
  for (const Shape &S : Shapes) {
    Matrix A = randomMatrix(S.M, S.K, R, 0.2);
    Vector Want = naiveAbsColumnSums(A);
    // absColumnSums accumulates each column in ascending-row order at every
    // level and shards by *columns*, so it is bit-identical to the naive
    // loop across all levels and thread counts.
    forEachSimdLevel([&](kernels::SimdLevel) {
      ThresholdGuard G;
      kernels::setParallelThreshold(size_t(1) << 40);
      expectValueEqual(kernels::absColumnSums(A), Want);
      kernels::setParallelThreshold(0);
      expectValueEqual(kernels::absColumnSums(A), Want);
    });
  }
}

TEST(KernelTest, AbsRowSumsMatchNaive) {
  Rng R(414);
  const Shape Shapes[] = {{0, 0, 0}, {0, 5, 0}, {1, 9, 0},
                          {9, 1, 0}, {23, 57, 0}};
  for (const Shape &S : Shapes) {
    Matrix A = randomMatrix(S.M, S.K, R, 0.2);
    Vector Want = naiveAbsRowSums(A);
    forEachSimdLevel([&](kernels::SimdLevel L) {
      ThresholdGuard G;
      kernels::setParallelThreshold(size_t(1) << 40);
      Vector Serial = kernels::absRowSums(A);
      if (L == kernels::SimdLevel::Scalar)
        expectValueEqual(Serial, Want);
      else
        expectClose(Serial, Want, 1e-12);
      kernels::setParallelThreshold(0);
      expectValueEqual(kernels::absRowSums(A), Serial);
    });
  }
}

TEST(KernelTest, ScaleColumnsMatchesNaiveSerialAndParallel) {
  Rng R(505);
  const Shape Shapes[] = {{0, 4, 0}, {1, 6, 0}, {17, 1, 0}, {31, 44, 0}};
  for (const Shape &S : Shapes) {
    Matrix A = randomMatrix(S.M, S.K, R);
    Vector Scale(S.K);
    for (size_t J = 0; J < S.K; ++J)
      Scale[J] = J % 3 == 0 ? 0.0 : R.uniform(0.0, 1.0); // ReLU-like scales.

    Matrix Want = A;
    for (size_t I = 0; I < S.M; ++I)
      for (size_t J = 0; J < S.K; ++J)
        Want(I, J) *= Scale[J];

    // Elementwise: exact at every level.
    forEachSimdLevel([&](kernels::SimdLevel) {
      Matrix Serial = A, Threaded = A;
      ThresholdGuard G;
      kernels::setParallelThreshold(size_t(1) << 40);
      kernels::scaleColumns(Serial, Scale);
      kernels::setParallelThreshold(0);
      kernels::scaleColumns(Threaded, Scale);
      expectValueEqual(Serial, Want);
      expectValueEqual(Threaded, Want);
    });
  }
}

TEST(KernelTest, ReluKernelsExactAtEveryLevel) {
  Rng R(515);
  const Shape Shapes[] = {{0, 3, 0}, {1, 1, 0}, {7, 19, 0}, {13, 70, 0}};
  for (const Shape &S : Shapes) {
    Matrix X = randomMatrix(S.M, S.K, R, 0.25); // Zeros hit the tie-break.
    Matrix GradOut = randomMatrix(S.M, S.K, R);
    Matrix WantFwd(S.M, S.K), WantBwd(S.M, S.K);
    for (size_t I = 0; I < S.M; ++I)
      for (size_t J = 0; J < S.K; ++J) {
        WantFwd(I, J) = X(I, J) > 0.0 ? X(I, J) : 0.0;
        WantBwd(I, J) = X(I, J) > 0.0 ? GradOut(I, J) : 0.0;
      }
    forEachSimdLevel([&](kernels::SimdLevel) {
      ThresholdGuard G;
      for (size_t Threshold : {size_t(1) << 40, size_t(0)}) {
        kernels::setParallelThreshold(Threshold);
        expectValueEqual(kernels::reluBatch(X), WantFwd);
        expectValueEqual(kernels::reluBackwardBatch(X, GradOut), WantBwd);
      }
    });
  }
}

TEST(KernelTest, GatherColumnsMatchesNaiveSerialAndParallel) {
  Rng R(606);
  const Shape Shapes[] = {{0, 6, 3}, {1, 6, 4}, {25, 9, 13}};
  for (const Shape &S : Shapes) {
    Matrix A = randomMatrix(S.M, S.K, R);
    std::vector<int> SrcCol(S.N);
    for (size_t O = 0; O < S.N; ++O)
      SrcCol[O] = O % 4 == 0 ? -1 : int(R.uniformInt(S.K));

    Matrix Want(S.M, S.N);
    for (size_t I = 0; I < S.M; ++I)
      for (size_t O = 0; O < S.N; ++O)
        Want(I, O) = SrcCol[O] < 0 ? 0.0 : A(I, SrcCol[O]);

    forEachSimdLevel([&](kernels::SimdLevel) {
      Matrix Serial(S.M, S.N), Threaded(S.M, S.N);
      ThresholdGuard G;
      kernels::setParallelThreshold(size_t(1) << 40);
      kernels::gatherColumns(A, SrcCol, Serial);
      kernels::setParallelThreshold(0);
      kernels::gatherColumns(A, SrcCol, Threaded);
      expectValueEqual(Serial, Want);
      expectValueEqual(Threaded, Want);
    });
  }
}

TEST(KernelTest, OneHotKernelsMatchDenseEquivalents) {
  Rng R(707);
  Matrix W = randomMatrix(9, 14, R);
  std::vector<kernels::OneHot> Sparse = {
      {3, 0.75}, {0, -1.25}, {13, 2.0}, {3, -0.0625}};
  forEachSimdLevel([&](kernels::SimdLevel) {
    Matrix C(Sparse.size() + 2, W.rows());
    for (size_t I = 0; I < C.rows(); ++I)
      for (size_t J = 0; J < C.cols(); ++J)
        C(I, J) = -7.0;
    kernels::oneHotMatMulInto(Sparse, W, C, 2);
    for (size_t J = 0; J < C.cols(); ++J) {
      ASSERT_EQ(C(0, J), -7.0);
      ASSERT_EQ(C(1, J), -7.0);
    }
    // One multiply per element: exact at every level.
    for (size_t S = 0; S < Sparse.size(); ++S)
      for (size_t J = 0; J < W.rows(); ++J)
        ASSERT_EQ(C(2 + S, J), Sparse[S].Mag * W(J, Sparse[S].Coord))
            << "at (" << S << ", " << J << ")";

    Vector Sums(Sparse.size() + 1);
    Sums[0] = -3.0;
    kernels::oneHotRowSumsInto(Sparse, Sums, 1);
    ASSERT_EQ(Sums[0], -3.0);
    for (size_t S = 0; S < Sparse.size(); ++S)
      ASSERT_EQ(Sums[1 + S], std::fabs(Sparse[S].Mag));
  });
}

TEST(KernelTest, AxpyIsPositionIndependentWithinALevel) {
  Rng R(808);
  Matrix X = randomMatrix(1, 133, R);
  Matrix Y0 = randomMatrix(1, 133, R);
  const double A = -0.37;
  forEachSimdLevel([&](kernels::SimdLevel L) {
    // One full-length call and any split into subranges must produce the
    // same bits: matMul feeds saxpy 256-column panels while matTVec feeds
    // whole rows, and the two paths promise bit-identity within a level.
    Matrix Whole = Y0, Split = Y0;
    kernels::axpy(Whole.row(0), X.row(0), A, X.cols());
    kernels::axpy(Split.row(0), X.row(0), A, 61);
    kernels::axpy(Split.row(0) + 61, X.row(0) + 61, A, X.cols() - 61);
    expectValueEqual(Split, Whole);
    if (L == kernels::SimdLevel::Scalar)
      for (size_t J = 0; J < X.cols(); ++J)
        ASSERT_EQ(Whole(0, J), Y0(0, J) + A * X(0, J));
  });
}

// The Dense batch kernels against their per-point definitions, byte for
// byte (the sign of a zero and a NaN's payload count): each row of
// affineBatch is matVec(W, x) + b and each row of matMul(G, W) is
// matTVec(W, g), at every level, serial and forced-threaded, with some
// weights infinite so NaNs arise too. K covers every residue mod 16 and
// both of the dot's 8- and 4-element drains; N every remainder mod 4 and
// rows wider than one register panel. Outputs compare whole, so a
// remainder store past a row's end shows in the next row.
TEST(KernelTest, DenseBatchKernelsEqualPerPointBytesOnEveryShape) {
  std::vector<size_t> Ks, Ns;
  for (size_t K = 1; K <= 40; ++K)
    Ks.push_back(K);
  for (size_t K : {47, 48, 49, 50, 63, 64, 65, 100, 200, 300})
    Ks.push_back(K);
  for (size_t N = 1; N <= 9; ++N)
    Ns.push_back(N);
  for (size_t N = 47; N <= 53; ++N)
    Ns.push_back(N);
  for (size_t N : {96, 97, 200})
    Ns.push_back(N);
  const size_t Batches[] = {0, 1, 2, 3, 17};
  auto SameBytes = [](const Matrix &Got, const Matrix &Want) {
    ASSERT_EQ(Got.rows(), Want.rows());
    ASSERT_EQ(Got.cols(), Want.cols());
    // An empty matrix has no storage, and memcmp takes no null pointer.
    const size_t Bytes = Got.rows() * Got.cols() * sizeof(double);
    if (Bytes == 0 || std::memcmp(Got.data(), Want.data(), Bytes) == 0)
      return;
    for (size_t I = 0; I < Got.rows(); ++I)
      for (size_t J = 0; J < Got.cols(); ++J)
        ASSERT_EQ(std::memcmp(Got.row(I) + J, Want.row(I) + J,
                              sizeof(double)),
                  0)
            << "at (" << I << ", " << J << "): " << Got(I, J) << " vs "
            << Want(I, J);
  };
  Rng R(1010);
  for (size_t K : Ks) {
    for (size_t N : Ns) {
      SCOPED_TRACE("K=" + std::to_string(K) + " N=" + std::to_string(N));
      Matrix W = randomMatrix(N, K, R);
      // An infinite weight makes the zero-gradient skip observable: without
      // it, 0 * inf would turn the skipped row's terms into NaN.
      if ((K + N) % 3 == 0)
        W(N / 2, K / 2) = std::numeric_limits<double>::infinity();
      Vector Bias(N);
      for (size_t J = 0; J < N; ++J)
        Bias[J] = R.uniform(-2.0, 2.0);
      for (size_t B : Batches) {
        Matrix X = randomMatrix(B, K, R);
        // A ReLU's gradients: zeros of both signs, which matMul and matTVec
        // both skip, and the last row all zeros.
        Matrix G = randomMatrix(B, N, R, 0.4);
        for (size_t I = 0; I < B; ++I)
          for (size_t J = 0; J < N; ++J)
            if (G(I, J) == 0.0 && (I + J) % 2 == 1)
              G(I, J) = -0.0;
        for (size_t J = 0; B > 0 && J < N; ++J)
          G(B - 1, J) = J % 2 == 0 ? 0.0 : -0.0;
        forEachSimdLevel([&](kernels::SimdLevel) {
          Matrix WantFwd(B, N), WantBwd(B, K);
          for (size_t I = 0; I < B; ++I) {
            Vector Xi(std::vector<double>(X.row(I), X.row(I) + K));
            Vector Y = matVec(W, Xi);
            Y += Bias;
            std::memcpy(WantFwd.row(I), Y.data(), N * sizeof(double));
            Vector Gi(std::vector<double>(G.row(I), G.row(I) + N));
            Vector D = matTVec(W, Gi);
            std::memcpy(WantBwd.row(I), D.data(), K * sizeof(double));
          }
          ThresholdGuard Guard;
          for (size_t Threshold : {size_t(1) << 40, size_t(0)}) {
            kernels::setParallelThreshold(Threshold);
            SameBytes(kernels::affineBatch(X, W, Bias), WantFwd);
            SameBytes(matMul(G, W), WantBwd);
          }
        });
        if (HasFatalFailure())
          return;
      }
    }
  }
}

// The convolution microkernel, both shapes: each lane is one chain over
// the taps from its channel's init. Separate arithmetic (multiply, then
// add) must match the plain scalar loop at every level; Dispatched must
// match the level's saxpy, one call per tap.
TEST(KernelTest, ConvTapBlockRunsOneChainPerLane) {
  Rng R(909);
  const size_t Taps = 13;
  Matrix Src = randomMatrix(1, 64, R, 0.2);
  Matrix Weights = randomMatrix(1, Taps * 4, R, 0.2);
  std::vector<size_t> Offsets(Taps);
  for (size_t T = 0; T < Taps; ++T)
    Offsets[T] = R.uniformInt(44);
  const double Init[4] = {0.5, -0.25, 0.0, 1.5};
  const double *X[4] = {Src.row(0), Src.row(0) + 5, Src.row(0) + 11,
                        Src.row(0) + 16};
  for (size_t Channels : {size_t(2), size_t(4)}) {
    const size_t Vectors = 8 / Channels;
    forEachSimdLevel([&](kernels::SimdLevel) {
      for (auto Arith :
           {kernels::TapArith::Separate, kernels::TapArith::Dispatched}) {
        double Out[32];
        kernels::convTapBlock(X, Offsets.data(), Weights.row(0), Taps,
                              Channels, Init, Arith, Out);
        for (size_t J = 0; J < Channels; ++J)
          for (size_t V = 0; V < Vectors; ++V)
            for (size_t L = 0; L < 4; ++L) {
              double Want = Init[J];
              for (size_t T = 0; T < Taps; ++T) {
                double W = Weights(0, T * Channels + J);
                double Xv = X[V][Offsets[T] + L];
                if (Arith == kernels::TapArith::Separate)
                  Want += W * Xv;
                else
                  kernels::axpy(&Want, &Xv, W, 1);
              }
              ASSERT_EQ(Out[(J * Vectors + V) * 4 + L], Want)
                  << "channel " << J << " vector " << V << " lane " << L;
            }
      }
    });
  }
}

TEST(KernelTest, ParallelForPartitionsExactly) {
  ThresholdGuard G;
  kernels::setParallelThreshold(0);
  for (size_t N : {size_t(0), size_t(1), size_t(7), size_t(1000)}) {
    std::vector<std::atomic<int>> Hits(N);
    kernels::parallelFor(N, 1, [&](size_t Begin, size_t End) {
      ASSERT_LE(Begin, End);
      ASSERT_LE(End, N);
      for (size_t I = Begin; I < End; ++I)
        Hits[I].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Hits[I].load(), 1) << "index " << I;
  }
}

TEST(KernelTest, ParallelForRunsTheSerialBodyInline) {
  ThresholdGuard G;
  kernels::setParallelThreshold(std::numeric_limits<size_t>::max());
  const std::thread::id Caller = std::this_thread::get_id();
  for (size_t N : {size_t(0), size_t(1), size_t(7), size_t(1000)}) {
    int Calls = 0;
    kernels::parallelFor(N, 1, [&](size_t Begin, size_t End) {
      ++Calls;
      EXPECT_EQ(std::this_thread::get_id(), Caller);
      EXPECT_EQ(Begin, 0u);
      EXPECT_EQ(End, N);
    });
    EXPECT_EQ(Calls, N == 0 ? 0 : 1) << "N = " << N;
  }
}

TEST(KernelTest, ThresholdRoundTrips) {
  ThresholdGuard G;
  kernels::setParallelThreshold(12345);
  EXPECT_EQ(kernels::parallelThreshold(), 12345u);
  EXPECT_GE(kernels::kernelThreads(), 1u);
}
