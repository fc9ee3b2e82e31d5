//===- LinalgTests.cpp - Tests for the linear algebra library ----------------===//

#include "linalg/Box.h"
#include "linalg/Cholesky.h"
#include "linalg/DefaultInit.h"
#include "linalg/Matrix.h"
#include "linalg/Vector.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <new>
#include <string>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define CHARON_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CHARON_TEST_ASAN 1
#endif
#endif

using namespace charon;

//===----------------------------------------------------------------------===//
// Vector
//===----------------------------------------------------------------------===//

TEST(VectorTest, ConstructionAndIndexing) {
  Vector V{1.0, 2.0, 3.0};
  EXPECT_EQ(V.size(), 3u);
  EXPECT_DOUBLE_EQ(V[0], 1.0);
  EXPECT_DOUBLE_EQ(V[2], 3.0);
  Vector Z(4);
  EXPECT_EQ(Z.size(), 4u);
  EXPECT_DOUBLE_EQ(Z[3], 0.0);
}

TEST(VectorTest, Arithmetic) {
  Vector A{1.0, 2.0};
  Vector B{3.0, -1.0};
  Vector Sum = A + B;
  EXPECT_DOUBLE_EQ(Sum[0], 4.0);
  EXPECT_DOUBLE_EQ(Sum[1], 1.0);
  Vector Diff = A - B;
  EXPECT_DOUBLE_EQ(Diff[0], -2.0);
  Vector Scaled = 2.0 * A;
  EXPECT_DOUBLE_EQ(Scaled[1], 4.0);
}

TEST(VectorTest, DotAndNorms) {
  Vector A{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(A, A), 25.0);
  EXPECT_DOUBLE_EQ(norm2(A), 5.0);
  EXPECT_DOUBLE_EQ(normInf(A), 4.0);
  Vector B{0.0, 0.0};
  EXPECT_DOUBLE_EQ(distance2(A, B), 5.0);
}

TEST(VectorTest, Axpy) {
  Vector X{1.0, 2.0};
  Vector Y{10.0, 20.0};
  axpy(3.0, X, Y);
  EXPECT_DOUBLE_EQ(Y[0], 13.0);
  EXPECT_DOUBLE_EQ(Y[1], 26.0);
}

TEST(VectorTest, ArgmaxBreaksTiesLow) {
  Vector V{1.0, 5.0, 5.0, 2.0};
  EXPECT_EQ(argmax(V), 1u);
}

TEST(VectorTest, Clamp) {
  Vector X{-1.0, 0.5, 3.0};
  Vector Lo{0.0, 0.0, 0.0};
  Vector Hi{1.0, 1.0, 1.0};
  Vector C = clamp(X, Lo, Hi);
  EXPECT_DOUBLE_EQ(C[0], 0.0);
  EXPECT_DOUBLE_EQ(C[1], 0.5);
  EXPECT_DOUBLE_EQ(C[2], 1.0);
}

TEST(VectorTest, ApproxEqual) {
  EXPECT_TRUE(approxEqual(Vector{1.0, 2.0}, Vector{1.0 + 1e-10, 2.0}, 1e-9));
  EXPECT_FALSE(approxEqual(Vector{1.0}, Vector{1.1}, 1e-3));
  EXPECT_FALSE(approxEqual(Vector{1.0}, Vector{1.0, 2.0}, 1.0));
}

//===----------------------------------------------------------------------===//
// Matrix
//===----------------------------------------------------------------------===//

TEST(MatrixTest, InitializerAndIdentity) {
  Matrix M{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(M.rows(), 2u);
  EXPECT_EQ(M.cols(), 2u);
  EXPECT_DOUBLE_EQ(M(1, 0), 3.0);
  Matrix I = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(I(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(I(0, 1), 0.0);
}

TEST(MatrixTest, MatVec) {
  Matrix M{{1.0, 2.0}, {3.0, 4.0}};
  Vector X{1.0, 1.0};
  Vector Y = matVec(M, X);
  EXPECT_DOUBLE_EQ(Y[0], 3.0);
  EXPECT_DOUBLE_EQ(Y[1], 7.0);
}

TEST(MatrixTest, MatTVecMatchesExplicitTranspose) {
  Rng R(3);
  Matrix M(4, 6);
  for (size_t I = 0; I < 4; ++I)
    for (size_t J = 0; J < 6; ++J)
      M(I, J) = R.gaussian();
  Vector X(4);
  for (size_t I = 0; I < 4; ++I)
    X[I] = R.gaussian();
  Vector A = matTVec(M, X);
  Vector B = matVec(M.transposed(), X);
  EXPECT_TRUE(approxEqual(A, B, 1e-12));
}

TEST(MatrixTest, MatMulAgainstHandComputed) {
  Matrix A{{1.0, 2.0}, {3.0, 4.0}};
  Matrix B{{0.0, 1.0}, {1.0, 0.0}};
  Matrix C = matMul(A, B);
  EXPECT_DOUBLE_EQ(C(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(C(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(C(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(C(1, 1), 3.0);
}

TEST(MatrixTest, MatMulIdentity) {
  Rng R(5);
  Matrix M(3, 3);
  for (size_t I = 0; I < 3; ++I)
    for (size_t J = 0; J < 3; ++J)
      M(I, J) = R.gaussian();
  EXPECT_TRUE(approxEqual(matMul(M, Matrix::identity(3)), M, 1e-12));
  EXPECT_TRUE(approxEqual(matMul(Matrix::identity(3), M), M, 1e-12));
}

namespace {
bool cacheLineAligned(const Matrix &M) {
  return reinterpret_cast<std::uintptr_t>(M.data()) % 64 == 0;
}
} // namespace

TEST(MatrixTest, StorageIsCacheLineAligned) {
  // 1 x 65537 doubles is one element over 512 KiB, the size from which
  // the AVX2 product streams non-temporal stores into aligned rows.
  const std::pair<size_t, size_t> Shapes[] = {
      {1, 1}, {1, 2}, {1, 3}, {2, 5}, {3, 7}, {7, 9}, {50, 50}, {1, 65537}};
  for (auto [Rows, Cols] : Shapes) {
    SCOPED_TRACE(std::to_string(Rows) + " x " + std::to_string(Cols));
    Matrix M(Rows, Cols);
    EXPECT_TRUE(cacheLineAligned(M));
    Matrix Copy = M;
    EXPECT_TRUE(cacheLineAligned(Copy));
    Matrix Moved = std::move(Copy);
    EXPECT_TRUE(cacheLineAligned(Moved));
    Moved.resizeRows(2 * Rows + 1);
    EXPECT_TRUE(cacheLineAligned(Moved));
    EXPECT_EQ(Moved(2 * Rows, Cols - 1), 0.0);
    EXPECT_TRUE(cacheLineAligned(Matrix::uninit(Rows, Cols)));
  }

  // A count whose bytes plus the alignment pad overflow size_t is refused
  // before anything is allocated.
  DefaultInitAlloc<double> Alloc;
  const size_t Max = std::numeric_limits<size_t>::max();
  EXPECT_LE(Alloc.max_size(), (Max - 64) / sizeof(double));
  EXPECT_THROW((void)Alloc.allocate(Alloc.max_size() + 1),
               std::bad_array_new_length);
  EXPECT_THROW((void)Alloc.allocate(Max / sizeof(double)),
               std::bad_array_new_length);
}

#ifdef CHARON_TEST_ASAN
// The allocator carves each block out of a larger raw allocation, so a
// write one past the data can land in the pad rather than past the raw
// block. The pad is poisoned, so AddressSanitizer must still report it.
TEST(MatrixDeathTest, WriteOnePastTheEndIsReported) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (size_t Cols : {size_t(1), size_t(2), size_t(3), size_t(5), size_t(8)}) {
    SCOPED_TRACE(Cols);
    EXPECT_DEATH(
        {
          Matrix M(1, Cols);
          double *volatile End = M.data() + Cols;
          *End = 1.0;
        },
        "AddressSanitizer");
  }
}
#endif

//===----------------------------------------------------------------------===//
// Cholesky
//===----------------------------------------------------------------------===//

TEST(CholeskyTest, SolvesSpdSystem) {
  // A = L L^T for a hand-built SPD matrix.
  Matrix A{{4.0, 2.0, 0.0}, {2.0, 5.0, 1.0}, {0.0, 1.0, 3.0}};
  Cholesky F(A);
  ASSERT_TRUE(F.isValid());
  Vector B{2.0, 1.0, 4.0};
  Vector X = F.solve(B);
  Vector Ax = matVec(A, X);
  EXPECT_TRUE(approxEqual(Ax, B, 1e-10));
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix A{{1.0, 2.0}, {2.0, 1.0}}; // eigenvalues 3, -1
  Cholesky F(A);
  EXPECT_FALSE(F.isValid());
}

TEST(CholeskyTest, LogDetOfIdentityIsZero) {
  Cholesky F(Matrix::identity(5));
  ASSERT_TRUE(F.isValid());
  EXPECT_NEAR(F.logDiagSum(), 0.0, 1e-12);
}

TEST(CholeskyTest, RandomSpdRoundTrip) {
  Rng R(7);
  // Build SPD as M^T M + n I.
  size_t N = 8;
  Matrix M(N, N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      M(I, J) = R.gaussian();
  Matrix A = matMul(M.transposed(), M);
  for (size_t I = 0; I < N; ++I)
    A(I, I) += static_cast<double>(N);
  Cholesky F(A);
  ASSERT_TRUE(F.isValid());
  Vector B(N);
  for (size_t I = 0; I < N; ++I)
    B[I] = R.gaussian();
  EXPECT_TRUE(approxEqual(matVec(A, F.solve(B)), B, 1e-8));
}

//===----------------------------------------------------------------------===//
// Box
//===----------------------------------------------------------------------===//

TEST(BoxTest, CenterWidthDiameter) {
  Box B(Vector{0.0, -1.0}, Vector{2.0, 1.0});
  Vector C = B.center();
  EXPECT_DOUBLE_EQ(C[0], 1.0);
  EXPECT_DOUBLE_EQ(C[1], 0.0);
  EXPECT_DOUBLE_EQ(B.width(0), 2.0);
  EXPECT_DOUBLE_EQ(B.diameter(), std::sqrt(8.0));
}

TEST(BoxTest, UniformAndLinfBall) {
  Box U = Box::uniform(3, -1.0, 1.0);
  EXPECT_EQ(U.dim(), 3u);
  EXPECT_DOUBLE_EQ(U.lower()[2], -1.0);

  Box Ball = Box::linfBall(Vector{0.9, 0.5}, 0.2, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(Ball.upper()[0], 1.0); // clipped
  EXPECT_DOUBLE_EQ(Ball.lower()[0], 0.7);
  EXPECT_DOUBLE_EQ(Ball.lower()[1], 0.3);
}

TEST(BoxTest, ContainsAndProject) {
  Box B(Vector{0.0, 0.0}, Vector{1.0, 1.0});
  EXPECT_TRUE(B.contains(Vector{0.5, 0.5}));
  EXPECT_FALSE(B.contains(Vector{1.5, 0.5}));
  Vector P = B.project(Vector{2.0, -1.0});
  EXPECT_DOUBLE_EQ(P[0], 1.0);
  EXPECT_DOUBLE_EQ(P[1], 0.0);
  EXPECT_TRUE(B.contains(P));
}

TEST(BoxTest, LongestDim) {
  Box B(Vector{0.0, 0.0, 0.0}, Vector{1.0, 3.0, 2.0});
  EXPECT_EQ(B.longestDim(), 1u);
}

TEST(BoxTest, SplitCoversAndShrinks) {
  Box B(Vector{0.0, 0.0}, Vector{1.0, 1.0});
  auto [Lo, Hi] = B.split(0, 0.25);
  // Halves share the cut plane and cover the region.
  EXPECT_DOUBLE_EQ(Lo.upper()[0], Hi.lower()[0]);
  EXPECT_DOUBLE_EQ(Lo.lower()[0], 0.0);
  EXPECT_DOUBLE_EQ(Hi.upper()[0], 1.0);
  // Assumption 1: both children strictly smaller in diameter.
  EXPECT_LT(Lo.diameter(), B.diameter());
  EXPECT_LT(Hi.diameter(), B.diameter());
}

TEST(BoxTest, SplitNudgesBoundaryCut) {
  Box B(Vector{0.0}, Vector{1.0});
  // A cut at (or beyond) the boundary must be pulled strictly inside so
  // both halves are nonempty (Assumption 1 of the paper).
  auto [Lo, Hi] = B.split(0, 0.0);
  EXPECT_GT(Lo.width(0), 0.0);
  EXPECT_GT(Hi.width(0), 0.0);
  auto [Lo2, Hi2] = B.split(0, 5.0);
  EXPECT_GT(Lo2.width(0), 0.0);
  EXPECT_GT(Hi2.width(0), 0.0);
}

TEST(BoxTest, SampleStaysInside) {
  Rng R(11);
  Box B(Vector{-2.0, 3.0}, Vector{-1.0, 7.0});
  for (int I = 0; I < 200; ++I)
    EXPECT_TRUE(B.contains(B.sample(R)));
}

TEST(BoxTest, SplitPreservesUnionUnderSampling) {
  Rng R(13);
  Box B(Vector{0.0, 0.0}, Vector{1.0, 2.0});
  auto [Lo, Hi] = B.split(1, 0.8);
  for (int I = 0; I < 500; ++I) {
    Vector X = B.sample(R);
    EXPECT_TRUE(Lo.contains(X, 1e-12) || Hi.contains(X, 1e-12));
  }
}
