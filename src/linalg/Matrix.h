//===- Matrix.h - Dense row-major matrix ------------------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense row-major matrix of doubles with the BLAS-2/3 kernels used by the
/// network layers (y = Wx + b), the abstract transformers (zonotope
/// generator-matrix updates), and the Gaussian process.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_LINALG_MATRIX_H
#define CHARON_LINALG_MATRIX_H

#include "linalg/DefaultInit.h"
#include "linalg/Vector.h"

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace charon {

/// Dense row-major matrix of doubles.
class Matrix {
public:
  Matrix() = default;

  /// Creates a Rows x Cols zero matrix.
  Matrix(size_t Rows, size_t Cols)
      : NumRows(Rows), NumCols(Cols), Data(Rows * Cols, 0.0) {}

  /// Creates a matrix from nested brace lists (rows of equal length).
  Matrix(std::initializer_list<std::initializer_list<double>> Init);

  /// Creates a Rows x Cols matrix with UNINITIALIZED contents. Only for
  /// buffers every element of which the caller immediately overwrites (e.g.
  /// the destination of matMulTransposedInto + oneHotMatMulInto): it skips
  /// the zero-fill memset, which for generator-matrix sizes both costs time
  /// and evicts the kernel's operands from cache.
  static Matrix uninit(size_t Rows, size_t Cols) {
    Matrix M;
    M.NumRows = Rows;
    M.NumCols = Cols;
    M.Data.resize(Rows * Cols);
    return M;
  }

  size_t rows() const { return NumRows; }
  size_t cols() const { return NumCols; }

  double operator()(size_t R, size_t C) const {
    assert(R < NumRows && C < NumCols && "matrix index out of range");
    return Data[R * NumCols + C];
  }
  double &operator()(size_t R, size_t C) {
    assert(R < NumRows && C < NumCols && "matrix index out of range");
    return Data[R * NumCols + C];
  }

  /// Pointer to the start of row \p R.
  const double *row(size_t R) const {
    assert(R < NumRows && "row index out of range");
    return Data.data() + R * NumCols;
  }
  double *row(size_t R) {
    assert(R < NumRows && "row index out of range");
    return Data.data() + R * NumCols;
  }

  /// Pointer to the row-major storage (rows() * cols() entries).
  const double *data() const { return Data.data(); }
  double *data() { return Data.data(); }

  /// Returns the N x N identity.
  static Matrix identity(size_t N);

  /// Returns the transpose.
  Matrix transposed() const;

  /// In-place scaling.
  Matrix &operator*=(double Scale);

  /// Grows or shrinks the row count in place, zero-filling new rows. Row-major
  /// storage keeps existing rows intact; used to append generator rows to a
  /// zonotope's generator matrix without reallocating through a copy.
  void resizeRows(size_t Rows) {
    NumRows = Rows;
    Data.resize(Rows * NumCols, 0.0);
  }

private:
  size_t NumRows = 0;
  size_t NumCols = 0;
  std::vector<double, DefaultInitAlloc<double>> Data;
};

/// y = A * x. Requires A.cols() == x.size(). Each row is one dot product in
/// the active SIMD backend's scheme — the same scheme affineBatch(PostAdd)
/// uses, so per-point and batched forward passes agree bit-for-bit at any
/// dispatch level (see linalg/SimdDispatch.h).
Vector matVec(const Matrix &A, const Vector &X);

/// y = A^T * x (without materializing the transpose). Row-major saxpy
/// updates shared with matMul — the per-point and batched backward passes
/// agree bit-for-bit at any dispatch level.
Vector matTVec(const Matrix &A, const Vector &X);

/// C = A * B. Requires A.cols() == B.rows(). Blocked and threaded above the
/// kernel threshold (see linalg/Kernels.h); per-element accumulation order
/// matches the naive i-k-j loop, so results are deterministic.
Matrix matMul(const Matrix &A, const Matrix &B);

/// True when matrices have equal shape and entries within \p Tol.
bool approxEqual(const Matrix &A, const Matrix &B, double Tol);

} // namespace charon

#endif // CHARON_LINALG_MATRIX_H
