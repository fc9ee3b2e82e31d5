//===- Vector.h - Dense double vector ---------------------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense vector of doubles with the handful of BLAS-1 style operations the
/// rest of the project needs. Networks, abstract elements, gradients and the
/// Gaussian process all operate on this type.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_LINALG_VECTOR_H
#define CHARON_LINALG_VECTOR_H

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace charon {

/// Dense vector of doubles.
class Vector {
public:
  Vector() = default;

  /// Creates a vector of \p N zeros.
  explicit Vector(size_t N) : Data(N, 0.0) {}

  /// Creates a vector of \p N copies of \p Fill.
  Vector(size_t N, double Fill) : Data(N, Fill) {}

  /// Creates a vector from a brace list, e.g. Vector{1.0, 2.0}.
  Vector(std::initializer_list<double> Init) : Data(Init) {}

  /// Wraps an existing buffer.
  explicit Vector(std::vector<double> Values) : Data(std::move(Values)) {}

  size_t size() const { return Data.size(); }
  bool empty() const { return Data.empty(); }

  double operator[](size_t I) const {
    assert(I < Data.size() && "vector index out of range");
    return Data[I];
  }
  double &operator[](size_t I) {
    assert(I < Data.size() && "vector index out of range");
    return Data[I];
  }

  const double *data() const { return Data.data(); }
  double *data() { return Data.data(); }

  std::vector<double>::const_iterator begin() const { return Data.begin(); }
  std::vector<double>::const_iterator end() const { return Data.end(); }

  /// In-place elementwise addition. Sizes must match.
  Vector &operator+=(const Vector &Rhs);
  /// In-place elementwise subtraction. Sizes must match.
  Vector &operator-=(const Vector &Rhs);
  /// In-place scaling.
  Vector &operator*=(double Scale);

  friend Vector operator+(Vector Lhs, const Vector &Rhs) { return Lhs += Rhs; }
  friend Vector operator-(Vector Lhs, const Vector &Rhs) { return Lhs -= Rhs; }
  friend Vector operator*(Vector Lhs, double Scale) { return Lhs *= Scale; }
  friend Vector operator*(double Scale, Vector Rhs) { return Rhs *= Scale; }

  /// Appends an entry.
  void push_back(double X) { Data.push_back(X); }

  /// Resizes, zero-filling new entries.
  void resize(size_t N) { Data.resize(N, 0.0); }

  /// Sets every entry to \p X.
  void fill(double X);

private:
  std::vector<double> Data;
};

/// Dot product. Sizes must match.
double dot(const Vector &A, const Vector &B);

/// Euclidean (L2) norm.
double norm2(const Vector &A);

/// Max (L-infinity) norm.
double normInf(const Vector &A);

/// L2 distance between two vectors of equal size.
double distance2(const Vector &A, const Vector &B);

/// Index of the largest entry; requires a nonempty vector. Ties resolve to
/// the smallest index, making classification deterministic.
size_t argmax(const Vector &A);

/// Elementwise clamp of \p X into [Lo, Hi] (all sizes equal).
Vector clamp(const Vector &X, const Vector &Lo, const Vector &Hi);

/// True when every |A[i] - B[i]| <= Tol.
bool approxEqual(const Vector &A, const Vector &B, double Tol);

} // namespace charon

#endif // CHARON_LINALG_VECTOR_H
