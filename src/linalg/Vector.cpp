//===- Vector.cpp - Dense double vector -----------------------------------===//

#include "linalg/Vector.h"

#include <algorithm>
#include <cmath>

using namespace charon;

Vector &Vector::operator+=(const Vector &Rhs) {
  assert(size() == Rhs.size() && "vector size mismatch");
  for (size_t I = 0, E = size(); I < E; ++I)
    Data[I] += Rhs.Data[I];
  return *this;
}

Vector &Vector::operator-=(const Vector &Rhs) {
  assert(size() == Rhs.size() && "vector size mismatch");
  for (size_t I = 0, E = size(); I < E; ++I)
    Data[I] -= Rhs.Data[I];
  return *this;
}

Vector &Vector::operator*=(double Scale) {
  for (double &X : Data)
    X *= Scale;
  return *this;
}

void Vector::fill(double X) { std::fill(Data.begin(), Data.end(), X); }

double charon::dot(const Vector &A, const Vector &B) {
  assert(A.size() == B.size() && "vector size mismatch");
  double Sum = 0.0;
  for (size_t I = 0, E = A.size(); I < E; ++I)
    Sum += A[I] * B[I];
  return Sum;
}

double charon::norm2(const Vector &A) { return std::sqrt(dot(A, A)); }

double charon::normInf(const Vector &A) {
  double Best = 0.0;
  for (size_t I = 0, E = A.size(); I < E; ++I)
    Best = std::max(Best, std::fabs(A[I]));
  return Best;
}

double charon::distance2(const Vector &A, const Vector &B) {
  assert(A.size() == B.size() && "vector size mismatch");
  double Sum = 0.0;
  for (size_t I = 0, E = A.size(); I < E; ++I) {
    double D = A[I] - B[I];
    Sum += D * D;
  }
  return std::sqrt(Sum);
}

size_t charon::argmax(const Vector &A) {
  assert(!A.empty() && "argmax of empty vector");
  size_t Best = 0;
  for (size_t I = 1, E = A.size(); I < E; ++I)
    if (A[I] > A[Best])
      Best = I;
  return Best;
}

Vector charon::clamp(const Vector &X, const Vector &Lo, const Vector &Hi) {
  assert(X.size() == Lo.size() && X.size() == Hi.size() &&
         "vector size mismatch");
  Vector Out(X.size());
  for (size_t I = 0, E = X.size(); I < E; ++I)
    Out[I] = std::min(std::max(X[I], Lo[I]), Hi[I]);
  return Out;
}

bool charon::approxEqual(const Vector &A, const Vector &B, double Tol) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0, E = A.size(); I < E; ++I)
    if (std::fabs(A[I] - B[I]) > Tol)
      return false;
  return true;
}
