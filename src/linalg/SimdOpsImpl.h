//===- SimdOpsImpl.h - Internal SIMD backend table ---------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal-only function-pointer table that a SIMD backend fills in. The
/// public kernels (Kernels.h, matVec/matTVec) shard work with parallelFor
/// and forward each shard to the active table; backends provide only the
/// straight-line row/column-block bodies.
///
/// Included by Kernels.cpp, KernelsAvx2.cpp and SimdDispatch.cpp. Not
/// installed behind the public headers — tests and callers go through the
/// dispatch API in SimdDispatch.h.
///
/// Contract notes for backend authors (see SimdDispatch.h for the
/// user-facing statement):
///  - Dot defines the level's per-element dot tree (matVec). AffineRows
///    must give each output that tree's bits, by calling Dot or by computing
///    the same tree for several outputs at once, so the per-point and
///    batched concrete paths agree bit-for-bit within the level.
///  - Saxpy defines the level's per-element chain (matTVec). It must be
///    elementwise position-independent (each Y[i] receives exactly one
///    rounding per call regardless of where the vector/tail boundary
///    falls), because matTVec spans whole rows while MatMulRows runs the
///    same chain per column panel, or in registers over the whole k loop.
///  - AbsColumnSumsCols must accumulate each column in ascending-row order
///    so results stay bit-identical across levels and shard layouts.
///  - ScaleColumnsRows, ReluRows and ReluBackwardRows perform one IEEE
///    operation per element and must match the scalar results bitwise
///    (vector max/and/mul are exact matches; no FMA allowed in them).
///  - MmtRows and AbsRowSumsRows may regroup accumulation freely; they are
///    only required to be deterministic per (shape, level).
///  - ConvBlock runs one sequential chain per lane. With Fused false it
///    multiplies, then adds, and must match the scalar body bitwise; with
///    Fused true it uses the level's Saxpy arithmetic (fma at avx2).
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_LINALG_SIMDOPSIMPL_H
#define CHARON_LINALG_SIMDOPSIMPL_H

#include "linalg/Kernels.h"
#include "linalg/Matrix.h"

#include <cstddef>

namespace charon {
namespace kernels {
namespace detail {

/// One SIMD backend: straight-line shard bodies for every dispatched kernel.
struct SimdOps {
  const char *Name;

  /// Rows [Begin, End): C(RowOffset + i, j) = dot(A.row(i), B.row(j)).
  void (*MmtRows)(const Matrix &A, const Matrix &B, Matrix &C,
                  size_t RowOffset, size_t Begin, size_t End);

  /// Rows [Begin, End): Out(i, j) = dot(X.row(i), W.row(j)) + Bias[j], the
  /// bias added after the full dot.
  void (*AffineRows)(const Matrix &X, const Matrix &W, const double *Bias,
                     Matrix &Out, size_t Begin, size_t End);

  /// Rows [Begin, End) of C = A * B in i-k-j order, built on Saxpy
  /// semantics with the Aik == 0.0 skip: each element's chain starts from
  /// +0.0. C arrives uninitialized, so the body writes every element of
  /// its rows.
  void (*MatMulRows)(const Matrix &A, const Matrix &B, Matrix &C,
                     size_t Begin, size_t End);

  /// Rows [Begin, End): A(i, j) *= Scale[j].
  void (*ScaleColumnsRows)(Matrix &A, const Vector &Scale, size_t Begin,
                           size_t End);

  /// Rows [Begin, End): Out(i, j) = X(i, j) > 0 ? X(i, j) : 0.
  void (*ReluRows)(const Matrix &X, Matrix &Out, size_t Begin, size_t End);

  /// Rows [Begin, End): Out(i, j) = X(i, j) > 0 ? GradOut(i, j) : 0.
  void (*ReluBackwardRows)(const Matrix &X, const Matrix &GradOut,
                           Matrix &Out, size_t Begin, size_t End);

  /// Rows [Begin, End): Out[i] = sum_j |A(i, j)|.
  void (*AbsRowSumsRows)(const Matrix &A, double *Out, size_t Begin,
                         size_t End);

  /// Columns [ColBegin, ColEnd): Out[j] += sum_i |A(i, j)| accumulated in
  /// ascending-row order per column (Out pre-zeroed).
  void (*AbsColumnSumsCols)(const Matrix &A, double *Out, size_t ColBegin,
                            size_t ColEnd);

  /// dot(A, B) over N entries — the matVec accumulation scheme.
  double (*Dot)(const double *A, const double *B, size_t N);

  /// Y[i] += A * X[i] over N entries — the matTVec/matMul update.
  void (*Saxpy)(double *Y, const double *X, double A, size_t N);

  /// The convTapBlock microkernel (Kernels.h); Fused selects
  /// TapArith::Dispatched.
  void (*ConvBlock)(const double *const *X, const size_t *Offsets,
                    const double *Weights, size_t Taps, size_t Channels,
                    const double *Init, bool Fused, double *Out);
};

/// The portable scalar backend (always available; the historical
/// accumulation contracts).
const SimdOps &scalarOps();

/// The AVX2 + FMA backend, or nullptr when this translation unit was built
/// without AVX2 codegen (non-x86 targets, compilers without -mavx2).
const SimdOps *avx2Ops();

/// The table for the currently selected SimdLevel.
const SimdOps &activeOps();

} // namespace detail
} // namespace kernels
} // namespace charon

#endif // CHARON_LINALG_SIMDOPSIMPL_H
