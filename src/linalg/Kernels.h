//===- Kernels.h - Blocked/threaded dense kernels ---------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched linear-algebra kernels behind the abstract transformers: a
/// generator-matrix zonotope pushes all noise symbols through an affine layer
/// with one cache-blocked matrix product instead of one matVec per symbol.
///
/// Every kernel is deterministic for a fixed SIMD level (see
/// linalg/SimdDispatch.h for the runtime backend selection and the exact
/// cross-level bit-identity contract). At the scalar level each kernel
/// preserves the per-element accumulation order of its naive reference
/// (ascending k for products, ascending row for column sums), so results are
/// bit-identical to the unblocked single-threaded loops and deterministic
/// across thread counts. Threading shards output *rows* (or disjoint column
/// blocks for absColumnSums); no two shards touch the same output element.
///
/// Threshold model: a kernel runs single-threaded when its approximate flop
/// count is below parallelThreshold(), so ACAS-scale analyses (tens of
/// dimensions) never pay pool latency; large Dense+ReLU stacks shard across
/// the process-wide kernel ThreadPool. parallelFor is a template, so the
/// single-threaded case, which small networks take on every layer call,
/// runs the kernel body inline with no type-erased wrapper to allocate;
/// only the sharded case builds a std::function. Both knobs have env
/// overrides (CHARON_KERNEL_THRESHOLD, CHARON_KERNEL_THREADS) so the
/// sanitizer build can force the threaded paths on small fuzz networks.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_LINALG_KERNELS_H
#define CHARON_LINALG_KERNELS_H

#include "linalg/Matrix.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace charon {
namespace kernels {

/// Flop threshold below which kernels stay single-threaded. Initialized from
/// CHARON_KERNEL_THRESHOLD when set (values <= 1 force threading everywhere).
size_t parallelThreshold();

/// Overrides the threshold at runtime; 0 forces every kernel parallel.
void setParallelThreshold(size_t Flops);

/// Worker count of the kernel pool: CHARON_KERNEL_THREADS, else hardware
/// concurrency. 1 disables threading entirely.
unsigned kernelThreads();

/// The sharded case of parallelFor: runs Body over min(kernelThreads(), N)
/// contiguous shards of [0, N) on the kernel pool (the shard layout depends
/// only on N and the pool size, keeping runs deterministic).
void parallelForSharded(size_t N,
                        const std::function<void(size_t, size_t)> &Body);

/// Runs Body(Begin, End) over a partition of [0, N). Calls Body(0, N) on the
/// calling thread when N * CostPerItem < parallelThreshold() or the pool has
/// one thread; otherwise shards through parallelForSharded.
template <typename Fn>
void parallelFor(size_t N, size_t CostPerItem, Fn &&Body) {
  if (N == 0)
    return;
  if (kernelThreads() <= 1 ||
      N * std::max<size_t>(1, CostPerItem) < parallelThreshold()) {
    Body(size_t{0}, N);
    return;
  }
  parallelForSharded(N, Body);
}

/// C = A * B^T without materializing the transpose: A is M x K, B is N x K,
/// C is M x N with C(i,j) = dot(A.row(i), B.row(j)). This is the zonotope
/// generator update NewG = G * W^T — both operands are traversed row-major.
Matrix matMulTransposed(const Matrix &A, const Matrix &B);

/// Writes A * B^T into rows [RowOffset, RowOffset + A.rows()) of \p C, which
/// must already have B.rows() columns. Lets callers compute into a larger
/// preallocated block (e.g. dense generators above a materialized sparse
/// tail) without a copy.
void matMulTransposedInto(const Matrix &A, const Matrix &B, Matrix &C,
                          size_t RowOffset);

/// Per-row L1 norms: Out[i] = sum_j |A(i, j)|. For a generator matrix this
/// is each noise symbol's total magnitude (the compaction criterion).
Vector absRowSums(const Matrix &A);

/// Per-column L1 norms: Out[j] = sum_i |A(i, j)|. For a generator matrix
/// this is the per-coordinate deviation radius. Sharded by *column* blocks:
/// every column accumulates its |entries| in ascending-row order within its
/// shard, so the result is bit-identical to the single-threaded row-major
/// pass (the layout-equivalence contract) at every thread count and SIMD
/// level.
Vector absColumnSums(const Matrix &A);

/// A(i, j) *= Scale[j] for every row — the batched ReLU rescaling (Scale
/// holds 1, 0, or lambda per coordinate). One contiguous sweep, sharded by
/// rows.
void scaleColumns(Matrix &A, const Vector &Scale);

/// Out(i, o) = SrcCol[o] < 0 ? 0 : A(i, SrcCol[o]) for every row. The
/// batched max-pool gather: each output coordinate copies its dominant input
/// column or starts at zero for interval-hull fallback windows. \p Out must
/// be pre-sized to A.rows() x SrcCol.size().
void gatherColumns(const Matrix &A, const std::vector<int> &SrcCol,
                   Matrix &Out);

/// Y[i] += A * X[i] through the active dispatch table's saxpy — the same
/// elementwise accumulation matTVec and matMul are built from, so a caller
/// that uses it stays bit-identical to them at every SIMD level.
void axpy(double *Y, const double *X, double A, size_t N);

//===----------------------------------------------------------------------===//
// Sparse one-hot tail kernels
//===----------------------------------------------------------------------===//

/// A one-hot generator row: magnitude \p Mag at coordinate \p Coord, zero
/// everywhere else. ZonotopeElement keeps freshly introduced noise symbols
/// in this form so the tail never costs a dense row until a transformer
/// genuinely mixes coordinates.
struct OneHot {
  size_t Coord;
  double Mag;
};

/// Writes the affine image of each one-hot generator into \p C without
/// materializing the one-hot rows: C(RowOffset + s, r) = Sparse[s].Mag *
/// W(r, Sparse[s].Coord). One multiply per output element (bit-identical at
/// every SIMD level); sharded across generators.
void oneHotMatMulInto(const std::vector<OneHot> &Sparse, const Matrix &W,
                      Matrix &C, size_t RowOffset);

/// Per-generator L1 norms of the one-hot tail: Out[RowOffset + s] =
/// |Sparse[s].Mag| (each virtual row has a single entry). The sparse
/// counterpart of absRowSums.
void oneHotRowSumsInto(const std::vector<OneHot> &Sparse, Vector &Out,
                       size_t RowOffset);

//===----------------------------------------------------------------------===//
// Batched concrete execution (rows = batch points)
//===----------------------------------------------------------------------===//

/// Batched affine layer application: Out(i, j) = dot(X.row(i), W.row(j)) + b_j
/// with the bias added after the full dot — the Dense order (matVec, then
/// Y += B). X is B x K (one input point per row), W is N x K, Out is B x N.
/// Each dot accumulates in the active level's dot scheme (the one matVec
/// uses), so every output element is bit-identical to the per-point pass.
/// Sharded by batch rows.
Matrix affineBatch(const Matrix &X, const Matrix &W, const Vector &Bias);

/// How one convolution tap meets its accumulator in convTapBlock.
enum class TapArith {
  /// A separately rounded multiply, then an add, at every SIMD level: the
  /// arithmetic of the per-point Conv2D tap loop.
  Separate,
  /// The active level's saxpy update: one fma at avx2, multiply then add at
  /// scalar. matMul and matMulTransposed accumulate every term this way.
  Dispatched,
};

/// The direct-convolution microkernel: \p Channels (2 or 4) output
/// channels by V = 8 / Channels 4-lane vectors, vector v read from X[v].
/// For channel j, vector v and lane l, Out[(j * V + v) * 4 + l] starts at
/// Init[j] and then takes, for T = 0 .. Taps-1 in order, the term
/// Weights[T * Channels + j] * X[v][Offsets[T] + l]. Every lane is one
/// sequential chain, so a value depends only on its own terms, never on
/// the lanes or channels beside it.
void convTapBlock(const double *const *X, const size_t *Offsets,
                  const double *Weights, size_t Taps, size_t Channels,
                  const double *Init, TapArith Arith, double *Out);

/// Batched ReLU forward: Out(i, j) = X(i, j) > 0 ? X(i, j) : 0, replicating
/// the scalar tie-break at exactly zero.
Matrix reluBatch(const Matrix &X);

/// Batched ReLU backward: Out(i, j) = X(i, j) > 0 ? GradOut(i, j) : 0, where
/// \p X is the input the forward pass saw.
Matrix reluBackwardBatch(const Matrix &X, const Matrix &GradOut);

/// Batched max-pool forward over \p Pools (one flat-index list per output
/// coordinate): Out(i, o) = max over Pools[o] of X(i, idx), initialized from
/// the first window element and folded left with std::max in window order —
/// the exact scalar comparison sequence.
Matrix poolMaxBatch(const Matrix &X,
                    const std::vector<std::vector<int>> &Pools);

/// Batched max-pool backward: routes GradOut(i, o) to the *first* argmax of
/// window \p Pools[o] in row i (strict > scan, matching the scalar layer),
/// accumulating into a zero matrix of \p InputCols columns.
Matrix poolMaxBackwardBatch(const Matrix &X, const Matrix &GradOut,
                            const std::vector<std::vector<int>> &Pools,
                            size_t InputCols);

} // namespace kernels
} // namespace charon

#endif // CHARON_LINALG_KERNELS_H
