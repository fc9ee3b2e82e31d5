//===- Kernels.cpp - Blocked/threaded dense kernels ------------------------===//
//
// Public kernels shard work with parallelFor and forward each shard to the
// active SIMD backend (SimdOpsImpl.h). The scalar bodies below are the
// historical accumulation contracts — they define bit-exactness for every
// layout/equivalence test.
//
//===----------------------------------------------------------------------===//

#include "linalg/Kernels.h"

#include "linalg/SimdOpsImpl.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>

using namespace charon;

namespace {

size_t envSize(const char *Name, size_t Default) {
  if (const char *Value = std::getenv(Name)) {
    char *End = nullptr;
    unsigned long long Parsed = std::strtoull(Value, &End, 10);
    if (End && End != Value)
      return static_cast<size_t>(Parsed);
  }
  return Default;
}

/// Default threshold: ~2 Mflop. ACAS-scale products (tens of dimensions,
/// at most a few hundred generators) stay well below it and run serial;
/// a 256-wide Dense layer over a 256-generator matrix is ~34 Mflop and
/// shards across the pool.
std::atomic<size_t> Threshold{envSize("CHARON_KERNEL_THRESHOLD", size_t{1}
                                                                     << 21)};

ThreadPool &kernelPool() {
  static ThreadPool Pool(kernels::kernelThreads());
  return Pool;
}

} // namespace

size_t kernels::parallelThreshold() {
  return Threshold.load(std::memory_order_relaxed);
}

void kernels::setParallelThreshold(size_t Flops) {
  Threshold.store(Flops, std::memory_order_relaxed);
}

unsigned kernels::kernelThreads() {
  static unsigned Count = [] {
    unsigned N = static_cast<unsigned>(envSize("CHARON_KERNEL_THREADS", 0));
    if (N == 0)
      N = std::thread::hardware_concurrency();
    return N == 0 ? 1u : N;
  }();
  return Count;
}

void kernels::parallelForSharded(
    size_t N, const std::function<void(size_t, size_t)> &Body) {
  size_t Shards = std::min<size_t>(kernelThreads(), N);
  kernelPool().parallelShards(Shards, [&Body, N, Shards](size_t S) {
    size_t Begin = N * S / Shards;
    size_t End = N * (S + 1) / Shards;
    if (Begin < End)
      Body(Begin, End);
  });
}

//===----------------------------------------------------------------------===//
// Scalar backend bodies (the historical accumulation contracts)
//===----------------------------------------------------------------------===//

namespace {

/// The scalar dot: one accumulator, ascending-k. Identical to the loop the
/// original matVec ran, and to each output element of mmtRowsScalar /
/// affineRowsScalar below.
double dotScalar(const double *A, const double *B, size_t N) {
  double Sum = 0.0;
  for (size_t I = 0; I < N; ++I)
    Sum += A[I] * B[I];
  return Sum;
}

/// The scalar saxpy: Y[i] += A * X[i], one mul + one add per element.
void saxpyScalar(double *Y, const double *X, double A, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Y[I] += A * X[I];
}

/// Row block [Begin, End) of C(RowOffset + i, j) = dot(A.row(i), B.row(j)).
/// The j-loop is unrolled by four with independent accumulators: four rows of
/// B stream against one resident row of A, and each dot still accumulates in
/// ascending-k order (bit-identical to matVec per row).
void mmtRowsScalar(const Matrix &A, const Matrix &B, Matrix &C,
                   size_t RowOffset, size_t Begin, size_t End) {
  const size_t K = A.cols();
  const size_t N = B.rows();
  for (size_t I = Begin; I < End; ++I) {
    const double *ARow = A.row(I);
    double *CRow = C.row(RowOffset + I);
    size_t J = 0;
    for (; J + 4 <= N; J += 4) {
      const double *B0 = B.row(J);
      const double *B1 = B.row(J + 1);
      const double *B2 = B.row(J + 2);
      const double *B3 = B.row(J + 3);
      double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
      for (size_t Kk = 0; Kk < K; ++Kk) {
        double Av = ARow[Kk];
        S0 += Av * B0[Kk];
        S1 += Av * B1[Kk];
        S2 += Av * B2[Kk];
        S3 += Av * B3[Kk];
      }
      CRow[J] = S0;
      CRow[J + 1] = S1;
      CRow[J + 2] = S2;
      CRow[J + 3] = S3;
    }
    for (; J < N; ++J)
      CRow[J] = dotScalar(ARow, B.row(J), K);
  }
}

/// Row block [Begin, End) of Out(i, j) = dot(X.row(i), W.row(j)) + b_j.
/// Same structure as mmtRowsScalar (resident X row, 4-wide j-unroll,
/// ascending-k accumulation); the bias lands after the full dot, the Dense
/// order.
void affineRowsScalar(const Matrix &X, const Matrix &W, const double *Bias,
                      Matrix &Out, size_t Begin, size_t End) {
  const size_t K = X.cols();
  const size_t N = W.rows();
  for (size_t I = Begin; I < End; ++I) {
    const double *XRow = X.row(I);
    double *ORow = Out.row(I);
    size_t J = 0;
    for (; J + 4 <= N; J += 4) {
      const double *W0 = W.row(J);
      const double *W1 = W.row(J + 1);
      const double *W2 = W.row(J + 2);
      const double *W3 = W.row(J + 3);
      double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
      for (size_t Kk = 0; Kk < K; ++Kk) {
        double Xv = XRow[Kk];
        S0 += Xv * W0[Kk];
        S1 += Xv * W1[Kk];
        S2 += Xv * W2[Kk];
        S3 += Xv * W3[Kk];
      }
      ORow[J] = S0 + Bias[J];
      ORow[J + 1] = S1 + Bias[J + 1];
      ORow[J + 2] = S2 + Bias[J + 2];
      ORow[J + 3] = S3 + Bias[J + 3];
    }
    for (; J < N; ++J)
      ORow[J] = dotScalar(XRow, W.row(J), K) + Bias[J];
  }
}

/// Rows [Begin, End) of C = A * B in i-k-j order with column panels: the
/// inner j-loop stays contiguous in both B and C, and panelling bounds the
/// active B working set. Per-element accumulation remains ascending in k
/// (panels reorder work across elements, never within one), from a +0.0
/// written over C's uninitialized panel first.
void matMulRowsScalar(const Matrix &A, const Matrix &B, Matrix &C,
                      size_t Begin, size_t End) {
  const size_t NK = A.cols();
  const size_t NJ = B.cols();
  constexpr size_t PanelCols = 256;
  for (size_t JB = 0; JB < NJ; JB += PanelCols) {
    size_t JE = std::min(NJ, JB + PanelCols);
    for (size_t I = Begin; I < End; ++I) {
      double *CRow = C.row(I);
      const double *ARow = A.row(I);
      std::fill(CRow + JB, CRow + JE, 0.0);
      for (size_t K = 0; K < NK; ++K) {
        double Aik = ARow[K];
        if (Aik == 0.0)
          continue;
        saxpyScalar(CRow + JB, B.row(K) + JB, Aik, JE - JB);
      }
    }
  }
}

void scaleColumnsRowsScalar(Matrix &A, const Vector &Scale, size_t Begin,
                            size_t End) {
  const double *S = Scale.data();
  for (size_t I = Begin; I < End; ++I) {
    double *Row = A.row(I);
    for (size_t J = 0, NC = A.cols(); J < NC; ++J)
      Row[J] *= S[J];
  }
}

void reluRowsScalar(const Matrix &X, Matrix &Out, size_t Begin, size_t End) {
  for (size_t I = Begin; I < End; ++I) {
    const double *Row = X.row(I);
    double *ORow = Out.row(I);
    for (size_t J = 0, NC = X.cols(); J < NC; ++J)
      ORow[J] = Row[J] > 0.0 ? Row[J] : 0.0;
  }
}

void reluBackwardRowsScalar(const Matrix &X, const Matrix &GradOut,
                            Matrix &Out, size_t Begin, size_t End) {
  for (size_t I = Begin; I < End; ++I) {
    const double *Row = X.row(I);
    const double *GRow = GradOut.row(I);
    double *ORow = Out.row(I);
    for (size_t J = 0, NC = X.cols(); J < NC; ++J)
      ORow[J] = Row[J] > 0.0 ? GRow[J] : 0.0;
  }
}

void absRowSumsRowsScalar(const Matrix &A, double *Out, size_t Begin,
                          size_t End) {
  for (size_t I = Begin; I < End; ++I) {
    const double *Row = A.row(I);
    double Sum = 0.0;
    for (size_t J = 0, NC = A.cols(); J < NC; ++J)
      Sum += std::fabs(Row[J]);
    Out[I] = Sum;
  }
}

/// Column block of the radius reduction: each column accumulates its
/// |entries| in ascending-row order — the layout-equivalence contract — so
/// column sharding and vector backends all produce bitwise-equal sums.
void absColumnSumsColsScalar(const Matrix &A, double *Out, size_t ColBegin,
                             size_t ColEnd) {
  const size_t NR = A.rows();
  for (size_t I = 0; I < NR; ++I) {
    const double *Row = A.row(I);
    for (size_t J = ColBegin; J < ColEnd; ++J)
      Out[J] += std::fabs(Row[J]);
  }
}

/// The scalar convTapBlock: multiply, then add, for both arithmetics (the
/// scalar saxpy is the same two operations).
void convBlockScalar(const double *const *X, const size_t *Offsets,
                     const double *Weights, size_t Taps, size_t Channels,
                     const double *Init, bool, double *Out) {
  const size_t Vectors = 8 / Channels;
  for (size_t J = 0; J < Channels; ++J)
    for (size_t L = 0; L < Vectors * 4; ++L)
      Out[J * Vectors * 4 + L] = Init[J];
  for (size_t T = 0; T < Taps; ++T) {
    for (size_t J = 0; J < Channels; ++J) {
      const double W = Weights[T * Channels + J];
      double *Acc = Out + J * Vectors * 4;
      for (size_t V = 0; V < Vectors; ++V)
        for (size_t L = 0; L < 4; ++L)
          Acc[V * 4 + L] += W * X[V][Offsets[T] + L];
    }
  }
}

const kernels::detail::SimdOps ScalarTable = {
    "scalar",
    mmtRowsScalar,
    affineRowsScalar,
    matMulRowsScalar,
    scaleColumnsRowsScalar,
    reluRowsScalar,
    reluBackwardRowsScalar,
    absRowSumsRowsScalar,
    absColumnSumsColsScalar,
    dotScalar,
    saxpyScalar,
    convBlockScalar,
};

} // namespace

const kernels::detail::SimdOps &kernels::detail::scalarOps() {
  return ScalarTable;
}

//===----------------------------------------------------------------------===//
// Public kernels (dispatch + sharding)
//===----------------------------------------------------------------------===//

void kernels::matMulTransposedInto(const Matrix &A, const Matrix &B, Matrix &C,
                                   size_t RowOffset) {
  assert(A.cols() == B.cols() && "matMulTransposed shape mismatch");
  assert(C.cols() == B.rows() && RowOffset + A.rows() <= C.rows() &&
         "matMulTransposed destination too small");
  const detail::SimdOps &Ops = detail::activeOps();
  parallelFor(A.rows(), 2 * A.cols() * B.rows(),
              [&A, &B, &C, RowOffset, &Ops](size_t Begin, size_t End) {
                Ops.MmtRows(A, B, C, RowOffset, Begin, End);
              });
}

Matrix kernels::matMulTransposed(const Matrix &A, const Matrix &B) {
  Matrix C = Matrix::uninit(A.rows(), B.rows());
  matMulTransposedInto(A, B, C, 0);
  return C;
}

Vector kernels::absRowSums(const Matrix &A) {
  Vector Out(A.rows());
  const detail::SimdOps &Ops = detail::activeOps();
  parallelFor(A.rows(), A.cols(), [&A, &Out, &Ops](size_t Begin, size_t End) {
    Ops.AbsRowSumsRows(A, Out.data(), Begin, End);
  });
  return Out;
}

Vector kernels::absColumnSums(const Matrix &A) {
  Vector Out(A.cols());
  double *OutData = Out.data();
  const detail::SimdOps &Ops = detail::activeOps();
  parallelFor(A.cols(), A.rows(),
              [&A, OutData, &Ops](size_t Begin, size_t End) {
                Ops.AbsColumnSumsCols(A, OutData, Begin, End);
              });
  return Out;
}

void kernels::scaleColumns(Matrix &A, const Vector &Scale) {
  assert(A.cols() == Scale.size() && "scaleColumns shape mismatch");
  const detail::SimdOps &Ops = detail::activeOps();
  parallelFor(A.rows(), A.cols(), [&A, &Scale, &Ops](size_t Begin, size_t End) {
    Ops.ScaleColumnsRows(A, Scale, Begin, End);
  });
}

Matrix kernels::affineBatch(const Matrix &X, const Matrix &W,
                            const Vector &Bias) {
  assert(X.cols() == W.cols() && "affineBatch shape mismatch");
  assert(Bias.size() == W.rows() && "affineBatch bias size mismatch");
  Matrix Out = Matrix::uninit(X.rows(), W.rows());
  const double *B = Bias.data();
  const detail::SimdOps &Ops = detail::activeOps();
  parallelFor(X.rows(), 2 * X.cols() * W.rows(),
              [&X, &W, B, &Out, &Ops](size_t Begin, size_t End) {
                Ops.AffineRows(X, W, B, Out, Begin, End);
              });
  return Out;
}

void kernels::convTapBlock(const double *const *X, const size_t *Offsets,
                           const double *Weights, size_t Taps,
                           size_t Channels, const double *Init, TapArith Arith,
                           double *Out) {
  assert((Channels == 2 || Channels == 4) && "convTapBlock channel count");
  detail::activeOps().ConvBlock(X, Offsets, Weights, Taps, Channels, Init,
                                Arith == TapArith::Dispatched, Out);
}

Matrix kernels::reluBatch(const Matrix &X) {
  Matrix Out = Matrix::uninit(X.rows(), X.cols());
  const detail::SimdOps &Ops = detail::activeOps();
  parallelFor(X.rows(), X.cols(), [&X, &Out, &Ops](size_t Begin, size_t End) {
    Ops.ReluRows(X, Out, Begin, End);
  });
  return Out;
}

Matrix kernels::reluBackwardBatch(const Matrix &X, const Matrix &GradOut) {
  assert(X.rows() == GradOut.rows() && X.cols() == GradOut.cols() &&
         "reluBackwardBatch shape mismatch");
  Matrix Out = Matrix::uninit(X.rows(), X.cols());
  const detail::SimdOps &Ops = detail::activeOps();
  parallelFor(X.rows(), X.cols(),
              [&X, &GradOut, &Out, &Ops](size_t Begin, size_t End) {
                Ops.ReluBackwardRows(X, GradOut, Out, Begin, End);
              });
  return Out;
}

Matrix kernels::poolMaxBatch(const Matrix &X,
                             const std::vector<std::vector<int>> &Pools) {
  Matrix Out(X.rows(), Pools.size());
  size_t Taps = 0;
  for (const std::vector<int> &Pool : Pools)
    Taps += Pool.size();
  parallelFor(X.rows(), Taps, [&X, &Pools, &Out](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I) {
      const double *Row = X.row(I);
      double *ORow = Out.row(I);
      for (size_t O = 0, NO = Pools.size(); O < NO; ++O) {
        const std::vector<int> &Pool = Pools[O];
        double Best = Row[Pool.front()];
        for (size_t P = 1, NP = Pool.size(); P < NP; ++P)
          Best = std::max(Best, Row[Pool[P]]);
        ORow[O] = Best;
      }
    }
  });
  return Out;
}

Matrix kernels::poolMaxBackwardBatch(const Matrix &X, const Matrix &GradOut,
                                     const std::vector<std::vector<int>> &Pools,
                                     size_t InputCols) {
  assert(X.rows() == GradOut.rows() && GradOut.cols() == Pools.size() &&
         X.cols() == InputCols && "poolMaxBackwardBatch shape mismatch");
  Matrix Out(X.rows(), InputCols);
  size_t Taps = 0;
  for (const std::vector<int> &Pool : Pools)
    Taps += Pool.size();
  parallelFor(
      X.rows(), Taps, [&X, &GradOut, &Pools, &Out](size_t Begin, size_t End) {
        for (size_t I = Begin; I < End; ++I) {
          const double *Row = X.row(I);
          const double *GRow = GradOut.row(I);
          double *ORow = Out.row(I);
          for (size_t O = 0, NO = Pools.size(); O < NO; ++O) {
            const std::vector<int> &Pool = Pools[O];
            int BestIdx = Pool.front();
            for (size_t P = 1, NP = Pool.size(); P < NP; ++P)
              if (Row[Pool[P]] > Row[BestIdx])
                BestIdx = Pool[P];
            ORow[BestIdx] += GRow[O];
          }
        }
      });
  return Out;
}

void kernels::gatherColumns(const Matrix &A, const std::vector<int> &SrcCol,
                            Matrix &Out) {
  assert(Out.rows() == A.rows() && Out.cols() == SrcCol.size() &&
         "gatherColumns shape mismatch");
  parallelFor(A.rows(), SrcCol.size(),
              [&A, &SrcCol, &Out](size_t Begin, size_t End) {
                for (size_t I = Begin; I < End; ++I) {
                  const double *Row = A.row(I);
                  double *OutRow = Out.row(I);
                  for (size_t O = 0, NO = SrcCol.size(); O < NO; ++O)
                    OutRow[O] = SrcCol[O] < 0 ? 0.0 : Row[SrcCol[O]];
                }
              });
}

//===----------------------------------------------------------------------===//
// Sparse one-hot tail kernels
//===----------------------------------------------------------------------===//

void kernels::oneHotMatMulInto(const std::vector<OneHot> &Sparse,
                               const Matrix &W, Matrix &C, size_t RowOffset) {
  assert(C.cols() == W.rows() && RowOffset + Sparse.size() <= C.rows() &&
         "oneHotMatMulInto destination too small");
  const size_t NR = W.rows();
  // Each output element is the single product Mag * W(R, Coord), so any loop
  // order gives bitwise-identical results; block the W rows by 8 so every
  // destination write fills one whole cache line while the 8 live W rows
  // (16 KB) stay L1-resident — the naive gen-outer order instead walks W by
  // column, one strided miss per element.
  parallelFor(Sparse.size(), NR,
              [&Sparse, &W, &C, RowOffset, NR](size_t Begin, size_t End) {
                for (size_t R0 = 0; R0 < NR; R0 += 8) {
                  const size_t R1 = R0 + 8 < NR ? R0 + 8 : NR;
                  for (size_t S = Begin; S < End; ++S) {
                    const OneHot &G = Sparse[S];
                    assert(G.Coord < W.cols() && "one-hot coordinate range");
                    double *Row = C.row(RowOffset + S);
                    for (size_t R = R0; R < R1; ++R)
                      Row[R] = G.Mag * W(R, G.Coord);
                  }
                }
              });
}

void kernels::oneHotRowSumsInto(const std::vector<OneHot> &Sparse, Vector &Out,
                                size_t RowOffset) {
  assert(RowOffset + Sparse.size() <= Out.size() &&
         "oneHotRowSumsInto destination too small");
  for (size_t S = 0, NS = Sparse.size(); S < NS; ++S)
    Out[RowOffset + S] = std::fabs(Sparse[S].Mag);
}

//===----------------------------------------------------------------------===//
// matVec / matTVec / matMul (declared in Matrix.h)
//===----------------------------------------------------------------------===//

Vector charon::matVec(const Matrix &A, const Vector &X) {
  assert(A.cols() == X.size() && "matVec shape mismatch");
  Vector Y(A.rows());
  const kernels::detail::SimdOps &Ops = kernels::detail::activeOps();
  const double *XData = X.data();
  for (size_t R = 0, NR = A.rows(); R < NR; ++R)
    Y[R] = Ops.Dot(A.row(R), XData, A.cols());
  return Y;
}

void kernels::axpy(double *Y, const double *X, double A, size_t N) {
  detail::activeOps().Saxpy(Y, X, A, N);
}

Vector charon::matTVec(const Matrix &A, const Vector &X) {
  assert(A.rows() == X.size() && "matTVec shape mismatch");
  Vector Y(A.cols());
  const kernels::detail::SimdOps &Ops = kernels::detail::activeOps();
  for (size_t R = 0, NR = A.rows(); R < NR; ++R) {
    double Xi = X[R];
    if (Xi == 0.0)
      continue;
    Ops.Saxpy(Y.data(), A.row(R), Xi, A.cols());
  }
  return Y;
}

Matrix charon::matMul(const Matrix &A, const Matrix &B) {
  assert(A.cols() == B.rows() && "matMul shape mismatch");
  Matrix C = Matrix::uninit(A.rows(), B.cols());
  const kernels::detail::SimdOps &Ops = kernels::detail::activeOps();
  kernels::parallelFor(A.rows(), 2 * A.cols() * B.cols(),
                       [&A, &B, &C, &Ops](size_t Begin, size_t End) {
                         Ops.MatMulRows(A, B, C, Begin, End);
                       });
  return C;
}
