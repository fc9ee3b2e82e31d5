//===- KernelsAvx2.cpp - AVX2 + FMA kernel backend --------------------------===//
//
// This translation unit is the only one compiled with -mavx2 -mfma (set
// per-file in src/linalg/CMakeLists.txt); everything else in the target
// stays at the base ISA. When the toolchain or target architecture cannot
// build AVX2 code the file degrades to a stub returning no backend, and the
// dispatch layer keeps running scalar.
//
// Scheme notes (see SimdOpsImpl.h for the contracts):
//  - The dot scheme is a per-element tree: four fma chains over 16-element
//    blocks, fixed 8- and 4-element drains, the hsum tree, then one scalar
//    fma per K % 4 leftover term. dotAvx2 defines it (Dot, hence matVec);
//    affineRowsAvx2 computes the same tree four outputs at a time, each X
//    load feeding two outputs and one hsum4 reducing four, so every dot at
//    this level has the same bits whichever public kernel asked for it.
//  - saxpyAvx2 defines the per-element chain: one fma per element (vector
//    body and scalar tail both), so each element of matTVec is one fma
//    chain over ascending k from +0.0, whatever its position. matMulRowsAvx2
//    keeps that chain in registers across the whole k loop (a panel of up
//    to 12 vectors of a C row, plus its N % 4 columns as a masked vector)
//    and stores each element once, with matTVec's bits.
//  - mmtRowsAvx2 packs eight B rows into an interleaved panel and runs a
//    4-row x 8-column broadcast microkernel (8 accumulators, 14 live
//    registers — small enough that GCC never spills). It only promises
//    determinism within this level, which frees it to run near the fma-port
//    peak on the generator-matrix product that dominates zonotope
//    propagation. Each output element accumulates through ONE sequential
//    fma chain in k order (broadcast A element x packed B lane), so the
//    result is independent of panel position, row grouping, and
//    thread-shard boundaries — no hsum epilogue, no blocking dependence.
//  - The elementwise bodies (scale/relu/relu-backward/abs-column-sums) are
//    bitwise equal to scalar: vector mul/max/and/add perform the same
//    single IEEE operation per element, and _mm256_max_pd(x, 0) returns
//    +0.0 for x in {-0.0, NaN} exactly like `x > 0.0 ? x : 0.0`.
//  - convBlockAvx2 without Fused is a vector multiply then a vector add,
//    bitwise equal to the scalar body. GCC fuses a multiply feeding an add
//    into an fma by default, intrinsics included, so this file is built with
//    -ffp-contract=off (src/linalg/CMakeLists.txt); every fma here is
//    written out.
//
//===----------------------------------------------------------------------===//

#include "linalg/SimdOpsImpl.h"

#if defined(__AVX2__) && defined(__FMA__) && \
    (defined(__x86_64__) || defined(_M_X64))

#include <algorithm>
#include <array>
#include <cmath>
#include <immintrin.h>
#include <utility>
#include <vector>

using namespace charon;
using namespace charon::kernels;

namespace {

/// Horizontal sum of a 4-lane accumulator: (lo + hi) pairwise, then the two
/// remaining lanes. Fixed tree, independent of surrounding code.
inline double hsum(__m256d V) {
  __m128d Lo = _mm256_castpd256_pd128(V);
  __m128d Hi = _mm256_extractf128_pd(V, 1);
  __m128d Pair = _mm_add_pd(Lo, Hi);
  __m128d Swap = _mm_unpackhi_pd(Pair, Pair);
  return _mm_cvtsd_f64(_mm_add_sd(Pair, Swap));
}

/// The one dot-product scheme at this level: four independent fma chains
/// over 16-element blocks, a fixed drain order for the 8/4-element tails,
/// the hsum tree above, then scalar fma for the remainder. Shared verbatim
/// by every caller that needs matVec-identical dots.
double dotAvx2(const double *A, const double *B, size_t N) {
  __m256d S0 = _mm256_setzero_pd();
  __m256d S1 = _mm256_setzero_pd();
  __m256d S2 = _mm256_setzero_pd();
  __m256d S3 = _mm256_setzero_pd();
  size_t I = 0;
  for (; I + 16 <= N; I += 16) {
    S0 = _mm256_fmadd_pd(_mm256_loadu_pd(A + I), _mm256_loadu_pd(B + I), S0);
    S1 = _mm256_fmadd_pd(_mm256_loadu_pd(A + I + 4), _mm256_loadu_pd(B + I + 4),
                         S1);
    S2 = _mm256_fmadd_pd(_mm256_loadu_pd(A + I + 8), _mm256_loadu_pd(B + I + 8),
                         S2);
    S3 = _mm256_fmadd_pd(_mm256_loadu_pd(A + I + 12),
                         _mm256_loadu_pd(B + I + 12), S3);
  }
  if (I + 8 <= N) {
    S0 = _mm256_fmadd_pd(_mm256_loadu_pd(A + I), _mm256_loadu_pd(B + I), S0);
    S1 = _mm256_fmadd_pd(_mm256_loadu_pd(A + I + 4), _mm256_loadu_pd(B + I + 4),
                         S1);
    I += 8;
  }
  if (I + 4 <= N) {
    S0 = _mm256_fmadd_pd(_mm256_loadu_pd(A + I), _mm256_loadu_pd(B + I), S0);
    I += 4;
  }
  double Sum = hsum(_mm256_add_pd(_mm256_add_pd(S0, S2), _mm256_add_pd(S1, S3)));
  for (; I < N; ++I)
    Sum = std::fma(A[I], B[I], Sum);
  return Sum;
}

/// Elementwise-position-independent saxpy: Y[i] = fma(A, X[i], Y[i]) via a
/// 4-wide vector body and a scalar std::fma tail.
void saxpyAvx2(double *Y, const double *X, double A, size_t N) {
  __m256d Av = _mm256_set1_pd(A);
  size_t I = 0;
  for (; I + 4 <= N; I += 4)
    _mm256_storeu_pd(
        Y + I, _mm256_fmadd_pd(Av, _mm256_loadu_pd(X + I),
                               _mm256_loadu_pd(Y + I)));
  for (; I < N; ++I)
    Y[I] = std::fma(A, X[I], Y[I]);
}

/// Packs eight B rows (j .. j+W-1, zero-filled past W) into an interleaved
/// K x 8 panel: P[k*8 + r] = B(j + r, k). The panel is contiguous, so the
/// microkernel's inner loop touches one dense 16 KB stream instead of eight
/// 2 KB-strided rows (which alias in the same L1 sets whenever the row
/// stride is a power of two — exactly the generator-matrix shapes).
void packPanelAvx2(const Matrix &B, size_t J, size_t W, double *P) {
  const size_t K = B.cols();
  for (size_t R = 0; R < 8; ++R) {
    if (R < W) {
      const double *Src = B.row(J + R);
      for (size_t Kk = 0; Kk < K; ++Kk)
        P[Kk * 8 + R] = Src[Kk];
    } else {
      for (size_t Kk = 0; Kk < K; ++Kk)
        P[Kk * 8 + R] = 0.0;
    }
  }
}

/// 4x8 microkernel over a packed panel: four A rows against eight packed B
/// columns, one 4-wide accumulator pair per row (8 accumulators). Per k:
/// two panel loads feed all eight fmas and each A element is a broadcast,
/// so the fma ports — not the load ports or an hsum epilogue — set the
/// pace. Every output element accumulates through the same sequential
/// k-order fma chain, so results are independent of row grouping, panel
/// position, and thread-shard boundaries; duplicated row pointers for
/// ragged edges reproduce exactly the value a full block would produce.
///
/// Stream=true writes the outputs with non-temporal stores: each C target
/// is one full 64-byte line written exactly once, so bypassing the
/// read-for-ownership saves a cache-line read per line of C — the dominant
/// cold-memory cost when C is a fresh multi-megabyte generator matrix. The
/// values stored are identical; callers fence once after the whole product.
template <bool Stream>
void mmt4x8Avx2(const double *A0, const double *A1, const double *A2,
                const double *A3, const double *P, size_t K, double *C0,
                double *C1, double *C2, double *C3) {
  __m256d S00 = _mm256_setzero_pd(), S01 = _mm256_setzero_pd();
  __m256d S10 = _mm256_setzero_pd(), S11 = _mm256_setzero_pd();
  __m256d S20 = _mm256_setzero_pd(), S21 = _mm256_setzero_pd();
  __m256d S30 = _mm256_setzero_pd(), S31 = _mm256_setzero_pd();
  // Unrolled by two to halve the loop-control overhead that competes with
  // the fma ports; both half-iterations feed the same accumulators in k
  // order, so the unroll does not change the per-element chain.
  size_t Kk = 0;
  for (; Kk + 2 <= K; Kk += 2) {
    __m256d P0 = _mm256_loadu_pd(P + Kk * 8);
    __m256d P1 = _mm256_loadu_pd(P + Kk * 8 + 4);
    __m256d V0 = _mm256_broadcast_sd(A0 + Kk);
    __m256d V1 = _mm256_broadcast_sd(A1 + Kk);
    __m256d V2 = _mm256_broadcast_sd(A2 + Kk);
    __m256d V3 = _mm256_broadcast_sd(A3 + Kk);
    S00 = _mm256_fmadd_pd(V0, P0, S00);
    S01 = _mm256_fmadd_pd(V0, P1, S01);
    S10 = _mm256_fmadd_pd(V1, P0, S10);
    S11 = _mm256_fmadd_pd(V1, P1, S11);
    S20 = _mm256_fmadd_pd(V2, P0, S20);
    S21 = _mm256_fmadd_pd(V2, P1, S21);
    S30 = _mm256_fmadd_pd(V3, P0, S30);
    S31 = _mm256_fmadd_pd(V3, P1, S31);
    __m256d Q0 = _mm256_loadu_pd(P + Kk * 8 + 8);
    __m256d Q1 = _mm256_loadu_pd(P + Kk * 8 + 12);
    __m256d U0 = _mm256_broadcast_sd(A0 + Kk + 1);
    __m256d U1 = _mm256_broadcast_sd(A1 + Kk + 1);
    __m256d U2 = _mm256_broadcast_sd(A2 + Kk + 1);
    __m256d U3 = _mm256_broadcast_sd(A3 + Kk + 1);
    S00 = _mm256_fmadd_pd(U0, Q0, S00);
    S01 = _mm256_fmadd_pd(U0, Q1, S01);
    S10 = _mm256_fmadd_pd(U1, Q0, S10);
    S11 = _mm256_fmadd_pd(U1, Q1, S11);
    S20 = _mm256_fmadd_pd(U2, Q0, S20);
    S21 = _mm256_fmadd_pd(U2, Q1, S21);
    S30 = _mm256_fmadd_pd(U3, Q0, S30);
    S31 = _mm256_fmadd_pd(U3, Q1, S31);
  }
  for (; Kk < K; ++Kk) {
    __m256d P0 = _mm256_loadu_pd(P + Kk * 8);
    __m256d P1 = _mm256_loadu_pd(P + Kk * 8 + 4);
    __m256d V0 = _mm256_broadcast_sd(A0 + Kk);
    __m256d V1 = _mm256_broadcast_sd(A1 + Kk);
    __m256d V2 = _mm256_broadcast_sd(A2 + Kk);
    __m256d V3 = _mm256_broadcast_sd(A3 + Kk);
    S00 = _mm256_fmadd_pd(V0, P0, S00);
    S01 = _mm256_fmadd_pd(V0, P1, S01);
    S10 = _mm256_fmadd_pd(V1, P0, S10);
    S11 = _mm256_fmadd_pd(V1, P1, S11);
    S20 = _mm256_fmadd_pd(V2, P0, S20);
    S21 = _mm256_fmadd_pd(V2, P1, S21);
    S30 = _mm256_fmadd_pd(V3, P0, S30);
    S31 = _mm256_fmadd_pd(V3, P1, S31);
  }
  if (Stream) {
    _mm256_stream_pd(C0, S00);
    _mm256_stream_pd(C0 + 4, S01);
    _mm256_stream_pd(C1, S10);
    _mm256_stream_pd(C1 + 4, S11);
    _mm256_stream_pd(C2, S20);
    _mm256_stream_pd(C2 + 4, S21);
    _mm256_stream_pd(C3, S30);
    _mm256_stream_pd(C3 + 4, S31);
  } else {
    _mm256_storeu_pd(C0, S00);
    _mm256_storeu_pd(C0 + 4, S01);
    _mm256_storeu_pd(C1, S10);
    _mm256_storeu_pd(C1 + 4, S11);
    _mm256_storeu_pd(C2, S20);
    _mm256_storeu_pd(C2 + 4, S21);
    _mm256_storeu_pd(C3, S30);
    _mm256_storeu_pd(C3 + 4, S31);
  }
}

/// Generator-matrix product via packed panels and the 4x8 microkernel.
/// Partial panels (N % 8) and ragged row edges (shard % 4) run the same
/// microkernel into scratch and copy out the live entries — the per-element
/// chain is position-independent, so the copied values are bitwise what a
/// full block would have produced.
void mmtRowsAvx2(const Matrix &A, const Matrix &B, Matrix &C, size_t RowOffset,
                 size_t Begin, size_t End) {
  const size_t K = A.cols();
  const size_t N = B.rows();
  std::vector<double> Panel(K * 8);
  double Scratch[4][8];
  // Matrix storage is 64-byte aligned, so every row (and every 8-column
  // panel offset within it) stays 32-byte aligned whenever the row stride
  // is a multiple of four doubles — the alignment condition for
  // non-temporal stores. Stream only destinations too big to profit from
  // staying cached (>= 512 KB, around a quarter of a typical L2): below
  // that, the ReLU/radii passes that read C next would pay DRAM latency
  // for lines the RFO bypass evicted.
  const bool Stream =
      C.rows() * C.cols() * sizeof(double) >= (size_t{1} << 19) &&
      C.cols() % 4 == 0 &&
      reinterpret_cast<uintptr_t>(C.row(0)) % 32 == 0;
  for (size_t J = 0; J < N; J += 8) {
    const size_t W = N - J < 8 ? N - J : 8;
    packPanelAvx2(B, J, W, Panel.data());
    size_t I = Begin;
    for (; I + 4 <= End; I += 4) {
      if (W == 8) {
        if (Stream)
          mmt4x8Avx2<true>(A.row(I), A.row(I + 1), A.row(I + 2), A.row(I + 3),
                           Panel.data(), K, C.row(RowOffset + I) + J,
                           C.row(RowOffset + I + 1) + J,
                           C.row(RowOffset + I + 2) + J,
                           C.row(RowOffset + I + 3) + J);
        else
          mmt4x8Avx2<false>(A.row(I), A.row(I + 1), A.row(I + 2), A.row(I + 3),
                            Panel.data(), K, C.row(RowOffset + I) + J,
                            C.row(RowOffset + I + 1) + J,
                            C.row(RowOffset + I + 2) + J,
                            C.row(RowOffset + I + 3) + J);
      } else {
        mmt4x8Avx2<false>(A.row(I), A.row(I + 1), A.row(I + 2), A.row(I + 3),
                          Panel.data(), K, Scratch[0], Scratch[1], Scratch[2],
                          Scratch[3]);
        for (size_t R = 0; R < 4; ++R)
          for (size_t Cc = 0; Cc < W; ++Cc)
            C.row(RowOffset + I + R)[J + Cc] = Scratch[R][Cc];
      }
    }
    if (I < End) {
      const size_t Left = End - I;
      const double *R0 = A.row(I);
      const double *R1 = A.row(I + (Left > 1 ? 1 : 0));
      const double *R2 = A.row(I + (Left > 2 ? 2 : 0));
      const double *R3 = A.row(I + (Left > 3 ? 3 : 0));
      mmt4x8Avx2<false>(R0, R1, R2, R3, Panel.data(), K, Scratch[0],
                        Scratch[1], Scratch[2], Scratch[3]);
      for (size_t R = 0; R < Left; ++R)
        for (size_t Cc = 0; Cc < W; ++Cc)
          C.row(RowOffset + I + R)[J + Cc] = Scratch[R][Cc];
    }
  }
  // Non-temporal stores are weakly ordered; fence once so the product is
  // globally visible before the thread-pool join publishes this shard.
  if (Stream)
    _mm_sfence();
}

/// Two outputs' dotAvx2 chains in one pass over X: per output the same S0-S3
/// over 16-element blocks and the same 8- and 4-element drains, so each X
/// load feeds both outputs. Returns each output's (S0 + S2) + (S1 + S3), the
/// vector dotAvx2 hands to hsum. Always inlined: as a call, the two vectors
/// it returns would go through memory.
[[gnu::always_inline]] inline void dotPairAvx2(const double *X,
                                               const double *W0,
                                               const double *W1, size_t K,
                                               __m256d &V0, __m256d &V1) {
  __m256d S0 = _mm256_setzero_pd(), T0 = _mm256_setzero_pd();
  __m256d S1 = _mm256_setzero_pd(), T1 = _mm256_setzero_pd();
  __m256d S2 = _mm256_setzero_pd(), T2 = _mm256_setzero_pd();
  __m256d S3 = _mm256_setzero_pd(), T3 = _mm256_setzero_pd();
  size_t I = 0;
  for (; I + 16 <= K; I += 16) {
    __m256d X0 = _mm256_loadu_pd(X + I);
    __m256d X1 = _mm256_loadu_pd(X + I + 4);
    __m256d X2 = _mm256_loadu_pd(X + I + 8);
    __m256d X3 = _mm256_loadu_pd(X + I + 12);
    S0 = _mm256_fmadd_pd(X0, _mm256_loadu_pd(W0 + I), S0);
    T0 = _mm256_fmadd_pd(X0, _mm256_loadu_pd(W1 + I), T0);
    S1 = _mm256_fmadd_pd(X1, _mm256_loadu_pd(W0 + I + 4), S1);
    T1 = _mm256_fmadd_pd(X1, _mm256_loadu_pd(W1 + I + 4), T1);
    S2 = _mm256_fmadd_pd(X2, _mm256_loadu_pd(W0 + I + 8), S2);
    T2 = _mm256_fmadd_pd(X2, _mm256_loadu_pd(W1 + I + 8), T2);
    S3 = _mm256_fmadd_pd(X3, _mm256_loadu_pd(W0 + I + 12), S3);
    T3 = _mm256_fmadd_pd(X3, _mm256_loadu_pd(W1 + I + 12), T3);
  }
  if (I + 8 <= K) {
    __m256d X0 = _mm256_loadu_pd(X + I);
    __m256d X1 = _mm256_loadu_pd(X + I + 4);
    S0 = _mm256_fmadd_pd(X0, _mm256_loadu_pd(W0 + I), S0);
    T0 = _mm256_fmadd_pd(X0, _mm256_loadu_pd(W1 + I), T0);
    S1 = _mm256_fmadd_pd(X1, _mm256_loadu_pd(W0 + I + 4), S1);
    T1 = _mm256_fmadd_pd(X1, _mm256_loadu_pd(W1 + I + 4), T1);
    I += 8;
  }
  if (I + 4 <= K) {
    __m256d X0 = _mm256_loadu_pd(X + I);
    S0 = _mm256_fmadd_pd(X0, _mm256_loadu_pd(W0 + I), S0);
    T0 = _mm256_fmadd_pd(X0, _mm256_loadu_pd(W1 + I), T0);
  }
  V0 = _mm256_add_pd(_mm256_add_pd(S0, S2), _mm256_add_pd(S1, S3));
  V1 = _mm256_add_pd(_mm256_add_pd(T0, T2), _mm256_add_pd(T1, T3));
}

/// hsum of four accumulators at once: lane j of the result is hsum(Vj),
/// bit for bit. The 128-bit halves add first (low + high), then the two
/// lanes left (first + second), the operands in hsum's order.
inline __m256d hsum4(__m256d V0, __m256d V1, __m256d V2, __m256d V3) {
  __m256d P02 = _mm256_add_pd(_mm256_permute2f128_pd(V0, V2, 0x20),
                              _mm256_permute2f128_pd(V0, V2, 0x31));
  __m256d P13 = _mm256_add_pd(_mm256_permute2f128_pd(V1, V3, 0x20),
                              _mm256_permute2f128_pd(V1, V3, 0x31));
  return _mm256_add_pd(_mm256_unpacklo_pd(P02, P13),
                       _mm256_unpackhi_pd(P02, P13));
}

/// Affine rows: every output element is dotAvx2 + bias, so the batched
/// path matches the per-point matVec at this level bit-for-bit. Four
/// outputs run at a time: two dotPairAvx2 passes, one hsum4, the K % 4
/// leftover terms as lane-wise fmas (dotAvx2's scalar tail, in its order),
/// and one vector bias add. Outputs past the last group of four call
/// dotAvx2 itself.
void affineRowsAvx2(const Matrix &X, const Matrix &W, const double *Bias,
                    Matrix &Out, size_t Begin, size_t End) {
  const size_t K = X.cols();
  const size_t N = W.rows();
  const size_t Tail = K - K % 4;
  for (size_t I = Begin; I < End; ++I) {
    const double *XRow = X.row(I);
    double *ORow = Out.row(I);
    size_t J = 0;
    for (; J + 4 <= N; J += 4) {
      const double *W0 = W.row(J);
      const double *W1 = W.row(J + 1);
      const double *W2 = W.row(J + 2);
      const double *W3 = W.row(J + 3);
      __m256d V0, V1, V2, V3;
      dotPairAvx2(XRow, W0, W1, K, V0, V1);
      dotPairAvx2(XRow, W2, W3, K, V2, V3);
      __m256d Sum = hsum4(V0, V1, V2, V3);
      for (size_t Kk = Tail; Kk < K; ++Kk)
        Sum = _mm256_fmadd_pd(_mm256_set1_pd(XRow[Kk]),
                              _mm256_set_pd(W3[Kk], W2[Kk], W1[Kk], W0[Kk]),
                              Sum);
      _mm256_storeu_pd(ORow + J, _mm256_add_pd(Sum, _mm256_loadu_pd(Bias + J)));
    }
    for (; J < N; ++J)
      ORow[J] = dotAvx2(XRow, W.row(J), K) + Bias[J];
  }
}

/// The widest register panel of a C row, in 4-wide vectors. Its 12
/// accumulators, the masked remainder's accumulator and load, the broadcast
/// and the mask take all 16 ymm registers, without a spill.
constexpr size_t MaxPanelVecs = 12;

/// Columns [J, J + 4 * Vecs) of one C row, and with Masked also the row's
/// last N % 4 columns as one masked vector, held in registers across the
/// whole k loop and stored once. Each element is saxpyAvx2's chain: one fma
/// per nonzero A entry in ascending k, starting from +0.0, so the values are
/// matTVec's bit for bit.
template <size_t Vecs, bool Masked>
void matMulPanelAvx2(const double *ARow, const Matrix &B, size_t J,
                     double *CRow) {
  const size_t NK = B.rows();
  const __m256i Mask = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(B.cols() % 4)),
      _mm256_setr_epi64x(0, 1, 2, 3));
  __m256d Acc[Vecs + 1];
#pragma GCC unroll 16
  for (size_t V = 0; V <= Vecs; ++V)
    Acc[V] = _mm256_setzero_pd();
  for (size_t K = 0; K < NK; ++K) {
    double Aik = ARow[K];
    if (Aik == 0.0)
      continue;
    const __m256d Av = _mm256_set1_pd(Aik);
    const double *BRow = B.row(K) + J;
#pragma GCC unroll 16
    for (size_t V = 0; V < Vecs; ++V)
      Acc[V] = _mm256_fmadd_pd(Av, _mm256_loadu_pd(BRow + 4 * V), Acc[V]);
    if (Masked)
      Acc[Vecs] = _mm256_fmadd_pd(
          Av, _mm256_maskload_pd(BRow + 4 * Vecs, Mask), Acc[Vecs]);
  }
#pragma GCC unroll 16
  for (size_t V = 0; V < Vecs; ++V)
    _mm256_storeu_pd(CRow + J + 4 * V, Acc[V]);
  if (Masked)
    _mm256_maskstore_pd(CRow + J + 4 * Vecs, Mask, Acc[Vecs]);
}

using MatMulPanelFn = void (*)(const double *, const Matrix &, size_t,
                               double *);

template <bool Masked, size_t... Vecs>
constexpr std::array<MatMulPanelFn, sizeof...(Vecs)>
matMulPanels(std::index_sequence<Vecs...>) {
  return {matMulPanelAvx2<Vecs, Masked>...};
}

/// Panel bodies indexed by their vector count, 0 through MaxPanelVecs.
constexpr auto FullPanels =
    matMulPanels<false>(std::make_index_sequence<MaxPanelVecs + 1>());
constexpr auto MaskedPanels =
    matMulPanels<true>(std::make_index_sequence<MaxPanelVecs + 1>());

/// Rows [Begin, End) of C = A * B. A row is cut into as few register panels
/// as fit, of at most MaxPanelVecs vectors and widths within one vector of
/// each other; the last one also carries the N % 4 remainder columns.
void matMulRowsAvx2(const Matrix &A, const Matrix &B, Matrix &C, size_t Begin,
                    size_t End) {
  const size_t NJ = B.cols();
  if (NJ == 0)
    return;
  const size_t Vecs = NJ / 4;
  const size_t Rem = NJ % 4;
  const size_t Panels =
      std::max<size_t>(1, (Vecs + MaxPanelVecs - 1) / MaxPanelVecs);
  for (size_t I = Begin; I < End; ++I) {
    const double *ARow = A.row(I);
    double *CRow = C.row(I);
    for (size_t P = 0; P < Panels; ++P) {
      const size_t V0 = Vecs * P / Panels;
      const size_t V1 = Vecs * (P + 1) / Panels;
      const bool Last = P + 1 == Panels;
      (Last && Rem != 0 ? MaskedPanels : FullPanels)[V1 - V0](ARow, B, 4 * V0,
                                                               CRow);
    }
  }
}

void scaleColumnsRowsAvx2(Matrix &A, const Vector &Scale, size_t Begin,
                          size_t End) {
  const double *S = Scale.data();
  const size_t NC = A.cols();
  for (size_t I = Begin; I < End; ++I) {
    double *Row = A.row(I);
    size_t J = 0;
    for (; J + 4 <= NC; J += 4)
      _mm256_storeu_pd(Row + J, _mm256_mul_pd(_mm256_loadu_pd(Row + J),
                                              _mm256_loadu_pd(S + J)));
    for (; J < NC; ++J)
      Row[J] *= S[J];
  }
}

void reluRowsAvx2(const Matrix &X, Matrix &Out, size_t Begin, size_t End) {
  const size_t NC = X.cols();
  const __m256d Zero = _mm256_setzero_pd();
  for (size_t I = Begin; I < End; ++I) {
    const double *Row = X.row(I);
    double *ORow = Out.row(I);
    size_t J = 0;
    for (; J + 4 <= NC; J += 4)
      _mm256_storeu_pd(ORow + J, _mm256_max_pd(_mm256_loadu_pd(Row + J), Zero));
    for (; J < NC; ++J)
      ORow[J] = Row[J] > 0.0 ? Row[J] : 0.0;
  }
}

void reluBackwardRowsAvx2(const Matrix &X, const Matrix &GradOut, Matrix &Out,
                          size_t Begin, size_t End) {
  const size_t NC = X.cols();
  const __m256d Zero = _mm256_setzero_pd();
  for (size_t I = Begin; I < End; ++I) {
    const double *Row = X.row(I);
    const double *GRow = GradOut.row(I);
    double *ORow = Out.row(I);
    size_t J = 0;
    for (; J + 4 <= NC; J += 4) {
      __m256d Mask = _mm256_cmp_pd(_mm256_loadu_pd(Row + J), Zero, _CMP_GT_OQ);
      _mm256_storeu_pd(ORow + J,
                       _mm256_and_pd(Mask, _mm256_loadu_pd(GRow + J)));
    }
    for (; J < NC; ++J)
      ORow[J] = Row[J] > 0.0 ? GRow[J] : 0.0;
  }
}

/// Column block of the radius reduction, vectorized *across* columns: each
/// column still receives its |entries| in ascending-row order with one add
/// per row, so the result is bitwise equal to the scalar body.
void absColumnSumsColsAvx2(const Matrix &A, double *Out, size_t ColBegin,
                           size_t ColEnd) {
  const size_t NR = A.rows();
  const __m256d SignMask = _mm256_set1_pd(-0.0);
  for (size_t I = 0; I < NR; ++I) {
    const double *Row = A.row(I);
    size_t J = ColBegin;
    for (; J + 4 <= ColEnd; J += 4)
      _mm256_storeu_pd(
          Out + J,
          _mm256_add_pd(_mm256_loadu_pd(Out + J),
                        _mm256_andnot_pd(SignMask, _mm256_loadu_pd(Row + J))));
    for (; J < ColEnd; ++J)
      Out[J] += std::fabs(Row[J]);
  }
}

/// The convTapBlock microkernel: eight accumulators (Ch channels by
/// V = 8 / Ch lane vectors); per tap, V vector loads and Ch weight
/// broadcasts. Fused runs each term as one fma, the saxpyAvx2 arithmetic;
/// otherwise a vector multiply then a vector add, the same two IEEE
/// operations per lane as the scalar body (this file is built with
/// -ffp-contract=off, so the compiler cannot fuse them).
template <size_t Ch, bool Fused>
void convBlockAvx2T(const double *const *X, const size_t *Offsets,
                    const double *Weights, size_t Taps, const double *Init,
                    double *Out) {
  constexpr size_t V = 8 / Ch;
  const double *Xv[V];
  __m256d Acc[Ch][V];
#pragma GCC unroll 4
  for (size_t Vi = 0; Vi < V; ++Vi)
    Xv[Vi] = X[Vi];
#pragma GCC unroll 4
  for (size_t J = 0; J < Ch; ++J)
#pragma GCC unroll 4
    for (size_t Vi = 0; Vi < V; ++Vi)
      Acc[J][Vi] = _mm256_set1_pd(Init[J]);
  for (size_t T = 0; T < Taps; ++T) {
    __m256d P[V];
#pragma GCC unroll 4
    for (size_t Vi = 0; Vi < V; ++Vi)
      P[Vi] = _mm256_loadu_pd(Xv[Vi] + Offsets[T]);
#pragma GCC unroll 4
    for (size_t J = 0; J < Ch; ++J) {
      __m256d Wj = _mm256_broadcast_sd(Weights + T * Ch + J);
#pragma GCC unroll 4
      for (size_t Vi = 0; Vi < V; ++Vi)
        Acc[J][Vi] = Fused ? _mm256_fmadd_pd(Wj, P[Vi], Acc[J][Vi])
                           : _mm256_add_pd(Acc[J][Vi], _mm256_mul_pd(Wj, P[Vi]));
    }
  }
#pragma GCC unroll 4
  for (size_t J = 0; J < Ch; ++J)
#pragma GCC unroll 4
    for (size_t Vi = 0; Vi < V; ++Vi)
      _mm256_storeu_pd(Out + (J * V + Vi) * 4, Acc[J][Vi]);
}

void convBlockAvx2(const double *const *X, const size_t *Offsets,
                   const double *Weights, size_t Taps, size_t Channels,
                   const double *Init, bool Fused, double *Out) {
  if (Channels == 4) {
    if (Fused)
      convBlockAvx2T<4, true>(X, Offsets, Weights, Taps, Init, Out);
    else
      convBlockAvx2T<4, false>(X, Offsets, Weights, Taps, Init, Out);
  } else if (Fused) {
    convBlockAvx2T<2, true>(X, Offsets, Weights, Taps, Init, Out);
  } else {
    convBlockAvx2T<2, false>(X, Offsets, Weights, Taps, Init, Out);
  }
}

const detail::SimdOps Avx2Table = {
    "avx2",
    mmtRowsAvx2,
    affineRowsAvx2,
    matMulRowsAvx2,
    scaleColumnsRowsAvx2,
    reluRowsAvx2,
    reluBackwardRowsAvx2,
    absColumnSumsColsAvx2,
    dotAvx2,
    saxpyAvx2,
    convBlockAvx2,
};

} // namespace

const charon::kernels::detail::SimdOps *charon::kernels::detail::avx2Ops() {
  return &Avx2Table;
}

#else // no AVX2 codegen for this target/toolchain

const charon::kernels::detail::SimdOps *charon::kernels::detail::avx2Ops() {
  return nullptr;
}

#endif
