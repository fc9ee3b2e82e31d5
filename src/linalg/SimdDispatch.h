//===- SimdDispatch.h - Runtime SIMD backend selection -----------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime selection of the SIMD backend behind the linalg kernels. Every
/// kernel always has a scalar implementation (the historical accumulation
/// contracts, compiled everywhere); on x86-64 hosts with AVX2 + FMA an
/// explicit intrinsics backend can be selected instead.
///
/// Determinism contract per level:
///  - Elementwise kernels (reluBatch, reluBackwardBatch, scaleColumns,
///    gatherColumns) and absColumnSums are bit-identical across *all*
///    levels: they perform exactly one IEEE operation per element (or, for
///    absColumnSums, accumulate each column in ascending-row order at every
///    level).
///  - Reductions (matVec dots, matMulTransposed, affineBatch, absRowSums)
///    and saxpy-style products (matTVec, matMul) change their accumulation
///    grouping under AVX2/FMA, so results are bit-identical only *within* a
///    level. Within a level the pair contracts still hold exactly. The dot
///    scheme is a per-element tree, which the level's Dot defines (matVec)
///    and affineBatch computes for several outputs at once; the saxpy
///    scheme is a per-element chain over ascending k, which the level's
///    Saxpy defines (matTVec) and matMul may keep in registers. Neither
///    batched kernel regroups an element, so the per-point and batched
///    execution paths agree bit-for-bit at any level.
///  - The convolution microkernel convTapBlock runs one chain per lane in
///    tap order. With TapArith::Separate (the Conv2D forward) each term is
///    a multiply then an add at every level, bitwise equal across levels
///    and to the per-point tap loop. With TapArith::Dispatched (the input
///    gradient and the zonotope's generator rows) each term is the level's
///    saxpy update, fma at avx2, matching matMul and matMulTransposed
///    within the level.
///
/// The level is process-global: CHARON_SIMD=auto|avx2|scalar initializes it
/// (auto picks the best available backend), setSimdLevel() overrides it at
/// runtime (tests sweep it). Requesting an unavailable level is refused and
/// leaves the current level unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_LINALG_SIMDDISPATCH_H
#define CHARON_LINALG_SIMDDISPATCH_H

#include <vector>

namespace charon {

/// Numeric precision the *abstract-domain* kernels run at. Double is the
/// only mode; the enum stays so configs and digests keep their precision
/// field.
enum class KernelPrecision { Double };

namespace kernels {

/// SIMD backend identifiers, in increasing capability order.
enum class SimdLevel {
  Scalar, ///< portable scalar bodies (the historical contracts)
  Avx2    ///< AVX2 + FMA intrinsics (x86-64 only)
};

/// "scalar" / "avx2" (stable names used in CHARON_SIMD and bench JSON).
const char *simdLevelName(SimdLevel Level);

/// The currently active backend. Initialized on first use from CHARON_SIMD
/// ("auto", "avx2", "scalar"; unset or unrecognized values mean auto) and
/// clamped to what the build + host actually support.
SimdLevel simdLevel();

/// Selects \p Level for all subsequent kernel calls. Returns false (and
/// changes nothing) when the level is not available on this build/host.
bool setSimdLevel(SimdLevel Level);

/// Every level usable on this build + host, in increasing order. Always
/// contains at least SimdLevel::Scalar.
std::vector<SimdLevel> availableSimdLevels();

} // namespace kernels
} // namespace charon

#endif // CHARON_LINALG_SIMDDISPATCH_H
