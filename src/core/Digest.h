//===- Digest.h - Content digests for networks, properties, configs -*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stable 64-bit content digests used by the verification service layer:
/// a network fingerprint (layer shapes + weights), a property digest
/// (region bounds + target class), and a verifier-config digest (every
/// field that can change verify()'s verdict). All three are FNV-1a over
/// the exact bit patterns, so they are stable across runs and processes
/// and identical content always collides deliberately — the foundation of
/// result-cache keys and network deduplication.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_CORE_DIGEST_H
#define CHARON_CORE_DIGEST_H

#include "core/Property.h"
#include "core/Verifier.h"
#include "nn/Network.h"

#include <cstdint>
#include <string_view>

namespace charon {

/// Incremental 64-bit FNV-1a hasher.
class Fnv1a {
public:
  /// Absorbs \p Len raw bytes.
  Fnv1a &bytes(const void *Data, size_t Len);

  /// Absorbs an unsigned integer (little-endian byte order).
  Fnv1a &u64(uint64_t V);

  /// Absorbs a double's bit pattern; -0.0 is normalized to 0.0 so equal
  /// values hash equally.
  Fnv1a &f64(double V);

  /// Absorbs a string's length and bytes (length-prefixing keeps "ab","c"
  /// distinct from "a","bc").
  Fnv1a &str(std::string_view S);

  /// The digest of everything absorbed so far.
  uint64_t digest() const { return State; }

private:
  uint64_t State = 0xcbf29ce484222325ull;
};

/// Content fingerprint of a network: layer kinds, shapes, and parameters.
/// Two networks with identical architecture and bit-identical weights get
/// the same fingerprint regardless of how they were constructed or what
/// file they were loaded from, so a registry can dedupe them and cache
/// keys survive process restarts.
uint64_t fingerprintNetwork(const Network &Net);

/// Digest of a robustness property: region bounds and target class. The
/// display name is deliberately excluded — two queries about the same
/// region and class are the same query.
uint64_t digestProperty(const RobustnessProperty &Prop);

/// Digest of every VerifierConfig field that can influence the verdict or
/// the counterexample (delta, budget, depth cap, optimizer kind and
/// hyperparameters, seed), plus removed settings at their former defaults
/// so that persisted digests keep their values. CancelRequested, the trace
/// sink, and EmitCertificate are excluded entirely: the first can only
/// truncate a run to Timeout and the others only observe it; none changes
/// a verdict.
uint64_t digestVerifierConfig(const VerifierConfig &Config);

/// Budget-free variant of digestVerifierConfig: every field above except
/// the wall-clock budget (TimeLimitSeconds) and the depth cap (MaxDepth),
/// which can only truncate a run to Timeout, never flip a completed
/// verdict. This is the digest a SearchCheckpoint carries — resuming an
/// interrupted search under a fresh (or larger) budget is the whole point,
/// so budgets must not invalidate the checkpoint.
uint64_t digestVerifierConfigSemantics(const VerifierConfig &Config);

} // namespace charon

#endif // CHARON_CORE_DIGEST_H
