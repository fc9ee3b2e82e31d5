//===- Verifier.h - The Charon decision procedure (Algorithm 1) ---*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1 of the paper with the delta-modification of Eq. 4: interleave
/// PGD counterexample search with abstract-interpretation proof attempts,
/// refining the input region with policy-chosen splits. The procedure is
/// sound and delta-complete (Theorems 5.2 and 5.4): it returns Verified only
/// for truly robust regions, and every non-Verified answer within budget
/// carries a delta-counterexample (Definition 5.3).
///
/// Both drivers — the sequential verify() and the ThreadPool-backed
/// verifyParallel() — are thin wrappers over the explicit proof-search
/// engine in src/search/: one shared node-expansion path, path-derived
/// per-node RNG seeds (so serial and parallel runs return bit-identical
/// verdicts, counterexamples, and objectives), one DFS-ordered open set,
/// resumable checkpoints on Timeout, and structured per-node trace events.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_CORE_VERIFIER_H
#define CHARON_CORE_VERIFIER_H

#include "core/Policy.h"
#include "core/Property.h"
#include "linalg/SimdDispatch.h"
#include "nn/Network.h"
#include "opt/Pgd.h"
#include "search/Trace.h"
#include "support/Timer.h"

#include <functional>
#include <memory>

namespace charon {
class ThreadPool;
struct SearchCheckpoint;
struct ProofCertificate;

/// Verdict of a verification run.
enum class Outcome { Verified, Falsified, Timeout };

/// Printable name of an outcome.
const char *toString(Outcome O);

/// Counters describing one verification run.
struct VerifyStats {
  long PgdCalls = 0;
  long AnalyzeCalls = 0;
  long Splits = 0;
  long MaxDepth = 0;
  long IntervalChoices = 0;
  long ZonotopeChoices = 0;
  long DisjunctSum = 0; ///< sum of chosen disjunct budgets over Analyze calls
  long NodesExpanded = 0; ///< proof-tree nodes whose expansion completed
  double Seconds = 0.0;

  /// Merges another run's (or node's) counters: counts and Seconds add,
  /// MaxDepth takes the max. Used by the parallel driver, the service
  /// batch reporter, and the bench aggregators.
  VerifyStats &operator+=(const VerifyStats &O) {
    PgdCalls += O.PgdCalls;
    AnalyzeCalls += O.AnalyzeCalls;
    Splits += O.Splits;
    MaxDepth = MaxDepth > O.MaxDepth ? MaxDepth : O.MaxDepth;
    IntervalChoices += O.IntervalChoices;
    ZonotopeChoices += O.ZonotopeChoices;
    DisjunctSum += O.DisjunctSum;
    NodesExpanded += O.NodesExpanded;
    Seconds += O.Seconds;
    return *this;
  }
};

/// Result of a verification run. Counterexample is populated iff
/// Result == Falsified, and then satisfies F(x) <= Delta (delta-
/// completeness: it is a true counterexample or within delta of one).
/// Checkpoint is populated iff Result == Timeout: every Timeout, whether
/// from the deadline, CancelRequested, or the MaxDepth cap, captures the
/// open frontier and accumulated stats so a later call can resume the
/// search where it stopped (see search/Checkpoint.h).
/// Certificate is populated iff VerifierConfig::EmitCertificate was set
/// and the verdict is decided and checkable (see cert/Certificate.h):
/// every decided verdict of a fresh run certifies, and a checkpoint-resumed
/// run certifies Falsified via a single-counterexample certificate. A
/// resumed Verified verdict stays uncertified: its pre-timeout subtree is
/// not part of this run's tree.
struct VerifyResult {
  Outcome Result = Outcome::Timeout;
  Vector Counterexample;
  double ObjectiveAtCex = 0.0;
  VerifyStats Stats;
  std::shared_ptr<const SearchCheckpoint> Checkpoint;
  std::shared_ptr<const ProofCertificate> Certificate;
};

/// Which gradient-based optimizer drives the counterexample search. The
/// paper uses PGD but notes any gradient method fits (Sec. 8); FGSM is the
/// classic cheap single-step alternative.
enum class CexSearchKind { Pgd, Fgsm };

/// Verifier configuration.
struct VerifierConfig {
  /// Eq. 4 threshold: refute when F(x*) <= Delta. Must be > 0 for the
  /// termination guarantee (Theorem 5.2); smaller is more precise.
  double Delta = 1e-6;
  /// Wall-clock budget per property; <= 0 means unlimited.
  double TimeLimitSeconds = -1.0;
  /// Hard cap on refinement depth (safety net far above what Theorem 5.2
  /// predicts for sane inputs).
  int MaxDepth = 400;
  /// PGD settings for the counterexample search at every node.
  PgdConfig Pgd;
  /// Optimizer used for the search (PGD by default; FGSM is cheaper and
  /// weaker — refinement compensates by handing it smaller regions).
  CexSearchKind Optimizer = CexSearchKind::Pgd;
  /// Disable the counterexample search (ablation: proof search only, like
  /// a refinement-only verifier). Falsification becomes impossible.
  bool UseCounterexampleSearch = true;
  /// RNG seed. Each proof-tree node derives its own seed from this value
  /// and its split path, so randomness is independent of scheduling.
  uint64_t Seed = 7;

  /// Kernel precision of the abstract-domain legs. Double is the only
  /// value; the field stays digested so every config digest, and with it
  /// every persisted cache log, checkpoint and certificate, keeps its key.
  KernelPrecision Precision = KernelPrecision::Double;

  /// Optional per-node-expansion event sink (see search/Trace.h). May be
  /// called concurrently by verifyParallel; sinks must be thread-safe.
  TraceSink Trace;

  /// Optional cooperative cancellation hook, polled at the same scheduling
  /// points as the deadline. When it returns true the run stops with
  /// Outcome::Timeout (sound: no verdict is fabricated) and carries a
  /// resumable checkpoint. The service layer wires per-job cancel flags
  /// through this.
  std::function<bool()> CancelRequested;

  /// Emit a ProofCertificate alongside decided verdicts (see the
  /// VerifyResult doc). Excluded from the config digests: a certificate
  /// records the run, it never changes a verdict.
  bool EmitCertificate = false;
};

/// The Charon verifier: couples optimization-based counterexample search
/// with policy-guided abstraction refinement.
class Verifier {
public:
  Verifier(const Network &Net, VerificationPolicy Policy,
           VerifierConfig Config = VerifierConfig());

  /// Decides the robustness property (Algorithm 1). Sequential. When
  /// \p Resume points at a checkpoint from an earlier Timeout on the same
  /// (network, property, config-modulo-budget) query, the search continues
  /// from that frontier instead of the root; an incompatible checkpoint is
  /// ignored and the search starts fresh.
  VerifyResult verify(const RobustnessProperty &Prop,
                      const SearchCheckpoint *Resume = nullptr) const;

  /// Parallel variant: independent node expansions run on \p Pool (Sec. 6,
  /// "Parallelization"). Per-node path-derived seeds plus the DFS-earliest
  /// falsification rule make the verdict, counterexample, and objective
  /// bit-identical to verify() on runs that finish within budget.
  VerifyResult verifyParallel(const RobustnessProperty &Prop,
                              ThreadPool &Pool,
                              const SearchCheckpoint *Resume = nullptr) const;

  const VerifierConfig &config() const { return Config; }
  const VerificationPolicy &policy() const { return Policy; }

private:
  const Network &Net;
  VerificationPolicy Policy;
  VerifierConfig Config;
};

} // namespace charon

#endif // CHARON_CORE_VERIFIER_H
