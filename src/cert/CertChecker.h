//===- CertChecker.h - Standalone certificate validation --------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Re-validates a ProofCertificate against a network and property without
/// running search. The checker's trusted computing base is deliberately
/// small — the abstract transformers (Analyzer) and the concrete forward
/// pass (objectiveBatch) — and excludes everything a certificate makes
/// redundant: the PGD search, the policies, the frontier, the scheduler,
/// and the service. Its obligations:
///
///  1. Guards: the certificate's network fingerprint and property digest
///     must match the given query; delta must be positive; the root must
///     cover exactly the property region. (A config-digest mismatch is
///     *not* a rejection — a valid proof is valid no matter which config
///     found it — but checkers report it so cache layers can decide.)
///  2. Structure: node paths are unique; every non-root node's parent
///     exists and is a split node; every split node has both children.
///     With the root present this makes the node set a binary tree.
///  3. Tiling: each split node's children partition it exactly — same
///     bounds except along the split dimension, where lower child's upper
///     and upper child's lower both equal the recorded cut, strictly
///     inside the parent's interval. By induction the leaves cover the
///     property region exactly.
///  4. Verified leaves: replay analyzeRobustness under the recorded
///     domain; the recomputed margin must be positive and dominate the
///     recorded one (recomputed + MarginSlack >= recorded). Inflating a
///     recorded bound is therefore detected.
///  5. Falsified leaves: the counterexample lies inside the leaf's region
///     and its objective, recomputed through the batched concrete engine,
///     is at most delta (+ ObjectiveSlack).
///  6. Verdict: Verified requires every leaf to be a verified leaf (no
///     pruned, no falsified). Falsified requires at least one falsified
///     leaf. Unjustified (pruned) leaves are legal only under Falsified,
///     where a single valid counterexample decides the property.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_CERT_CERTCHECKER_H
#define CHARON_CERT_CERTCHECKER_H

#include "cert/Certificate.h"

#include <string>
#include <vector>

namespace charon {

/// Checker knobs. The defaults demand exact domination: replays run the
/// same deterministic transformers that produced the certificate, so a
/// certificate produced by this binary revalidates with zero slack.
/// Cross-version or cross-platform checking may need small slacks. Each
/// slack must be finite and >= 0; checkCertificate rejects any certificate
/// under a config whose slack is not.
struct CertCheckConfig {
  /// Accept a verified leaf when recomputed margin + MarginSlack >= the
  /// recorded margin.
  double MarginSlack = 0.0;
  /// Accept a falsified leaf when its recomputed objective is at most
  /// delta + ObjectiveSlack.
  double ObjectiveSlack = 0.0;
  /// Stop collecting error messages after this many (the verdict is
  /// already Rejected; the rest is triage detail).
  size_t MaxErrors = 8;
};

/// What the checker concluded, with enough counters to report how much
/// re-derivation backed the acceptance.
struct CertCheckReport {
  bool Accepted = false;
  /// The certificate's config digest differs from none/some given config;
  /// filled by callers that know the querying config (informational).
  std::vector<std::string> Errors;
  long SplitNodes = 0;
  long VerifiedLeaves = 0;
  long FalsifiedLeaves = 0;
  long PrunedNodes = 0;
  long Reanalyses = 0; ///< abstract replays run (== VerifiedLeaves when accepted)
  long CexReplays = 0; ///< counterexamples replayed through objectiveBatch
};

/// Validates \p Cert as a proof of \p Cert.Verdict for (\p Net, \p Prop).
/// Runs the full obligation list above; Accepted is true iff every
/// obligation holds.
CertCheckReport checkCertificate(const Network &Net,
                                 const RobustnessProperty &Prop,
                                 const ProofCertificate &Cert,
                                 const CertCheckConfig &Cfg = CertCheckConfig());

} // namespace charon

#endif // CHARON_CERT_CERTCHECKER_H
