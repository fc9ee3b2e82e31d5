//===- Oracles.h - Soundness and metamorphic fuzzing oracles -----*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The properties the fuzzer checks on every generated (network, property)
/// case. Each oracle encodes a theorem the codebase claims:
///
///  - Containment (soundness of abstract transformers): a concrete run from
///    any point of the input region must land inside the abstract output,
///    for every domain. An escape is a transformer soundness bug — exactly
///    the class of bug Theorems 5.2/5.4 silently inherit.
///  - Counterexample validity (delta-completeness, Definition 5.3):
///    Falsified must come with a point inside the region whose objective is
///    at most Delta.
///  - Subregion monotonicity: Verified on I implies no subregion of I may
///    be Falsified, and a true counterexample point can never lie inside a
///    Verified region.
///  - Verdict agreement: verify(), verifyParallel(), and the
///    VerificationService path must never contradict each other, and the
///    service path must be bit-identical to verify() (its documented
///    contract).
///  - Powerset precision: the bounded powerset of a base domain must bound
///    the robustness margin at least as tightly as the base domain alone
///    (case splits may only add precision, Sec. 2.3 / Example 2.3).
///  - Certificate production: every decided verdict emitted with
///    EmitCertificate must carry a byte-stable certificate the standalone
///    checker accepts, and tampered copies of it must be rejected.
///
/// Oracles return the empty vector on success. Fault injection (pretending
/// the abstract bounds are tighter than reported) lets tests verify the
/// oracles actually catch unsound transformers.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_FUZZ_ORACLES_H
#define CHARON_FUZZ_ORACLES_H

#include "abstract/Analyzer.h"
#include "core/Policy.h"
#include "core/Property.h"
#include "core/Verifier.h"
#include "nn/Network.h"

#include <string>
#include <vector>

namespace charon {
class Rng;

/// One oracle failure: which oracle fired and a human-readable account of
/// the escape (inputs, bounds, verdicts) precise enough to debug from.
struct OracleViolation {
  std::string Oracle;  ///< e.g. "containment:Zonotope^2"
  std::string Message; ///< detail with the offending values
};

/// Knobs shared by every oracle. All fields are persisted into repro files
/// so a replay re-runs the exact same checks.
struct OracleConfig {
  /// Concrete points sampled per containment check (the region center and
  /// a few random corners are always included on top of these).
  int ContainmentSamples = 24;
  /// Random subregions tried by the monotonicity oracle.
  int SubregionTrials = 3;
  /// Relative numeric slack for strict inequalities. Abstract transformers
  /// round to nearest (not outward), so exact arithmetic escapes below this
  /// scale are expected float noise, not soundness bugs.
  double Tolerance = 1e-7;
  /// Verifier settings used by the metamorphic oracles.
  double Delta = 1e-6;
  double VerifyBudgetSeconds = 1.0;
  uint64_t VerifierSeed = 7;
  /// Fault injection: report every abstract bound tightened by this amount.
  /// Zero for real campaigns; positive values simulate an unsound
  /// transformer so tests can prove the oracles catch one.
  double InjectTighten = 0.0;
};

/// Containment oracle: propagates \p Region through \p Net under \p Spec
/// and asserts every sampled concrete execution lands inside the abstract
/// output (per-coordinate bounds and all pairwise difference bounds).
std::vector<OracleViolation>
checkContainment(const Network &Net, const Box &Region, const DomainSpec &Spec,
                 const OracleConfig &Cfg, Rng &R);

/// Counterexample oracle: if \p Result is Falsified, its counterexample
/// must lie inside the property region and satisfy F(x) <= Delta.
std::vector<OracleViolation>
checkCounterexample(const Network &Net, const RobustnessProperty &Prop,
                    const VerifyResult &Result, const OracleConfig &Cfg);

/// Monotonicity oracle: given \p Full (the verdict on the full region),
/// checks random subregions for Verified -> not-Falsified, and that a true
/// counterexample point is never inside a region that verifies.
std::vector<OracleViolation>
checkSubregionMonotonicity(const Network &Net, const RobustnessProperty &Prop,
                           const VerifyResult &Full,
                           const VerificationPolicy &Policy,
                           const OracleConfig &Cfg, Rng &R);

/// Agreement oracle: runs verify(), verifyParallel(), and the service path
/// on the same property and cross-checks the three verdicts.
std::vector<OracleViolation>
checkVerdictAgreement(const Network &Net, const RobustnessProperty &Prop,
                      const VerificationPolicy &Policy,
                      const OracleConfig &Cfg);

/// Checkpoint/resume oracle: runs the property uninterrupted, then again
/// with a random (much smaller) deadline, and resumes the interrupted
/// search from its checkpoint until it decides. The resumed chain must
/// reach the same verdict with a bit-identical counterexample and equal
/// stats (ignoring wall-clock), and every checkpoint must round-trip
/// byte-identically through serialize -> deserialize -> serialize.
std::vector<OracleViolation>
checkCheckpointResume(const Network &Net, const RobustnessProperty &Prop,
                      const VerificationPolicy &Policy,
                      const OracleConfig &Cfg, Rng &R);

/// Precision oracle: the margin proved by (Base, Disjuncts) must be at
/// least the margin proved by (Base, 1), up to numeric slack.
std::vector<OracleViolation>
checkPowersetPrecision(const Network &Net, const Box &Region, size_t K,
                       BaseDomainKind Base, int Disjuncts,
                       const OracleConfig &Cfg);

/// Certificate oracle: re-verifies the property with EmitCertificate set
/// and checks the full proof-production contract. A decided verdict must
/// carry a certificate that round-trips byte-identically through
/// serialize -> deserialize -> serialize and that the standalone checker
/// accepts; Timeout must carry none. Then three deterministically tampered
/// copies — a forged leaf justification (inflated verified margin or
/// displaced counterexample), a dropped trailing node, and a shrunk node
/// region — must each be *rejected*: the checker accepting any of them is
/// the violation. InjectTighten widens the checker's numeric slack,
/// simulating a checker lax enough to bless forged bounds, so tests can
/// prove this oracle catches one. Draws no RNG (fully deterministic).
std::vector<OracleViolation>
checkCertificates(const Network &Net, const RobustnessProperty &Prop,
                  const VerificationPolicy &Policy, const OracleConfig &Cfg);

/// Verifier configuration the metamorphic oracles run with (shared so the
/// campaign, the agreement oracle, and replays all use identical configs).
VerifierConfig oracleVerifierConfig(const OracleConfig &Cfg);

} // namespace charon

#endif // CHARON_FUZZ_ORACLES_H
