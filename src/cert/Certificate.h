//===- Certificate.h - Serializable proof certificates ----------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-contained, independently checkable record of a completed
/// verification verdict, in the spirit of "Abstraction-Based Proof
/// Production in Formal Verification of Neural Networks" (Elboher et al.).
/// The materialized ProofTree is already 90% of a proof object; a
/// certificate is its portable closure: every node of the finished tree
/// with exactly the data a standalone checker needs to re-derive the
/// verdict without re-running search —
///
///  - Split nodes carry the split hyperplane (dimension + cut), so the
///    checker can verify the two children exactly tile their parent.
///  - Verified leaves carry the abstract domain pi_alpha chose and the
///    margin the analysis proved, so the checker can replay the abstract
///    interpretation and confirm the recomputed margin dominates the
///    recorded one.
///  - Falsified leaves carry the concrete delta-counterexample and its
///    objective, so the checker can replay it through the batched concrete
///    engine and confirm F(x) <= delta.
///  - Pruned nodes (skipped once a DFS-earlier falsification decided the
///    run, or left open by it) carry no justification and are only legal
///    under a Falsified verdict.
///
/// The text format (`charon-cert 1`) follows the SearchCheckpoint
/// conventions: doubles at 17 significant digits, nodes in DFS order,
/// byte-identical serialize -> deserialize -> serialize round-trip, and
/// digest guards (network fingerprint, property digest, budget-free config
/// digest) binding the certificate to the query it proves.
///
/// \code
///   charon-cert 1
///   verdict verified|falsified
///   network <u64> property <u64> config <u64>
///   delta <v>
///   dim <n> class <k>
///   nodes <count>
///   node <path> split <dim> <cut>
///   node <path> verified <domain> <disjuncts> <margin>
///   node <path> falsified <objective>
///   node <path> pruned
///   lower <n values>          (after every node line)
///   upper <n values>
///   cex <n values>            (falsified nodes only)
///   ...
///   end
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_CERT_CERTIFICATE_H
#define CHARON_CERT_CERTIFICATE_H

#include "core/Verifier.h"
#include "linalg/Box.h"

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace charon {
class ProofTree;
struct RobustnessProperty;

/// Role of one certificate node.
enum class CertNodeKind : uint8_t {
  Split,     ///< interior node; its two children tile it
  Verified,  ///< leaf proved by abstract interpretation
  Falsified, ///< leaf refuted by a concrete delta-counterexample
  Pruned     ///< leaf with no justification (legal only under Falsified)
};

/// Printable name of a certificate-node kind (the format keyword).
const char *toString(CertNodeKind K);

/// One node of a certificate: a subregion plus its justification.
struct CertNode {
  std::vector<uint8_t> Path; ///< split bits from the root (empty = root)
  Box Region;
  CertNodeKind Kind = CertNodeKind::Pruned;

  // Split justification: Region.split(SplitDim, SplitCut) produced the
  // children (the cut is the post-clamp value actually used).
  size_t SplitDim = 0;
  double SplitCut = 0.0;

  // Verified justification: analyzeRobustness(Net, Region, K, Domain)
  // proved at least Margin.
  DomainSpec Domain;
  double Margin = 0.0;

  // Falsified justification: F(Cex) = CexObjective <= delta, Cex in Region.
  Vector Cex;
  double CexObjective = 0.0;
};

/// A complete, self-contained verification certificate.
struct ProofCertificate {
  /// The claimed verdict; only decided outcomes are certifiable.
  Outcome Verdict = Outcome::Verified;
  /// Eq. 4 refutation threshold the falsified leaves were judged against.
  double Delta = 0.0;
  /// Digest guards binding the certificate to its query (see
  /// core/Digest.h). ConfigDigest is the budget-free semantics digest, for
  /// provenance: the checker reports (not rejects) a mismatch, because a
  /// valid proof is valid regardless of which config found it.
  uint64_t NetworkFingerprint = 0;
  uint64_t PropertyDigest = 0;
  uint64_t ConfigDigest = 0;
  /// Input dimension and target class of the certified property.
  size_t Dim = 0;
  size_t TargetClass = 0;
  /// Every node of the finished proof tree, in DFS order (ancestors before
  /// descendants, lower split half before upper).
  std::vector<CertNode> Nodes;
};

/// Builds the certificate of a completed (non-resumed) search: the whole
/// ProofTree in DFS order with per-node justifications. \p Verdict must be
/// Verified or Falsified. Open tree nodes (possible only under Falsified,
/// where a confirmed DFS-earlier counterexample ends the run) are recorded
/// as Pruned. Returns nullopt when a Verified verdict rests on a leaf with
/// no analysis-backed justification (a CompleteFallback solver call proved
/// it): such a verdict is sound but not checkable by abstract replay, so no
/// certificate is emitted rather than one the checker must reject.
std::optional<ProofCertificate>
buildTreeCertificate(const Network &Net, const RobustnessProperty &Prop,
                     const VerifierConfig &Config, Outcome Verdict,
                     const ProofTree &Tree);

/// Builds the degenerate single-node certificate of a falsification whose
/// proof tree is unavailable (checkpoint-resumed searches materialize only
/// the restored frontier). One Falsified root carrying the counterexample
/// is a complete proof — a refutation needs no tree.
ProofCertificate buildFalsifiedCertificate(const Network &Net,
                                           const RobustnessProperty &Prop,
                                           const VerifierConfig &Config,
                                           const Vector &Cex,
                                           double CexObjective);

/// Writes \p Cert to \p Os in the documented text format.
void saveCertificate(const ProofCertificate &Cert, std::ostream &Os);

/// Renders \p Cert as a string (the byte-identity canonical form).
std::string serializeCertificate(const ProofCertificate &Cert);

/// Parses a certificate from the rest of \p Is; nullopt on malformed input
/// (unknown keywords, non-numeric values, inverted bounds, duplicate node
/// paths, truncation, a dim or nodes count larger than the text left).
std::optional<ProofCertificate> loadCertificate(std::istream &Is);

/// Parses a certificate from the canonical string form.
std::optional<ProofCertificate> deserializeCertificate(const std::string &Text);

/// File-path convenience wrappers.
bool saveCertificateFile(const ProofCertificate &Cert, const std::string &Path);
std::optional<ProofCertificate> loadCertificateFile(const std::string &Path);

} // namespace charon

#endif // CHARON_CERT_CERTIFICATE_H
