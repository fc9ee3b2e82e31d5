//===- CertChecker.cpp - Standalone certificate validation --------------------===//

#include "cert/CertChecker.h"

#include "abstract/Analyzer.h"
#include "core/Digest.h"
#include "core/Property.h"
#include "linalg/Matrix.h"

#include <map>
#include <sstream>

using namespace charon;

namespace {

std::string pathName(const std::vector<uint8_t> &Path) {
  if (Path.empty())
    return "-";
  std::string S;
  S.reserve(Path.size());
  for (uint8_t Bit : Path)
    S.push_back(Bit ? '1' : '0');
  return S;
}

bool sameBounds(const Vector &A, const Vector &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I] != B[I])
      return false;
  return true;
}

/// Exact equality except along \p Dim, whose entry must equal \p At.
bool sameBoundsExcept(const Vector &A, const Vector &B, size_t Dim, double At) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    if (I == Dim ? A[I] != At : A[I] != B[I])
      return false;
  }
  return true;
}

} // namespace

CertCheckReport charon::checkCertificate(const Network &Net,
                                         const RobustnessProperty &Prop,
                                         const ProofCertificate &Cert,
                                         const CertCheckConfig &Cfg) {
  CertCheckReport Report;
  bool Ok = true;
  auto Fail = [&](const std::string &Msg) {
    Ok = false;
    if (Report.Errors.size() < Cfg.MaxErrors)
      Report.Errors.push_back(Msg);
    else if (Report.Errors.size() == Cfg.MaxErrors)
      Report.Errors.push_back("... further errors suppressed");
  };
  auto FailNode = [&](const CertNode &N, const std::string &Msg) {
    Fail("node " + pathName(N.Path) + ": " + Msg);
  };

  // Obligation 1: guards. Everything downstream replays against Net and
  // Prop, so a digest mismatch means the certificate proves a different
  // query — reject before burning analysis time.
  if (Cert.Verdict == Outcome::Timeout)
    Fail("verdict: Timeout is not certifiable");
  if (Cert.NetworkFingerprint != fingerprintNetwork(Net))
    Fail("guard: network fingerprint mismatch");
  if (Cert.PropertyDigest != digestProperty(Prop))
    Fail("guard: property digest mismatch");
  if (!(Cert.Delta > 0.0))
    Fail("guard: delta must be positive (Eq. 4)");
  if (Cert.Dim != Net.inputSize() || Cert.Dim != Prop.Region.dim())
    Fail("guard: input dimension mismatch");
  if (Cert.TargetClass != Prop.TargetClass ||
      Cert.TargetClass >= Net.outputSize())
    Fail("guard: target class mismatch");
  if (Cert.Nodes.empty())
    Fail("structure: certificate has no nodes");
  if (!Ok)
    return Report;

  // Obligation 2: structure. Index nodes by path; the binary-tree shape
  // (unique root, parents exist and are splits, splits have both children)
  // plus obligation 3's tiling makes the leaf set an exact cover of the
  // property region.
  std::map<std::vector<uint8_t>, const CertNode *> ByPath;
  for (const CertNode &N : Cert.Nodes) {
    if (!ByPath.emplace(N.Path, &N).second)
      FailNode(N, "duplicate path");
    if (N.Region.dim() != Cert.Dim)
      FailNode(N, "region dimension mismatch");
  }
  auto RootIt = ByPath.find({});
  if (RootIt == ByPath.end()) {
    Fail("structure: no root node");
    return Report;
  }
  if (!sameBounds(RootIt->second->Region.lower(), Prop.Region.lower()) ||
      !sameBounds(RootIt->second->Region.upper(), Prop.Region.upper()))
    Fail("structure: root region differs from the property region");

  for (const CertNode &N : Cert.Nodes) {
    if (!N.Path.empty()) {
      std::vector<uint8_t> ParentPath(N.Path.begin(), N.Path.end() - 1);
      auto It = ByPath.find(ParentPath);
      if (It == ByPath.end()) {
        FailNode(N, "parent " + pathName(ParentPath) + " missing");
        continue;
      }
      if (It->second->Kind != CertNodeKind::Split)
        FailNode(N, "parent " + pathName(ParentPath) + " is not a split node");
    }
    if (N.Kind != CertNodeKind::Split) {
      // Leaves must be leaves: a justified region with children would let
      // a forged subtree shadow the real justification.
      for (uint8_t Bit : {uint8_t(0), uint8_t(1)}) {
        std::vector<uint8_t> Child = N.Path;
        Child.push_back(Bit);
        if (ByPath.count(Child))
          FailNode(N, "non-split node has a child");
      }
    }
  }

  // Obligation 3: tiling. Each split's children must partition it exactly
  // at the recorded cut — byte-for-byte equal bounds, not within
  // tolerance: shrinking a child region (hiding part of the input space
  // from every justification) is one of the tamper cases this catches.
  std::vector<const CertNode *> Falsified;
  for (const CertNode &N : Cert.Nodes) {
    switch (N.Kind) {
    case CertNodeKind::Split: {
      ++Report.SplitNodes;
      size_t D = N.SplitDim;
      if (D >= Cert.Dim) {
        FailNode(N, "split dimension out of range");
        break;
      }
      if (!(N.SplitCut > N.Region.lower()[D] &&
            N.SplitCut < N.Region.upper()[D])) {
        FailNode(N, "split cut not strictly inside the region");
        break;
      }
      std::vector<uint8_t> LoPath = N.Path, HiPath = N.Path;
      LoPath.push_back(0);
      HiPath.push_back(1);
      auto LoIt = ByPath.find(LoPath);
      auto HiIt = ByPath.find(HiPath);
      if (LoIt == ByPath.end() || HiIt == ByPath.end()) {
        FailNode(N, "split node missing a child");
        break;
      }
      const Box &Lo = LoIt->second->Region;
      const Box &Hi = HiIt->second->Region;
      if (!sameBounds(Lo.lower(), N.Region.lower()) ||
          !sameBoundsExcept(Lo.upper(), N.Region.upper(), D, N.SplitCut))
        FailNode(N, "lower child does not tile [lower, cut]");
      if (!sameBoundsExcept(Hi.lower(), N.Region.lower(), D, N.SplitCut) ||
          !sameBounds(Hi.upper(), N.Region.upper()))
        FailNode(N, "upper child does not tile [cut, upper]");
      break;
    }
    case CertNodeKind::Verified: {
      // Obligation 4: replay the abstract analysis. Domination (not
      // equality) keeps the check meaningful across checker versions whose
      // transformers got tighter, while still rejecting inflated bounds.
      ++Report.VerifiedLeaves;
      if (!(N.Margin > 0.0)) {
        FailNode(N, "recorded margin is not positive");
        break;
      }
      ++Report.Reanalyses;
      AnalysisResult A =
          analyzeRobustness(Net, N.Region, Cert.TargetClass, N.Domain);
      if (!A.Verified) {
        std::ostringstream Os;
        Os << "abstract replay under " << toString(N.Domain)
           << " does not verify (margin " << A.Margin << ")";
        FailNode(N, Os.str());
      } else if (A.Margin + Cfg.MarginSlack < N.Margin) {
        std::ostringstream Os;
        Os << "recomputed margin " << A.Margin
           << " does not dominate recorded " << N.Margin;
        FailNode(N, Os.str());
      }
      break;
    }
    case CertNodeKind::Falsified:
      ++Report.FalsifiedLeaves;
      if (N.Cex.size() != Cert.Dim) {
        FailNode(N, "counterexample dimension mismatch");
        break;
      }
      if (!N.Region.contains(N.Cex))
        FailNode(N, "counterexample outside the leaf region");
      Falsified.push_back(&N);
      break;
    case CertNodeKind::Pruned:
      ++Report.PrunedNodes;
      break;
    }
  }

  // Obligation 5: replay every counterexample through the batched concrete
  // engine in one call (bit-identical to the scalar path).
  if (!Falsified.empty()) {
    Matrix X(Falsified.size(), Cert.Dim);
    for (size_t R = 0; R < Falsified.size(); ++R)
      for (size_t I = 0; I < Cert.Dim; ++I)
        X(R, I) = Falsified[R]->Cex[I];
    Vector F = Net.objectiveBatch(X, Cert.TargetClass);
    Report.CexReplays += static_cast<long>(Falsified.size());
    for (size_t R = 0; R < Falsified.size(); ++R) {
      if (F[R] > Cert.Delta + Cfg.ObjectiveSlack) {
        std::ostringstream Os;
        Os << "recomputed objective " << F[R] << " exceeds delta "
           << Cert.Delta;
        FailNode(*Falsified[R], Os.str());
      }
    }
  }

  // Obligation 6: the root verdict must follow from the leaves.
  if (Cert.Verdict == Outcome::Verified &&
      (Report.FalsifiedLeaves > 0 || Report.PrunedNodes > 0))
    Fail("verdict: Verified requires every leaf to carry a proof");
  if (Cert.Verdict == Outcome::Falsified && Report.FalsifiedLeaves == 0)
    Fail("verdict: Falsified requires a counterexample leaf");

  Report.Accepted = Ok;
  return Report;
}
