//===- Certificate.cpp - Serializable proof certificates ----------------------===//

#include "cert/Certificate.h"

#include "core/Digest.h"
#include "core/Property.h"
#include "search/ProofTree.h"
#include "support/TextFormat.h"

#include <array>
#include <cassert>
#include <set>
#include <sstream>

using namespace charon;

const char *charon::toString(CertNodeKind K) {
  switch (K) {
  case CertNodeKind::Split:
    return "split";
  case CertNodeKind::Verified:
    return "verified";
  case CertNodeKind::Falsified:
    return "falsified";
  case CertNodeKind::Pruned:
    return "pruned";
  }
  return "?";
}

namespace {

/// Lowercase format keyword of a base domain (distinct from the
/// human-facing toString(DomainSpec), which certificates must not depend
/// on: "Zonotope^2" would collide with the whitespace-tokenized parser).
const char *domainKeyword(BaseDomainKind B) {
  switch (B) {
  case BaseDomainKind::Interval:
    return "interval";
  case BaseDomainKind::Zonotope:
    return "zonotope";
  case BaseDomainKind::SymbolicInterval:
    return "symbolic-interval";
  case BaseDomainKind::Polyhedra:
    return "polyhedra";
  }
  return "?";
}

bool parseDomainKeyword(std::string_view Token, BaseDomainKind &Out) {
  for (BaseDomainKind B :
       {BaseDomainKind::Interval, BaseDomainKind::Zonotope,
        BaseDomainKind::SymbolicInterval, BaseDomainKind::Polyhedra})
    if (Token == domainKeyword(B)) {
      Out = B;
      return true;
    }
  return false;
}

ProofCertificate certificateShell(const Network &Net,
                                  const RobustnessProperty &Prop,
                                  const VerifierConfig &Config,
                                  Outcome Verdict) {
  ProofCertificate Cert;
  Cert.Verdict = Verdict;
  Cert.Delta = Config.Delta;
  Cert.NetworkFingerprint = fingerprintNetwork(Net);
  Cert.PropertyDigest = digestProperty(Prop);
  Cert.ConfigDigest = digestVerifierConfigSemantics(Config);
  Cert.Dim = Prop.Region.dim();
  Cert.TargetClass = Prop.TargetClass;
  return Cert;
}

} // namespace

ProofCertificate
charon::buildTreeCertificate(const Network &Net, const RobustnessProperty &Prop,
                             const VerifierConfig &Config, Outcome Verdict,
                             const ProofTree &Tree) {
  assert(Verdict != Outcome::Timeout && "only decided verdicts certify");
  assert(Tree.size() > 0 && Tree.node(0).Parent == InvalidNodeId &&
         Tree.node(0).PathPrefix.empty() &&
         "tree certificates need a materialized root (not a resumed run)");

  // Rebuild the child links (ProofNode stores only the parent) so the
  // nodes can be emitted in DFS order: ancestors first, lower half before
  // upper — the same total order the verdict-selection rule uses.
  std::vector<std::array<NodeId, 2>> Kids(
      Tree.size(), {InvalidNodeId, InvalidNodeId});
  for (NodeId Id = 1; Id < Tree.size(); ++Id) {
    const ProofNode &N = Tree.node(Id);
    Kids[N.Parent][N.ChildBit] = Id;
  }

  ProofCertificate Cert = certificateShell(Net, Prop, Config, Verdict);
  Cert.Nodes.reserve(Tree.size());
  std::vector<NodeId> Stack{0};
  while (!Stack.empty()) {
    NodeId Id = Stack.back();
    Stack.pop_back();
    const ProofNode &N = Tree.node(Id);

    CertNode Node;
    Node.Path = Tree.pathOf(Id);
    Node.Region = N.Region;
    switch (N.Status) {
    case NodeStatus::Split:
      Node.Kind = CertNodeKind::Split;
      Node.SplitDim = N.SplitDim;
      Node.SplitCut = N.SplitCut;
      Stack.push_back(Kids[Id][1]);
      Stack.push_back(Kids[Id][0]);
      break;
    case NodeStatus::Verified:
      assert(N.MarginKnown && N.Margin > 0.0 &&
             "every verified leaf rests on an analysis margin");
      Node.Kind = CertNodeKind::Verified;
      Node.Domain = N.Domain;
      Node.Margin = N.Margin;
      break;
    case NodeStatus::Falsified:
      if (!N.Cex.empty()) {
        Node.Kind = CertNodeKind::Falsified;
        Node.Cex = N.Cex;
        Node.CexObjective = N.CexObjective;
      } else {
        Node.Kind = CertNodeKind::Pruned;
      }
      break;
    case NodeStatus::Open:
    case NodeStatus::Pruned:
      Node.Kind = CertNodeKind::Pruned;
      break;
    }
    Cert.Nodes.push_back(std::move(Node));
  }
  return Cert;
}

ProofCertificate charon::buildFalsifiedCertificate(
    const Network &Net, const RobustnessProperty &Prop,
    const VerifierConfig &Config, const Vector &Cex, double CexObjective) {
  ProofCertificate Cert =
      certificateShell(Net, Prop, Config, Outcome::Falsified);
  CertNode Root;
  Root.Region = Prop.Region;
  Root.Kind = CertNodeKind::Falsified;
  Root.Cex = Cex;
  Root.CexObjective = CexObjective;
  Cert.Nodes.push_back(std::move(Root));
  return Cert;
}

void charon::saveCertificate(const ProofCertificate &Cert, std::ostream &Os) {
  writeHeader(Os, "charon-cert", 1);
  Os << "\nverdict " << toString(Cert.Verdict) << "\n";
  Os << "network " << Cert.NetworkFingerprint << " property "
     << Cert.PropertyDigest << " config " << Cert.ConfigDigest << "\n";
  Os << "delta " << Cert.Delta << "\n";
  Os << "dim " << Cert.Dim << " class " << Cert.TargetClass << "\n";
  Os << "nodes " << Cert.Nodes.size() << "\n";
  for (const CertNode &N : Cert.Nodes) {
    Os << "node ";
    writePath(Os, N.Path);
    Os << " " << toString(N.Kind);
    switch (N.Kind) {
    case CertNodeKind::Split:
      Os << " " << N.SplitDim << " " << N.SplitCut;
      break;
    case CertNodeKind::Verified:
      Os << " " << domainKeyword(N.Domain.Base) << " " << N.Domain.Disjuncts
         << " " << N.Margin;
      break;
    case CertNodeKind::Falsified:
      Os << " " << N.CexObjective;
      break;
    case CertNodeKind::Pruned:
      break;
    }
    Os << "\n";
    writeBox(Os, N.Region);
    if (N.Kind == CertNodeKind::Falsified) {
      Os << "cex";
      writeValues(Os, N.Cex.data(), N.Cex.size());
      Os << "\n";
    }
  }
  Os << "end\n";
}

std::string charon::serializeCertificate(const ProofCertificate &Cert) {
  std::ostringstream Os;
  saveCertificate(Cert, Os);
  return Os.str();
}

namespace {

/// Parses one node's kind and justification.
bool readJustification(TextReader &R, size_t Dim, CertNode &Node) {
  std::string_view Domain;
  if (!R.oneOf({CertNodeKind::Split, CertNodeKind::Verified,
                CertNodeKind::Falsified, CertNodeKind::Pruned},
               Node.Kind))
    return false;
  switch (Node.Kind) {
  case CertNodeKind::Split:
    return R.integer(Node.SplitDim) && Node.SplitDim < Dim &&
           R.number(Node.SplitCut);
  case CertNodeKind::Verified:
    return R.token(Domain) && parseDomainKeyword(Domain, Node.Domain.Base) &&
           R.integer(Node.Domain.Disjuncts) && Node.Domain.Disjuncts >= 1 &&
           R.number(Node.Margin);
  case CertNodeKind::Falsified:
    return R.number(Node.CexObjective);
  case CertNodeKind::Pruned:
    break;
  }
  return true;
}

std::optional<ProofCertificate> readCertificate(TextReader &R) {
  ProofCertificate Cert;
  size_t Count = 0;
  if (!R.header("charon-cert", 1) || !R.keyword("verdict") ||
      !R.oneOf({Outcome::Verified, Outcome::Falsified}, Cert.Verdict) ||
      !R.keyword("network") || !R.integer(Cert.NetworkFingerprint) ||
      !R.keyword("property") || !R.integer(Cert.PropertyDigest) ||
      !R.keyword("config") || !R.integer(Cert.ConfigDigest) ||
      !R.keyword("delta") || !R.number(Cert.Delta) || !R.keyword("dim") ||
      !R.count(Cert.Dim) || !R.keyword("class") ||
      !R.integer(Cert.TargetClass) || !R.keyword("nodes") ||
      !R.count(Count) || (Count > 0 && Cert.Dim == 0))
    return std::nullopt;

  std::set<std::vector<uint8_t>> Seen;
  Cert.Nodes.reserve(Count);
  for (size_t N = 0; N < Count; ++N) {
    CertNode Node;
    // Two justifications for the same subregion make the certificate
    // ambiguous; reject rather than pick one.
    if (!R.keyword("node") || !R.path(Node.Path) ||
        !Seen.insert(Node.Path).second ||
        !readJustification(R, Cert.Dim, Node) || !R.box(Cert.Dim, Node.Region))
      return std::nullopt;
    if (Node.Kind == CertNodeKind::Falsified) {
      Node.Cex = Vector(Cert.Dim);
      if (!R.keyword("cex") || !R.numbers(Node.Cex.data(), Cert.Dim))
        return std::nullopt;
    }
    Cert.Nodes.push_back(std::move(Node));
  }
  if (!R.keyword("end"))
    return std::nullopt;
  return Cert;
}

} // namespace

std::optional<ProofCertificate> charon::loadCertificate(std::istream &Is) {
  TextReader R(Is);
  return readCertificate(R);
}

std::optional<ProofCertificate>
charon::deserializeCertificate(const std::string &Text) {
  TextReader R(Text);
  return readCertificate(R);
}

bool charon::saveCertificateFile(const ProofCertificate &Cert,
                                 const std::string &Path) {
  return saveTextFile(Cert, Path, saveCertificate);
}

std::optional<ProofCertificate>
charon::loadCertificateFile(const std::string &Path) {
  return loadTextFile(Path, loadCertificate);
}
