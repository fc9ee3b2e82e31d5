//===- Certificate.cpp - Serializable proof certificates ----------------------===//

#include "cert/Certificate.h"

#include "core/Digest.h"
#include "core/Property.h"
#include "search/ProofTree.h"
#include "support/TextBounds.h"

#include <array>
#include <cassert>
#include <fstream>
#include <iomanip>
#include <iterator>
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

bool parseDomainKeyword(const std::string &Token, BaseDomainKind &Out) {
  if (Token == "interval")
    Out = BaseDomainKind::Interval;
  else if (Token == "zonotope")
    Out = BaseDomainKind::Zonotope;
  else if (Token == "symbolic-interval")
    Out = BaseDomainKind::SymbolicInterval;
  else if (Token == "polyhedra")
    Out = BaseDomainKind::Polyhedra;
  else
    return false;
  return true;
}

void writePath(std::ostream &Os, const std::vector<uint8_t> &Path) {
  if (Path.empty()) {
    Os << "-";
    return;
  }
  for (uint8_t Bit : Path)
    Os << (Bit ? '1' : '0');
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

std::optional<ProofCertificate>
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
      if (N.MarginKnown && N.Margin > 0.0) {
        Node.Kind = CertNodeKind::Verified;
        Node.Domain = N.Domain;
        Node.Margin = N.Margin;
      } else if (Verdict == Outcome::Falsified) {
        // A CompleteFallback solver call proved this leaf; that cannot be
        // re-derived by abstract replay, but under a Falsified verdict the
        // leaf carries no evidentiary weight — record it unjustified.
        Node.Kind = CertNodeKind::Pruned;
      } else {
        return std::nullopt;
      }
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
  Os << std::setprecision(17);
  Os << "charon-cert 1\n";
  Os << "verdict "
     << (Cert.Verdict == Outcome::Verified ? "verified" : "falsified") << "\n";
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
    Os << "\nlower";
    for (size_t I = 0; I < N.Region.dim(); ++I)
      Os << " " << N.Region.lower()[I];
    Os << "\nupper";
    for (size_t I = 0; I < N.Region.dim(); ++I)
      Os << " " << N.Region.upper()[I];
    Os << "\n";
    if (N.Kind == CertNodeKind::Falsified) {
      Os << "cex";
      for (size_t I = 0; I < N.Cex.size(); ++I)
        Os << " " << N.Cex[I];
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

std::optional<ProofCertificate> charon::loadCertificate(std::istream &Is) {
  return deserializeCertificate(std::string(
      std::istreambuf_iterator<char>(Is), std::istreambuf_iterator<char>()));
}

std::optional<ProofCertificate>
charon::deserializeCertificate(const std::string &Text) {
  std::istringstream Is(Text);
  // Each count must fit in the unread text (see valuesFit), so a damaged
  // count is rejected before it sizes an allocation.
  std::string Magic, Key, Token;
  int Version = 0;
  if (!(Is >> Magic >> Version) || Magic != "charon-cert" || Version != 1)
    return std::nullopt;

  ProofCertificate Cert;
  if (!(Is >> Key >> Token) || Key != "verdict")
    return std::nullopt;
  if (Token == "verified")
    Cert.Verdict = Outcome::Verified;
  else if (Token == "falsified")
    Cert.Verdict = Outcome::Falsified;
  else
    return std::nullopt;

  if (!(Is >> Key >> Cert.NetworkFingerprint) || Key != "network")
    return std::nullopt;
  if (!(Is >> Key >> Cert.PropertyDigest) || Key != "property")
    return std::nullopt;
  if (!(Is >> Key >> Cert.ConfigDigest) || Key != "config")
    return std::nullopt;
  if (!(Is >> Key >> Cert.Delta) || Key != "delta")
    return std::nullopt;
  if (!(Is >> Key >> Cert.Dim) || Key != "dim" || !valuesFit(Is, Cert.Dim))
    return std::nullopt;
  if (!(Is >> Key >> Cert.TargetClass) || Key != "class")
    return std::nullopt;

  size_t Count = 0;
  if (!(Is >> Key >> Count) || Key != "nodes" || !valuesFit(Is, Count))
    return std::nullopt;
  if (Count > 0 && Cert.Dim == 0)
    return std::nullopt;

  std::set<std::vector<uint8_t>> Seen;
  Cert.Nodes.reserve(Count);
  for (size_t N = 0; N < Count; ++N) {
    CertNode Node;
    if (!(Is >> Key >> Token) || Key != "node")
      return std::nullopt;
    if (Token != "-") {
      Node.Path.reserve(Token.size());
      for (char C : Token) {
        if (C != '0' && C != '1')
          return std::nullopt;
        Node.Path.push_back(C == '1' ? 1 : 0);
      }
    }
    // Two justifications for the same subregion make the certificate
    // ambiguous; reject rather than pick one.
    if (!Seen.insert(Node.Path).second)
      return std::nullopt;

    if (!(Is >> Token))
      return std::nullopt;
    if (Token == "split") {
      Node.Kind = CertNodeKind::Split;
      if (!(Is >> Node.SplitDim >> Node.SplitCut))
        return std::nullopt;
      if (Node.SplitDim >= Cert.Dim)
        return std::nullopt;
    } else if (Token == "verified") {
      Node.Kind = CertNodeKind::Verified;
      std::string DomainTok;
      if (!(Is >> DomainTok) || !parseDomainKeyword(DomainTok, Node.Domain.Base))
        return std::nullopt;
      if (!(Is >> Node.Domain.Disjuncts >> Node.Margin))
        return std::nullopt;
      if (Node.Domain.Disjuncts < 1)
        return std::nullopt;
    } else if (Token == "falsified") {
      Node.Kind = CertNodeKind::Falsified;
      if (!(Is >> Node.CexObjective))
        return std::nullopt;
    } else if (Token == "pruned") {
      Node.Kind = CertNodeKind::Pruned;
    } else {
      return std::nullopt;
    }

    Vector Lo(Cert.Dim), Hi(Cert.Dim);
    if (!(Is >> Key) || Key != "lower")
      return std::nullopt;
    for (size_t I = 0; I < Cert.Dim; ++I)
      if (!(Is >> Lo[I]))
        return std::nullopt;
    if (!(Is >> Key) || Key != "upper")
      return std::nullopt;
    for (size_t I = 0; I < Cert.Dim; ++I)
      if (!(Is >> Hi[I]))
        return std::nullopt;
    for (size_t I = 0; I < Cert.Dim; ++I)
      if (Lo[I] > Hi[I])
        return std::nullopt;
    Node.Region = Box(std::move(Lo), std::move(Hi));

    if (Node.Kind == CertNodeKind::Falsified) {
      Node.Cex = Vector(Cert.Dim);
      if (!(Is >> Key) || Key != "cex")
        return std::nullopt;
      for (size_t I = 0; I < Cert.Dim; ++I)
        if (!(Is >> Node.Cex[I]))
          return std::nullopt;
    }
    Cert.Nodes.push_back(std::move(Node));
  }
  if (!(Is >> Key) || Key != "end")
    return std::nullopt;
  return Cert;
}

bool charon::saveCertificateFile(const ProofCertificate &Cert,
                                 const std::string &Path) {
  std::ofstream Os(Path);
  if (!Os)
    return false;
  saveCertificate(Cert, Os);
  return static_cast<bool>(Os);
}

std::optional<ProofCertificate>
charon::loadCertificateFile(const std::string &Path) {
  std::ifstream Is(Path);
  if (!Is)
    return std::nullopt;
  return loadCertificate(Is);
}
