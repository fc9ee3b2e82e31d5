//===- ProofTree.cpp - Materialized proof-search tree -------------------------===//

#include "search/ProofTree.h"

#include <algorithm>
#include <cassert>

using namespace charon;

const char *charon::toString(NodeStatus S) {
  switch (S) {
  case NodeStatus::Open:
    return "open";
  case NodeStatus::Verified:
    return "verified";
  case NodeStatus::Falsified:
    return "falsified";
  case NodeStatus::Split:
    return "split";
  case NodeStatus::Pruned:
    return "pruned";
  }
  return "unknown";
}

namespace {

/// splitmix64 finalizer: a full-avalanche 64-bit mix.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

} // namespace

uint64_t ProofTree::rootSeed(uint64_t Seed) {
  return mix64(Seed ^ 0xa0761d6478bd642full);
}

uint64_t ProofTree::childSeed(uint64_t ParentSeed, uint8_t Bit) {
  return mix64(ParentSeed ^
               (Bit ? 0x8ebc6af09c88c6e3ull : 0x589965cc75374cc3ull));
}

ProofTree::ProofTree(uint64_t S) : Seed(S) {}

NodeId ProofTree::addRoot(Box Region) {
  assert(Nodes.empty() && "root must be the first node");
  ProofNode N;
  N.Region = std::move(Region);
  N.PathSeed = rootSeed(Seed);
  Nodes.push_back(std::move(N));
  return 0;
}

std::pair<NodeId, NodeId> ProofTree::addChildren(NodeId Parent, Box Lower,
                                                 Box Upper, const Vector &Warm,
                                                 double Priority) {
  assert(Parent < Nodes.size() && "bad parent id");
  NodeId LId = static_cast<NodeId>(Nodes.size());
  NodeId UId = LId + 1;
  for (uint8_t Bit = 0; Bit < 2; ++Bit) {
    ProofNode N;
    N.Region = Bit ? std::move(Upper) : std::move(Lower);
    N.Parent = Parent;
    N.ChildBit = Bit;
    N.Depth = Nodes[Parent].Depth + 1;
    N.PathSeed = childSeed(Nodes[Parent].PathSeed, Bit);
    N.Priority = Priority;
    N.Warm = Warm;
    Nodes.push_back(std::move(N));
  }
  return {LId, UId};
}

NodeId ProofTree::addDetached(const std::vector<uint8_t> &Path, Box Region,
                              Vector Warm, double Priority) {
  ProofNode N;
  N.Region = std::move(Region);
  N.Depth = static_cast<uint32_t>(Path.size());
  N.Priority = Priority;
  N.Warm = std::move(Warm);
  N.PathPrefix = Path;
  uint64_t S = rootSeed(Seed);
  for (uint8_t Bit : Path)
    S = childSeed(S, Bit);
  N.PathSeed = S;
  NodeId Id = static_cast<NodeId>(Nodes.size());
  Nodes.push_back(std::move(N));
  return Id;
}

std::vector<uint8_t> ProofTree::pathOf(NodeId Id) const {
  std::vector<uint8_t> Path;
  NodeId Cur = Id;
  while (Cur != InvalidNodeId) {
    const ProofNode &N = Nodes[Cur];
    if (N.Parent != InvalidNodeId)
      Path.push_back(N.ChildBit);
    else {
      // Root or detached checkpoint node: prepend its stored prefix.
      Path.insert(Path.end(), N.PathPrefix.rbegin(), N.PathPrefix.rend());
      break;
    }
    Cur = N.Parent;
  }
  std::reverse(Path.begin(), Path.end());
  return Path;
}

std::string ProofTree::pathString(NodeId Id) const {
  std::vector<uint8_t> Path = pathOf(Id);
  if (Path.empty())
    return "-";
  std::string S;
  S.reserve(Path.size());
  for (uint8_t Bit : Path)
    S.push_back(Bit ? '1' : '0');
  return S;
}

bool ProofTree::dfsPrecedes(NodeId A, NodeId B) const {
  if (A == B)
    return false;
  std::vector<uint8_t> PA = pathOf(A);
  std::vector<uint8_t> PB = pathOf(B);
  // Lexicographic with 0 < 1 and prefix-precedes-extension is depth-first
  // preorder with the lower half first: the serial expansion order.
  return std::lexicographical_compare(PA.begin(), PA.end(), PB.begin(),
                                      PB.end());
}
