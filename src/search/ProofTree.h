//===- ProofTree.h - Materialized proof-search tree -------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explicit refinement tree behind Algorithm 1. Every subregion the
/// verifier touches becomes a materialized ProofNode: its box, its position
/// in the tree (parent id + which side of the parent's split), the witness
/// handed down by the parent's counterexample search, and — once the node
/// is expanded — the policy's domain choice, the analysis margin, and the
/// PGD objective.
///
/// Two structural services fall out of materializing the tree:
///
///  - Path-derived RNG seeds. A node's seed is a hash fold of the split
///    bits from the root, so the randomness a node sees depends only on
///    *where it sits in the tree*, never on when a scheduler happened to
///    run it. This is what makes serial and parallel searches (and
///    checkpoint-resumed ones) bit-identical.
///  - A total "DFS order" over nodes (ancestors before descendants, lower
///    split half before upper). The engine takes open nodes in this order,
///    so a serial run expands depth first, and uses it to pick a
///    scheduling-independent falsification when several nodes refute the
///    property.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SEARCH_PROOFTREE_H
#define CHARON_SEARCH_PROOFTREE_H

#include "abstract/Analyzer.h"
#include "linalg/Box.h"

#include <cstdint>
#include <string>
#include <vector>

namespace charon {

/// Index of a node inside its ProofTree.
using NodeId = uint32_t;

/// Sentinel for "no node" (root's parent, unset best-falsified, ...).
inline constexpr NodeId InvalidNodeId = static_cast<NodeId>(-1);

/// Lifecycle of a proof node.
enum class NodeStatus : uint8_t {
  Open,      ///< scheduled or in flight; not yet resolved
  Verified,  ///< abstract interpretation proved this subregion
  Falsified, ///< counterexample search refuted it (F(x*) <= delta)
  Split,     ///< neither; two children cover it
  Pruned     ///< skipped: a DFS-earlier falsification decided the run
};

/// Printable name of a node status.
const char *toString(NodeStatus S);

/// One node of the proof tree.
struct ProofNode {
  Box Region;
  NodeId Parent = InvalidNodeId;
  /// Which side of the parent's split this node covers: 0 = lower half,
  /// 1 = upper half. 0 for the root.
  uint8_t ChildBit = 0;
  uint32_t Depth = 0;
  NodeStatus Status = NodeStatus::Open;
  /// RNG seed for this node's counterexample search, folded along the path
  /// from the root (see ProofTree doc comment).
  uint64_t PathSeed = 0;
  /// The parent's PGD objective (0 at the root), recorded in checkpoints.
  /// No scheduler reads it.
  double Priority = 0.0;
  /// Parent's best witness, projected into this region by the node's own
  /// search as a warm start. Cleared once the node resolves.
  Vector Warm;
  /// Path bits from the root for nodes restored from a checkpoint (their
  /// ancestors are not materialized). Empty for ordinary nodes.
  std::vector<uint8_t> PathPrefix;

  // Filled in when the node is expanded (observability + checkpoints +
  // certificates).
  DomainSpec Domain;          ///< pi_alpha's choice (valid iff DomainChosen)
  bool DomainChosen = false;
  double Margin = 0.0;        ///< analysis margin (valid iff MarginKnown)
  bool MarginKnown = false;
  double PgdObjective = 0.0;  ///< F(x*) of this node's search

  /// Split nodes: the hyperplane actually used (post-clamp cut), so a
  /// certificate can prove the children tile this region exactly.
  size_t SplitDim = 0;
  double SplitCut = 0.0;

  /// Falsified nodes: the concrete delta-counterexample and its objective.
  /// Kept per node (not just the run's DFS-earliest winner) so every
  /// falsified leaf in a certificate carries its own replayable witness.
  Vector Cex;
  double CexObjective = 0.0;
};

/// Materialized proof-search tree. Not thread-safe; the engine guards it
/// with the search-state mutex.
class ProofTree {
public:
  /// Creates an empty tree whose path seeds fold from \p Seed.
  explicit ProofTree(uint64_t Seed);

  /// Adds the root node covering \p Region.
  NodeId addRoot(Box Region);

  /// Adds the two children of \p Parent produced by splitting it, lower
  /// half first. Both inherit \p Warm as their warm-start witness and
  /// \p Priority (the parent's PGD objective) as their priority.
  std::pair<NodeId, NodeId> addChildren(NodeId Parent, Box Lower, Box Upper,
                                        const Vector &Warm, double Priority);

  /// Adds a detached node at \p Path (bits from the root) — used when
  /// restoring a checkpoint, where interior ancestors are not materialized.
  NodeId addDetached(const std::vector<uint8_t> &Path, Box Region,
                     Vector Warm, double Priority);

  ProofNode &node(NodeId Id) { return Nodes[Id]; }
  const ProofNode &node(NodeId Id) const { return Nodes[Id]; }
  size_t size() const { return Nodes.size(); }

  /// Split bits from the root to \p Id (empty for the root itself).
  std::vector<uint8_t> pathOf(NodeId Id) const;

  /// Renders pathOf() as a string of '0'/'1' characters, "-" for the root.
  std::string pathString(NodeId Id) const;

  /// True when \p A is expanded strictly before \p B by the serial
  /// driver: ancestors precede descendants, and at the first diverging
  /// split the lower half precedes the upper.
  bool dfsPrecedes(NodeId A, NodeId B) const;

  /// The seed fold: seed of a child on side \p Bit of a node with
  /// \p ParentSeed. Exposed so checkpoints can recompute seeds from paths.
  static uint64_t childSeed(uint64_t ParentSeed, uint8_t Bit);

  /// The root's seed for a tree built over \p Seed.
  static uint64_t rootSeed(uint64_t Seed);

private:
  uint64_t Seed;
  std::vector<ProofNode> Nodes;
};

} // namespace charon

#endif // CHARON_SEARCH_PROOFTREE_H
