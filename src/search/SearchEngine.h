//===- SearchEngine.h - Explicit proof-tree search engine --------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1 as an explicit search over a materialized ProofTree. One
/// node-expansion path (counterexample search, Eq. 4 refutation check,
/// pi_alpha domain choice + abstract analysis, pi_I split choice) serves
/// both drivers: the serial loop and the ThreadPool-backed executor differ
/// only in how many threads take nodes from the one DFS-ordered open set.
/// Each step takes the DFS-least open node that no worker is expanding, so
/// a serial run expands depth first, lower split half before upper.
///
/// Determinism contract:
///  - A node's expansion is a pure function of (network, policy, config,
///    node path, region, warm witness): its RNG seed folds from the split
///    path, never from a shared counter, so scheduling cannot perturb it.
///  - When several nodes falsify, the engine returns the DFS-earliest
///    falsification — the one the serial driver finds — and the parallel
///    executor keeps expanding DFS-earlier open nodes until that choice is
///    confirmed. Clean runs (no deadline/cancel interruption) therefore
///    return bit-identical verdicts, counterexamples, and objectives
///    regardless of thread count.
///  - Expansions commit atomically: a deadline that aborts the abstract
///    analysis mid-node leaves the node open and uncounted. Timeout
///    verdicts carry a SearchCheckpoint of the open nodes, and resuming it
///    replays exactly the uninterrupted run's remaining expansions.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SEARCH_SEARCHENGINE_H
#define CHARON_SEARCH_SEARCHENGINE_H

#include "core/Policy.h"
#include "core/Property.h"
#include "core/Verifier.h"
#include "search/Checkpoint.h"
#include "search/ProofTree.h"

namespace charon {
class ThreadPool;

/// The proof-search engine. Stateless across runs; each run() builds its
/// own tree and open set, so one engine can serve many properties.
class SearchEngine {
public:
  SearchEngine(const Network &Net, const VerificationPolicy &Policy,
               const VerifierConfig &Config);

  /// Decides \p Prop. With \p Pool null the caller's thread expands every
  /// node; otherwise node expansions are fanned out over the pool.
  /// With \p Resume non-null and compatible (same network fingerprint,
  /// property digest, and budget-free config digest), the search continues
  /// from the checkpoint's open nodes; incompatible checkpoints are ignored.
  VerifyResult run(const RobustnessProperty &Prop,
                   const SearchCheckpoint *Resume, ThreadPool *Pool) const;

private:
  struct SearchState;
  struct Expansion;

  /// The shared node-expansion path (Algorithm 1 lines 2-8 on one region).
  Expansion expandNode(const RobustnessProperty &Prop, const Box &Region,
                       const Vector *Warm, uint64_t Seed,
                       const Deadline *Budget) const;

  /// Takes, expands, and commits one node. Returns Stepped after useful
  /// work, NoWork when every open node is in flight (parallel workers wait
  /// and retry), Finished when the search is over.
  enum class StepResult { Stepped, NoWork, Finished };
  StepResult runStep(SearchState &S) const;

  /// Builds the final VerifyResult (and checkpoint on Timeout).
  VerifyResult finish(SearchState &S, const RobustnessProperty &Prop) const;

  const Network &Net;
  const VerificationPolicy &Policy;
  const VerifierConfig &Config;
};

} // namespace charon

#endif // CHARON_SEARCH_SEARCHENGINE_H
