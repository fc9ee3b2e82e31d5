//===- Pgd.h - Projected gradient descent counterexample search --*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gradient-based adversarial counterexample search (Sec. 3, Eq. 1):
///
///   x* = argmin_{x in I} F(x),  F(x) = N(x)_K - max_{j != K} N(x)_j.
///
/// The search is projected gradient descent (PGD, Madry et al.), as in the
/// paper. It is an *unsound* falsifier: F(x*) <= 0 certifies a violation,
/// but F(x*) > 0 proves nothing — which is exactly why Algorithm 1 couples
/// it with abstract interpretation.
///
/// The search runs all restart chains in lock step as one B x N population.
/// Scoring a population is one batched forward pass whose activations are
/// kept, so each step costs one backward pass from them plus one forward
/// pass that scores the stepped rows: a default 25-step search runs 26
/// forward and 25 backward passes for the whole population instead of
/// Restarts x Steps scalar passes. The search returns as soon as any chain
/// crosses the early-stop threshold. The Scalar engine recomputes every
/// pass row by row and remains the bit-identity oracle.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_OPT_PGD_H
#define CHARON_OPT_PGD_H

#include "linalg/Box.h"
#include "nn/Network.h"

namespace charon {
class Rng;

/// Which execution engine evaluates the population. Both engines implement
/// the same lock-step semantics and return bit-identical results; Scalar
/// evaluates the population row by row through the per-point Network calls
/// and exists as the reference oracle for the equivalence tests (and the
/// "before" side of the cex-search benchmarks).
enum class PgdEngine { Batched, Scalar };

/// The first PGD step, as a fraction of the region's width per dimension;
/// later steps decay from it. The config digest hashes it, so a change to
/// it changes every cache, certificate and checkpoint key.
inline constexpr double PgdInitialStep = 0.3;

/// PGD hyperparameters. The defaults are deliberately light: Algorithm 1
/// runs a search at every refinement node, so a cheap-but-decent search
/// beats a thorough-but-slow one (splitting compensates, Sec. 3).
struct PgdConfig {
  int Steps = 25;   ///< gradient steps (all chains advance together)
  int Restarts = 2; ///< population size (chain 0 starts deterministic)
  /// Stop as soon as the best objective reaches this bound. The default 0
  /// is the true-counterexample certificate; Verifier::step raises it to
  /// VerifierConfig::Delta so the search stops at the Eq. 4 refutation
  /// threshold instead of polishing an already-sufficient witness.
  double EarlyStopObjective = 0.0;
  /// Execution engine; see PgdEngine.
  PgdEngine Engine = PgdEngine::Batched;
};

/// Result of a counterexample search: the best point found and its
/// objective value F(X).
struct PgdResult {
  Vector X;
  double Objective = 0.0;
};

/// Minimizes the robustness objective over \p Region with projected
/// gradient descent (steepest-descent steps scaled per dimension by the
/// region width, projected back onto the box). All restart chains advance
/// in lock step; chain 0 starts from Region.project(*WarmStart) when a warm
/// start is given (refinement seeds it with the parent node's witness) and
/// from the region center otherwise, the remaining chains from uniform
/// samples of \p R.
PgdResult pgdMinimize(const Network &Net, const Box &Region, size_t K,
                      const PgdConfig &Config, Rng &R,
                      const Vector *WarmStart = nullptr);

} // namespace charon

#endif // CHARON_OPT_PGD_H
