//===- Analyzer.h - Abstract interpretation of networks ----------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Analyze procedure of Algorithm 1: pushes an abstraction of the input
/// region through the network's abstract transformers under a chosen domain
/// and checks whether the abstract output proves the robustness property
/// (N(x)_K > N(x)_j for all j != K and all x in the region).
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_ABSTRACT_ANALYZER_H
#define CHARON_ABSTRACT_ANALYZER_H

#include "abstract/AbstractElement.h"
#include "linalg/Box.h"
#include "linalg/SimdDispatch.h"
#include "nn/Network.h"
#include "support/Timer.h"

#include <memory>
#include <string>

namespace charon {

/// Base numeric domain selectable by the paper's domain policy (Sec. 4.1).
enum class BaseDomainKind {
  Interval,        ///< boxes (Cousot & Cousot)
  Zonotope,        ///< zonotopes (Taylor1+)
  SymbolicInterval, ///< ReluVal's symbolic intervals (baseline only)
  Polyhedra        ///< relational sub-polyhedra (DeepPoly-style relaxation)
};

/// An abstract domain choice: a base domain plus a disjunct budget, e.g.
/// (Zonotope, 2) is the powerset-of-zonotopes domain with two disjuncts and
/// (Interval, 1) is the plain interval domain (Sec. 4.1's phi_alpha range).
struct DomainSpec {
  BaseDomainKind Base = BaseDomainKind::Zonotope;
  int Disjuncts = 1;

  bool operator==(const DomainSpec &O) const {
    return Base == O.Base && Disjuncts == O.Disjuncts;
  }
};

/// Human-readable name like "Zonotope^2" (for reports).
std::string toString(const DomainSpec &Spec);

/// Builds the initial abstraction of \p Region under \p Spec. Every domain
/// runs in double precision; \p Precision has that one value.
std::unique_ptr<AbstractElement>
makeElement(const Box &Region, const DomainSpec &Spec,
            KernelPrecision Precision = KernelPrecision::Double);

/// Result of one abstract-interpretation run.
struct AnalysisResult {
  /// True when the abstraction proves the property.
  bool Verified = false;
  /// True when the run was abandoned at a deadline (Verified is false and
  /// Margin is meaningless).
  bool TimedOut = false;
  /// min over j != K of the sound lower bound on N(x)_K - N(x)_j. Positive
  /// iff Verified; its magnitude measures how far the proof succeeded or
  /// failed, which the verification-policy features consume.
  double Margin = 0.0;
};

/// Runs the network's abstract transformers on \p Region under \p Spec and
/// checks the robustness property with target class \p K. When \p Budget is
/// non-null the propagation is abandoned between layers once it expires
/// (expensive powerset analyses on convolutional nets need this).
/// \p Precision as in makeElement.
AnalysisResult
analyzeRobustness(const Network &Net, const Box &Region, size_t K,
                  const DomainSpec &Spec, const Deadline *Budget = nullptr,
                  KernelPrecision Precision = KernelPrecision::Double);

/// Propagates \p Elem through the network in place (exposed for testing and
/// for baselines that inspect the final element). Returns false when the
/// propagation was abandoned because \p Budget expired.
bool propagate(const Network &Net, AbstractElement &Elem,
               const Deadline *Budget = nullptr);

} // namespace charon

#endif // CHARON_ABSTRACT_ANALYZER_H
