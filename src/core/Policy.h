//===- Policy.h - Verification policies (domain + partition) ------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verification policy pi_theta = (pi_alpha, pi_I) of Sec. 4: both
/// policies share the shape phi(theta * rho(N, I, K, x*)) — a featurization
/// rho, a learned parameter matrix theta, and a selection function phi that
/// turns the resulting real vector into either an abstract domain
/// (pi_alpha) or an axis-aligned splitting hyperplane (pi_I).
///
/// Features (Sec. 6): distance from the region center to the optimizer
/// result x*, the objective value F(x*), the gradient magnitude at x*, and
/// the average input-dimension length, plus a constant bias term.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_CORE_POLICY_H
#define CHARON_CORE_POLICY_H

#include "abstract/Analyzer.h"
#include "core/Property.h"
#include "linalg/Matrix.h"
#include "nn/Network.h"

namespace charon {

/// Number of features produced by the featurization (4 + bias).
inline constexpr size_t PolicyNumFeatures = 5;

/// Number of policy outputs: 2 for the domain policy (base domain,
/// disjunct count) + 3 for the partition policy (two dimension scores and
/// the cut offset) — Sec. 6's selection-function arities.
inline constexpr size_t PolicyNumOutputs = 5;

/// A chosen input-region split: hyperplane x_Dim = Cut.
struct SplitChoice {
  size_t Dim = 0;
  double Cut = 0.0;
};

/// Learned verification policy pi_theta = (pi_alpha, pi_I).
class VerificationPolicy {
public:
  /// Identity-free default: a hand-tuned theta that prefers zonotopes with
  /// a small disjunct budget and bisects the longest dimension — the
  /// starting point Bayesian optimization improves upon.
  VerificationPolicy();

  /// Policy with explicit parameters (PolicyNumOutputs x PolicyNumFeatures).
  explicit VerificationPolicy(Matrix Parameters);

  /// Flattened theta as a vector (row-major), the representation Bayesian
  /// optimization searches over.
  Vector flatten() const;

  /// Rebuilds a policy from a flattened parameter vector.
  static VerificationPolicy fromFlat(const Vector &Flat);

  /// Total number of learned parameters.
  static size_t numParameters() {
    return PolicyNumFeatures * PolicyNumOutputs;
  }

  /// rho(N, I, K, x*): the feature vector of Sec. 6.
  static Vector featurize(const Network &Net, const RobustnessProperty &Prop,
                          const Vector &XStar, double FStar);

  /// pi_alpha: picks the abstract domain for a subproblem whose features
  /// featurize() returned as \p Rho.
  DomainSpec chooseDomain(const Vector &Rho) const;

  /// pi_alpha, featurizing the subproblem first.
  DomainSpec chooseDomain(const Network &Net, const RobustnessProperty &Prop,
                          const Vector &XStar, double FStar) const {
    return chooseDomain(featurize(Net, Prop, XStar, FStar));
  }

  /// pi_I: picks the splitting hyperplane, given the subproblem's features
  /// \p Rho. The returned cut is strictly interior (Assumption 1), choosing
  /// between the longest dimension and the dimension with the largest
  /// influence on N(x)_K, with the offset interpreted as a ratio from the
  /// region center toward x* (Sec. 6).
  SplitChoice choosePartition(const Network &Net,
                              const RobustnessProperty &Prop,
                              const Vector &XStar, const Vector &Rho) const;

  /// pi_I, featurizing the subproblem first.
  SplitChoice choosePartition(const Network &Net,
                              const RobustnessProperty &Prop,
                              const Vector &XStar, double FStar) const {
    return choosePartition(Net, Prop, XStar,
                           featurize(Net, Prop, XStar, FStar));
  }

  const Matrix &parameters() const { return Theta; }

private:
  Matrix Theta;
};

} // namespace charon

#endif // CHARON_CORE_POLICY_H
