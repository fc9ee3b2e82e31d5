//===- Policy.cpp - Verification policies (domain + partition) ----------------===//

#include "core/Policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace charon;

namespace {

/// Clips to [0, 1] (the paper's selection functions clip to a fixed range
/// before discretizing).
double clip01(double X) { return std::min(std::max(X, 0.0), 1.0); }

/// Squashes an unbounded policy activation into [0, 1] smoothly so that
/// Bayesian optimization sees gradients of behaviour across theta space.
double squash(double X) { return clip01(0.5 + 0.5 * std::tanh(X)); }

} // namespace

VerificationPolicy::VerificationPolicy()
    : Theta(PolicyNumOutputs, PolicyNumFeatures) {
  // Hand-tuned defaults (see header). Feature order:
  //   0: |center(I) - x*|, 1: F(x*), 2: |grad F(x*)|, 3: mean width, 4: bias.
  // Output 0: base domain (squash < 0.5 => Interval, else Zonotope).
  Theta(0, 4) = 0.6; // lean zonotope
  // Output 1: disjunct budget (squash over {1, 2, 4, 8}).
  Theta(1, 1) = -0.5; // small margins => more disjuncts
  Theta(1, 4) = -0.4; // default to few disjuncts
  // Outputs 2/3: dimension scores (longest vs most influential).
  Theta(2, 4) = 1.0; // default to the longest dimension
  Theta(3, 2) = 0.5; // strong gradients favour the influence dimension
  // Output 4: cut offset ratio (0 => bisect, 1 => cut through x*).
  Theta(4, 4) = -1.0; // default to bisection
}

VerificationPolicy::VerificationPolicy(Matrix Parameters)
    : Theta(std::move(Parameters)) {
  assert(Theta.rows() == PolicyNumOutputs &&
         Theta.cols() == PolicyNumFeatures && "policy parameter shape");
}

Vector VerificationPolicy::flatten() const {
  Vector Flat(numParameters());
  size_t Idx = 0;
  for (size_t R = 0; R < PolicyNumOutputs; ++R)
    for (size_t C = 0; C < PolicyNumFeatures; ++C)
      Flat[Idx++] = Theta(R, C);
  return Flat;
}

VerificationPolicy VerificationPolicy::fromFlat(const Vector &Flat) {
  assert(Flat.size() == numParameters() && "flattened parameter size");
  Matrix Theta(PolicyNumOutputs, PolicyNumFeatures);
  size_t Idx = 0;
  for (size_t R = 0; R < PolicyNumOutputs; ++R)
    for (size_t C = 0; C < PolicyNumFeatures; ++C)
      Theta(R, C) = Flat[Idx++];
  return VerificationPolicy(std::move(Theta));
}

Vector VerificationPolicy::featurize(const Network &Net,
                                     const RobustnessProperty &Prop,
                                     const Vector &XStar, double FStar) {
  const Box &I = Prop.Region;
  Vector Features(PolicyNumFeatures);
  // Features are normalized to be commensurable across input
  // dimensionalities so a policy trained on the 5-d ACAS problems
  // transfers to 100-d image networks (the paper's deployment story).
  double Diameter = I.diameter();
  Features[0] =
      Diameter > 0.0 ? distance2(I.center(), XStar) / Diameter : 0.0;
  Features[1] = FStar;
  Features[2] = norm2(Net.objectiveGradient(XStar, Prop.TargetClass)) /
                std::sqrt(static_cast<double>(I.dim()));
  double MeanWidth = 0.0;
  for (size_t D = 0, E = I.dim(); D < E; ++D)
    MeanWidth += I.width(D);
  Features[3] = MeanWidth / static_cast<double>(I.dim());
  Features[4] = 1.0; // bias
  return Features;
}

DomainSpec VerificationPolicy::chooseDomain(const Vector &Rho) const {
  Vector Out = matVec(Theta, Rho);

  DomainSpec Spec;
  Spec.Base = squash(Out[0]) < 0.5 ? BaseDomainKind::Interval
                                   : BaseDomainKind::Zonotope;
  // Discretize the second output over the disjunct menu {1, 2, 4, 8}.
  static constexpr int Menu[4] = {1, 2, 4, 8};
  int Idx = std::min(3, static_cast<int>(squash(Out[1]) * 4.0));
  Spec.Disjuncts = Menu[Idx];
  return Spec;
}

SplitChoice VerificationPolicy::choosePartition(const Network &Net,
                                                const RobustnessProperty &Prop,
                                                const Vector &XStar,
                                                const Vector &Rho) const {
  const Box &I = Prop.Region;
  Vector Out = matVec(Theta, Rho);

  // Candidate 1: the longest dimension.
  size_t LongestDim = I.longestDim();

  // Candidate 2: the dimension with the largest influence on N(x)_K —
  // gradient of the target-class score at x*, weighted by the width the
  // split could remove (ReluVal's smear, Sec. 6).
  Vector Seed(Net.outputSize());
  Seed[Prop.TargetClass] = 1.0;
  Vector Grad = Net.inputGradient(XStar, Seed);
  size_t InfluenceDim = LongestDim;
  double BestInfluence = -1.0;
  for (size_t D = 0, E = I.dim(); D < E; ++D) {
    double Influence = std::fabs(Grad[D]) * I.width(D);
    if (Influence > BestInfluence) {
      BestInfluence = Influence;
      InfluenceDim = D;
    }
  }

  SplitChoice Choice;
  Choice.Dim = Out[2] >= Out[3] ? LongestDim : InfluenceDim;
  // Degenerate guard: never split a zero-width dimension when a wider one
  // exists.
  if (I.width(Choice.Dim) == 0.0)
    Choice.Dim = LongestDim;

  // Offset: ratio in [0, 1] of the way from the region center to x* along
  // the chosen dimension (0 = bisect, 1 = cut through x*). Box::split
  // nudges boundary cuts inward, satisfying Assumption 1.
  double Ratio = clip01(squash(Out[4]));
  double Center = 0.5 * (I.lower()[Choice.Dim] + I.upper()[Choice.Dim]);
  Choice.Cut = Center + Ratio * (XStar[Choice.Dim] - Center);
  return Choice;
}
