//===- Analyzer.cpp - Abstract interpretation of networks --------------------===//

#include "abstract/Analyzer.h"

#include "abstract/IntervalElement.h"
#include "abstract/LinearBoundsElement.h"
#include "abstract/PowersetElement.h"
#include "abstract/ZonotopeElement.h"
#include "nn/Residual.h"
#include "support/Check.h"

#include <limits>

using namespace charon;

std::string charon::toString(const DomainSpec &Spec) {
  std::string Name;
  switch (Spec.Base) {
  case BaseDomainKind::Interval:
    Name = "Interval";
    break;
  case BaseDomainKind::Zonotope:
    Name = "Zonotope";
    break;
  case BaseDomainKind::SymbolicInterval:
    Name = "SymbolicInterval";
    break;
  case BaseDomainKind::Polyhedra:
    Name = "Polyhedra";
    break;
  }
  if (Spec.Disjuncts > 1)
    Name += "^" + std::to_string(Spec.Disjuncts);
  return Name;
}

std::unique_ptr<AbstractElement> charon::makeElement(const Box &Region,
                                                     const DomainSpec &Spec,
                                                     KernelPrecision) {
  using Relu = LinearBoundsElement::ReluRelaxation;
  std::unique_ptr<AbstractElement> Base;
  switch (Spec.Base) {
  case BaseDomainKind::Interval:
    Base = std::make_unique<IntervalElement>(Region);
    break;
  case BaseDomainKind::Zonotope:
    Base = std::make_unique<ZonotopeElement>(Region);
    break;
  case BaseDomainKind::SymbolicInterval:
    assert(Spec.Disjuncts == 1 &&
           "symbolic intervals do not support powerset lifting");
    Base = std::make_unique<LinearBoundsElement>(Region, Relu::Concretize);
    break;
  case BaseDomainKind::Polyhedra:
    Base = std::make_unique<LinearBoundsElement>(Region, Relu::Triangle);
    break;
  }
  if (Spec.Disjuncts > 1)
    return std::make_unique<PowersetElement>(std::move(Base), Spec.Disjuncts);
  return Base;
}

bool charon::propagate(const Network &Net, AbstractElement &Elem,
                       const Deadline *Budget) {
  for (size_t I = 0, E = Net.numLayers(); I < E; ++I) {
    if (Budget && Budget->expired())
      return false;
    const Layer &L = Net.layer(I);
    if (L.isIdentity())
      continue; // Flatten / Reshape: identity on the flat vector.
    if (auto Affine = L.affineForm()) {
      if (Affine->Conv)
        Elem.applyConv(*Affine);
      else
        Elem.applyAffine(*Affine->W, *Affine->B);
      continue;
    }
    if (auto Act = L.activationKind()) {
      Elem.applyActivation(*Act, 0, Elem.dim());
      continue;
    }
    if (const PoolSpec *Spec = L.poolSpec()) {
      Elem.applyMaxPool(*Spec);
      continue;
    }
    if (L.kind() == LayerKind::Residual) {
      // y = x + F(x) over the duplicated state [x; z]: every step of the
      // cached plan is an exact affine map or a ranged activation on the
      // working half, so propagation through the block is as precise as the
      // body layers themselves.
      const auto &Plan = static_cast<const ResidualLayer &>(L).plan();
      Elem.applyAffine(Plan.DupW, Plan.DupB);
      for (const ResidualLayer::ResidualStep &Step : Plan.Steps) {
        if (Budget && Budget->expired())
          return false;
        if (Step.IsAffine)
          Elem.applyAffine(Step.W, Step.B);
        else
          Elem.applyActivation(Step.Act, Step.Begin, Step.End);
      }
      Elem.applyAffine(Plan.SumW, Plan.SumB);
      continue;
    }
    charon_unreachable("layer exposes no abstract transformer");
  }
  return true;
}

AnalysisResult charon::analyzeRobustness(const Network &Net, const Box &Region,
                                         size_t K, const DomainSpec &Spec,
                                         const Deadline *Budget,
                                         KernelPrecision Precision) {
  assert(Region.dim() == Net.inputSize() && "region/network size mismatch");
  assert(K < Net.outputSize() && "target class out of range");
  std::unique_ptr<AbstractElement> Elem = makeElement(Region, Spec, Precision);
  if (!propagate(Net, *Elem, Budget)) {
    AnalysisResult Result;
    Result.TimedOut = true;
    return Result;
  }

  AnalysisResult Result;
  Result.Margin = std::numeric_limits<double>::infinity();
  for (size_t J = 0, E = Net.outputSize(); J < E; ++J) {
    if (J == K)
      continue;
    Result.Margin = std::min(Result.Margin, Elem->lowerBoundDiff(K, J));
  }
  Result.Verified = Result.Margin > 0.0;
  return Result;
}
