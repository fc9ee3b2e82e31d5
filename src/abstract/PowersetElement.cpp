//===- PowersetElement.cpp - Bounded powerset abstract domain ----------------===//

#include "abstract/PowersetElement.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace charon;

PowersetElement::PowersetElement(std::unique_ptr<AbstractElement> Initial,
                                 int MaxDisjuncts)
    : Budget(MaxDisjuncts) {
  assert(Initial && "null initial element");
  assert(MaxDisjuncts >= 1 && "powerset needs at least one disjunct");
  Base = Initial->clone();
  Elems.push_back(std::move(Initial));
}

PowersetElement::PowersetElement(
    std::vector<std::unique_ptr<AbstractElement>> Elements, int MaxDisjuncts,
    std::unique_ptr<AbstractElement> Baseline)
    : Elems(std::move(Elements)), Budget(MaxDisjuncts),
      Base(std::move(Baseline)) {
  assert(!Elems.empty() && "powerset must be nonempty");
  assert(Base && "null baseline");
}

std::unique_ptr<AbstractElement> PowersetElement::clone() const {
  std::vector<std::unique_ptr<AbstractElement>> Copy;
  Copy.reserve(Elems.size());
  for (const auto &E : Elems)
    Copy.push_back(E->clone());
  return std::make_unique<PowersetElement>(std::move(Copy), Budget,
                                           Base->clone());
}

size_t PowersetElement::dim() const { return Elems.front()->dim(); }

void PowersetElement::applyAffine(const Matrix &W, const Vector &B) {
  for (auto &E : Elems)
    E->applyAffine(W, B);
  Base->applyAffine(W, B);
}

void PowersetElement::applyConv(const AffineView &View) {
  for (auto &E : Elems)
    E->applyConv(View);
  Base->applyConv(View);
}

void PowersetElement::applyActivation(ActivationKind K, size_t Begin,
                                      size_t End) {
  // Case splits only help where the activation has a kink: ReLU crossing
  // neurons. The smooth kinds are relaxed in place by every disjunct — they
  // contribute relaxation slack, never split candidates.
  if (K == ActivationKind::Relu) {
    // Greedily pick the crossing neuron with the widest straddling interval
    // (over the union) and split every disjunct on it, while both halves of
    // every disjunct still fit in the budget. Each neuron is split at most
    // once per ReLU application (the zonotope halfspace meet is approximate,
    // so a split dimension can keep straddling zero slightly).
    std::vector<bool> AlreadySplit(dim(), false);
    for (;;) {
      if (static_cast<int>(Elems.size()) * 2 > Budget)
        break;

      size_t BestDim = End;
      double BestScore = 0.0;
      for (size_t I = Begin; I < End; ++I) {
        if (AlreadySplit[I])
          continue;
        double Lo = lowerBound(I);
        double Hi = upperBound(I);
        if (Lo >= 0.0 || Hi <= 0.0)
          continue; // Not a crossing neuron.
        // Score by the ReLU approximation error the neuron would introduce:
        // proportional to |Lo| * Hi / (Hi - Lo).
        double Score = -Lo * Hi / (Hi - Lo);
        if (Score > BestScore) {
          BestScore = Score;
          BestDim = I;
        }
      }
      if (BestDim == End)
        break; // No crossing neurons left.
      AlreadySplit[BestDim] = true;

      std::vector<std::unique_ptr<AbstractElement>> Split;
      Split.reserve(Elems.size() * 2);
      for (auto &E : Elems) {
        auto Neg = E->meetHalfspaceAtZero(BestDim, /*NonNegative=*/false);
        auto Pos = E->meetHalfspaceAtZero(BestDim, /*NonNegative=*/true);
        // Both sides empty cannot happen for a nonempty disjunct; if numeric
        // tightening ever claims it, keep the undivided element to stay
        // sound.
        if (!Neg && !Pos) {
          Split.push_back(std::move(E));
          continue;
        }
        if (Neg)
          Split.push_back(std::move(Neg));
        if (Pos)
          Split.push_back(std::move(Pos));
      }
      assert(!Split.empty() && "all disjuncts vanished during split");
      Elems = std::move(Split);
    }
  }

  for (auto &E : Elems)
    E->applyActivation(K, Begin, End);
  Base->applyActivation(K, Begin, End);
}

void PowersetElement::applyMaxPool(const PoolSpec &Spec) {
  for (auto &E : Elems)
    E->applyMaxPool(Spec);
  Base->applyMaxPool(Spec);
}

double PowersetElement::lowerBound(size_t I) const {
  double Best = std::numeric_limits<double>::infinity();
  for (const auto &E : Elems)
    Best = std::min(Best, E->lowerBound(I));
  return std::max(Best, Base->lowerBound(I));
}

double PowersetElement::upperBound(size_t I) const {
  double Best = -std::numeric_limits<double>::infinity();
  for (const auto &E : Elems)
    Best = std::max(Best, E->upperBound(I));
  return std::min(Best, Base->upperBound(I));
}

double PowersetElement::lowerBoundDiff(size_t K, size_t J) const {
  // The property must hold on every disjunct, so the bound is the min.
  double Best = std::numeric_limits<double>::infinity();
  for (const auto &E : Elems)
    Best = std::min(Best, E->lowerBoundDiff(K, J));
  return std::max(Best, Base->lowerBoundDiff(K, J));
}

std::unique_ptr<AbstractElement>
PowersetElement::meetHalfspaceAtZero(size_t D, bool NonNegative) const {
  // A sound emptiness proof from the baseline trumps the disjunct meets.
  std::unique_ptr<AbstractElement> MetBase =
      Base->meetHalfspaceAtZero(D, NonNegative);
  if (!MetBase)
    return nullptr;
  std::vector<std::unique_ptr<AbstractElement>> Met;
  for (const auto &E : Elems)
    if (auto M = E->meetHalfspaceAtZero(D, NonNegative))
      Met.push_back(std::move(M));
  if (Met.empty())
    return nullptr;
  return std::make_unique<PowersetElement>(std::move(Met), Budget,
                                           std::move(MetBase));
}
