//===- ReluVal.cpp - ReluVal baseline (symbolic intervals) --------------------===//

#include "baselines/ReluVal.h"

#include "abstract/LinearBoundsElement.h"
#include "support/Timer.h"

#include <limits>
#include <vector>

using namespace charon;

namespace {

/// One symbolic-interval pass over \p Region. Returns the proof margin and,
/// via \p SplitDim, the input dimension with the largest smear.
double analyzeRegion(const Network &Net, const Box &Region, size_t K,
                     size_t &SplitDim) {
  LinearBoundsElement Elem(Region,
                           LinearBoundsElement::ReluRelaxation::Concretize);
  propagate(Net, Elem);

  double Margin = std::numeric_limits<double>::infinity();
  for (size_t J = 0, E = Net.outputSize(); J < E; ++J) {
    if (J == K)
      continue;
    Margin = std::min(Margin, Elem.lowerBoundDiff(K, J));
  }

  SplitDim = 0;
  double BestSmear = -1.0;
  for (size_t D = 0, E = Region.dim(); D < E; ++D) {
    if (Region.width(D) == 0.0)
      continue;
    double S = Elem.smear(D);
    if (S > BestSmear) {
      BestSmear = S;
      SplitDim = D;
    }
  }
  return Margin;
}

} // namespace

ReluValResult charon::reluvalVerify(const Network &Net,
                                    const RobustnessProperty &Prop,
                                    const ReluValConfig &Config) {
  Deadline Budget(Config.TimeLimitSeconds);
  Stopwatch Watch;
  ReluValResult Result;

  std::vector<std::pair<Box, int>> Work;
  Work.emplace_back(Prop.Region, 0);

  while (!Work.empty()) {
    if (Budget.expired()) {
      Result.Result = Outcome::Timeout;
      Result.Seconds = Watch.seconds();
      return Result;
    }
    auto [Region, Depth] = std::move(Work.back());
    Work.pop_back();

    // Concrete probe: ReluVal notices violations only when a concretely
    // evaluated point breaks the property.
    Vector Center = Region.center();
    if (Net.objective(Center, Prop.TargetClass) <= 0.0) {
      Result.Result = Outcome::Falsified;
      Result.Counterexample = std::move(Center);
      Result.Seconds = Watch.seconds();
      return Result;
    }

    size_t SplitDim = 0;
    ++Result.AnalyzeCalls;
    double Margin = analyzeRegion(Net, Region, Prop.TargetClass, SplitDim);
    if (Margin > 0.0)
      continue; // Subregion verified.

    if (Depth + 1 > Config.MaxDepth) {
      Result.Result = Outcome::Timeout;
      Result.Seconds = Watch.seconds();
      return Result;
    }
    ++Result.Splits;
    double Mid =
        0.5 * (Region.lower()[SplitDim] + Region.upper()[SplitDim]);
    auto [Left, Right] = Region.split(SplitDim, Mid);
    Work.emplace_back(std::move(Left), Depth + 1);
    Work.emplace_back(std::move(Right), Depth + 1);
  }

  Result.Result = Outcome::Verified;
  Result.Seconds = Watch.seconds();
  return Result;
}
