//===- OptTests.cpp - Tests for the optimization library ----------------------===//

#include "opt/BayesOpt.h"
#include "opt/GaussianProcess.h"
#include "opt/Pgd.h"

#include "nn/Builder.h"
#include "nn/Dense.h"
#include "nn/Relu.h"
#include "support/Random.h"

#include "TestNetworks.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace charon;

namespace {


} // namespace

//===----------------------------------------------------------------------===//
// PGD
//===----------------------------------------------------------------------===//

TEST(PgdTest, FindsCounterexampleWhenRegionCrossesBoundary) {
  // XOR network: region straddling the decision boundary around (0.5, 0.5)
  // contains points of both classes, so PGD must find a violation of
  // "everything is class 1".
  Network Net = testing_nets::makeXorNetwork();
  Box Region = Box::uniform(2, 0.1, 0.9);
  Rng R(3);
  PgdConfig Config;
  Config.Restarts = 5;
  PgdResult Result = pgdMinimize(Net, Region, 1, Config, R);
  EXPECT_LE(Result.Objective, 0.0);
  EXPECT_TRUE(Region.contains(Result.X, 1e-9));
  // The witness must be a true counterexample.
  EXPECT_NE(Net.classify(Result.X), 1u);
}

TEST(PgdTest, NoCounterexampleOnRobustRegion) {
  // Example 3.1's region [0.3, 0.7]^2 is robust for class 1; PGD must
  // return a positive objective (and, per delta-completeness, never a
  // spurious witness).
  Network Net = testing_nets::makeXorNetwork();
  Box Region = Box::uniform(2, 0.3, 0.7);
  Rng R(5);
  PgdConfig Config;
  Config.Restarts = 6;
  Config.Steps = 60;
  PgdResult Result = pgdMinimize(Net, Region, 1, Config, R);
  EXPECT_GT(Result.Objective, 0.0);
}

TEST(PgdTest, ResultAlwaysInsideRegion) {
  Rng NetRng(7);
  Network Net = makeMlp(4, {8}, 3, NetRng);
  Rng R(8);
  for (int T = 0; T < 5; ++T) {
    Vector Center(4);
    for (size_t I = 0; I < 4; ++I)
      Center[I] = R.uniform(-1.0, 1.0);
    Box Region = Box::linfBall(Center, 0.2, -2.0, 2.0);
    PgdResult Result = pgdMinimize(Net, Region, 0, PgdConfig(), R);
    EXPECT_TRUE(Region.contains(Result.X, 1e-9));
    // Reported objective matches a fresh evaluation at the witness.
    EXPECT_NEAR(Result.Objective, Net.objective(Result.X, 0), 1e-12);
  }
}

TEST(PgdTest, BeatsCenterObjective) {
  // PGD only ever improves on its starting point.
  Rng NetRng(9);
  Network Net = makeMlp(3, {10, 10}, 4, NetRng);
  Rng R(10);
  Box Region = Box::uniform(3, -0.5, 0.5);
  PgdResult Result = pgdMinimize(Net, Region, 2, PgdConfig(), R);
  EXPECT_LE(Result.Objective, Net.objective(Region.center(), 2) + 1e-12);
}

TEST(PgdTest, ZeroWidthRegionReturnsThePoint) {
  Network Net = testing_nets::makeXorNetwork();
  Vector P{0.4, 0.6};
  Box Region(P, P);
  Rng R(11);
  PgdResult Result = pgdMinimize(Net, Region, 1, PgdConfig(), R);
  EXPECT_TRUE(approxEqual(Result.X, P, 1e-12));
}

//===----------------------------------------------------------------------===//
// Gaussian process
//===----------------------------------------------------------------------===//

TEST(GpTest, InterpolatesTrainingPoints) {
  GpConfig C;
  C.NoiseVariance = 1e-8;
  GaussianProcess Gp(C);
  std::vector<Vector> Xs{Vector{0.0}, Vector{1.0}, Vector{2.0}};
  Vector Ys{0.0, 1.0, 0.0};
  ASSERT_TRUE(Gp.fit(Xs, Ys));
  for (size_t I = 0; I < Xs.size(); ++I) {
    GpPrediction P = Gp.predict(Xs[I]);
    EXPECT_NEAR(P.Mean, Ys[I], 1e-3);
    EXPECT_LT(P.Variance, 1e-3);
  }
}

TEST(GpTest, UncertaintyGrowsAwayFromData) {
  GaussianProcess Gp;
  ASSERT_TRUE(Gp.fit({Vector{0.0}}, Vector{1.0}));
  GpPrediction Near = Gp.predict(Vector{0.1});
  GpPrediction Far = Gp.predict(Vector{5.0});
  EXPECT_LT(Near.Variance, Far.Variance);
}

TEST(GpTest, KernelIsSymmetricAndPeaked) {
  GaussianProcess Gp;
  Vector A{0.0, 0.0}, B{1.0, 1.0};
  EXPECT_DOUBLE_EQ(Gp.kernel(A, B), Gp.kernel(B, A));
  EXPECT_GT(Gp.kernel(A, A), Gp.kernel(A, B));
}

TEST(GpTest, SurvivesDuplicateInputs) {
  GaussianProcess Gp;
  // Duplicate rows make the kernel singular without jitter escalation.
  EXPECT_TRUE(
      Gp.fit({Vector{1.0}, Vector{1.0}, Vector{2.0}}, Vector{1.0, 1.0, 3.0}));
}

//===----------------------------------------------------------------------===//
// Expected improvement
//===----------------------------------------------------------------------===//

TEST(EiTest, ZeroWhenCertainAndWorse) {
  EXPECT_DOUBLE_EQ(expectedImprovement(0.0, 0.0, 1.0, 0.0), 0.0);
}

TEST(EiTest, PositiveWhenCertainAndBetter) {
  EXPECT_NEAR(expectedImprovement(2.0, 0.0, 1.0, 0.0), 1.0, 1e-12);
}

TEST(EiTest, UncertaintyCreatesValue) {
  // Same mean as incumbent: EI is positive only through variance.
  double Certain = expectedImprovement(1.0, 0.0, 1.0, 0.0);
  double Uncertain = expectedImprovement(1.0, 1.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(Certain, 0.0);
  EXPECT_GT(Uncertain, 0.0);
}

TEST(EiTest, MonotoneInMean) {
  EXPECT_GT(expectedImprovement(2.0, 0.5, 1.0, 0.0),
            expectedImprovement(1.5, 0.5, 1.0, 0.0));
}

//===----------------------------------------------------------------------===//
// Bayesian optimization
//===----------------------------------------------------------------------===//

TEST(BayesOptTest, MaximizesSmoothFunction) {
  // max of -(x - 0.3)^2 on [-1, 1] is at 0.3.
  auto Objective = [](const Vector &X) {
    return -(X[0] - 0.3) * (X[0] - 0.3);
  };
  Rng R(13);
  BayesOptConfig C;
  C.InitialSamples = 6;
  C.Iterations = 30;
  BayesOptResult Result =
      bayesOptimize(Objective, Box::uniform(1, -1.0, 1.0), C, R);
  EXPECT_NEAR(Result.BestX[0], 0.3, 0.1);
  EXPECT_GT(Result.BestY, -0.01);
}

TEST(BayesOptTest, BeatsPureRandomOnAverage) {
  // On a 2-d multimodal function, GP-guided search should match or beat
  // random sampling with the same budget.
  auto Objective = [](const Vector &X) {
    return std::sin(3.0 * X[0]) * std::cos(2.0 * X[1]) -
           0.2 * (X[0] * X[0] + X[1] * X[1]);
  };
  Box Domain = Box::uniform(2, -2.0, 2.0);

  Rng BoRng(15);
  BayesOptConfig C;
  C.InitialSamples = 8;
  C.Iterations = 24;
  BayesOptResult Bo = bayesOptimize(Objective, Domain, C, BoRng);

  Rng RandRng(16);
  double RandomBest = -1e18;
  for (int I = 0; I < 32; ++I)
    RandomBest = std::max(RandomBest, Objective(Domain.sample(RandRng)));

  EXPECT_GE(Bo.BestY, RandomBest - 0.15);
}

TEST(BayesOptTest, HistoryMatchesBudgetAndContainsBest) {
  auto Objective = [](const Vector &X) { return -std::fabs(X[0]); };
  Rng R(17);
  BayesOptConfig C;
  C.InitialSamples = 4;
  C.Iterations = 6;
  BayesOptResult Result =
      bayesOptimize(Objective, Box::uniform(1, -1.0, 1.0), C, R);
  EXPECT_EQ(Result.History.size(), 10u);
  double BestInHistory = -1e18;
  for (const auto &S : Result.History)
    BestInHistory = std::max(BestInHistory, S.Y);
  EXPECT_DOUBLE_EQ(Result.BestY, BestInHistory);
}

TEST(BayesOptTest, DeterministicForSameSeed) {
  auto Objective = [](const Vector &X) { return -X[0] * X[0]; };
  Box Domain = Box::uniform(1, -1.0, 1.0);
  BayesOptConfig C;
  C.InitialSamples = 4;
  C.Iterations = 8;
  Rng R1(19), R2(19);
  BayesOptResult A = bayesOptimize(Objective, Domain, C, R1);
  BayesOptResult B = bayesOptimize(Objective, Domain, C, R2);
  EXPECT_DOUBLE_EQ(A.BestY, B.BestY);
  EXPECT_TRUE(approxEqual(A.BestX, B.BestX, 0.0));
}
