//===- AbstractTests.cpp - Tests for the abstract interpretation library -----===//

#include "abstract/Analyzer.h"
#include "abstract/IntervalElement.h"
#include "abstract/LinearBoundsElement.h"
#include "abstract/PowersetElement.h"
#include "abstract/ZonotopeElement.h"
#include "nn/Builder.h"
#include "nn/Dense.h"
#include "nn/MaxPool2D.h"
#include "nn/Relu.h"
#include "support/Random.h"

#include "TestNetworks.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace charon;

namespace {



} // namespace

//===----------------------------------------------------------------------===//
// IntervalElement transformers
//===----------------------------------------------------------------------===//

TEST(IntervalTest, AffineHandChecked) {
  IntervalElement E(Box(Vector{0.0, -1.0}, Vector{1.0, 1.0}));
  E.applyAffine(Matrix{{2.0, -1.0}}, Vector{0.5});
  // 2*[0,1] - 1*[-1,1] + 0.5 = [-0.5, 3.5].
  EXPECT_DOUBLE_EQ(E.lowerBound(0), -0.5);
  EXPECT_DOUBLE_EQ(E.upperBound(0), 3.5);
}

TEST(IntervalTest, ReluClamps) {
  IntervalElement E(Box(Vector{-2.0, 1.0, -3.0}, Vector{-1.0, 2.0, 3.0}));
  E.applyRelu();
  EXPECT_DOUBLE_EQ(E.lowerBound(0), 0.0);
  EXPECT_DOUBLE_EQ(E.upperBound(0), 0.0);
  EXPECT_DOUBLE_EQ(E.lowerBound(1), 1.0);
  EXPECT_DOUBLE_EQ(E.upperBound(1), 2.0);
  EXPECT_DOUBLE_EQ(E.lowerBound(2), 0.0);
  EXPECT_DOUBLE_EQ(E.upperBound(2), 3.0);
}

TEST(IntervalTest, MaxPool) {
  IntervalElement E(Box(Vector{0.0, 2.0, -1.0, 1.0}, Vector{1.0, 3.0, 0.0, 5.0}));
  PoolSpec Spec;
  Spec.PoolIndices = {{0, 1}, {2, 3}};
  E.applyMaxPool(Spec);
  EXPECT_DOUBLE_EQ(E.lowerBound(0), 2.0);
  EXPECT_DOUBLE_EQ(E.upperBound(0), 3.0);
  EXPECT_DOUBLE_EQ(E.lowerBound(1), 1.0);
  EXPECT_DOUBLE_EQ(E.upperBound(1), 5.0);
}

TEST(IntervalTest, MeetHalfspace) {
  IntervalElement E(Box(Vector{-1.0}, Vector{2.0}));
  auto Pos = E.meetHalfspaceAtZero(0, true);
  ASSERT_TRUE(Pos);
  EXPECT_DOUBLE_EQ(Pos->lowerBound(0), 0.0);
  EXPECT_DOUBLE_EQ(Pos->upperBound(0), 2.0);
  auto Neg = E.meetHalfspaceAtZero(0, false);
  ASSERT_TRUE(Neg);
  EXPECT_DOUBLE_EQ(Neg->upperBound(0), 0.0);

  IntervalElement AllPos(Box(Vector{1.0}, Vector{2.0}));
  EXPECT_EQ(AllPos.meetHalfspaceAtZero(0, false), nullptr);
}

//===----------------------------------------------------------------------===//
// ZonotopeElement transformers
//===----------------------------------------------------------------------===//

TEST(ZonotopeTest, BoxAbstractionIsExact) {
  Box Region(Vector{-1.0, 2.0}, Vector{1.0, 4.0});
  ZonotopeElement Z(Region);
  EXPECT_DOUBLE_EQ(Z.lowerBound(0), -1.0);
  EXPECT_DOUBLE_EQ(Z.upperBound(0), 1.0);
  EXPECT_DOUBLE_EQ(Z.lowerBound(1), 2.0);
  EXPECT_DOUBLE_EQ(Z.upperBound(1), 4.0);
}

TEST(ZonotopeTest, AffineIsExactOnCorrelations) {
  // y0 = x0 + x1, y1 = x0 - x1 over [-1,1]^2: a box loses that
  // y0 + y1 = 2 x0, the zonotope keeps it (diff bound is exact).
  ZonotopeElement Z(Box::uniform(2, -1.0, 1.0));
  Z.applyAffine(Matrix{{1.0, 1.0}, {1.0, -1.0}}, Vector{0.0, 0.0});
  // y0 - y1 = 2 x1 in [-2, 2]; exact via shared noise symbols.
  EXPECT_DOUBLE_EQ(Z.lowerBoundDiff(0, 1), -2.0);
  // A box would give lower(y0) - upper(y1) = -2 - 2 = -4.
  IntervalElement I(Box::uniform(2, -1.0, 1.0));
  I.applyAffine(Matrix{{1.0, 1.0}, {1.0, -1.0}}, Vector{0.0, 0.0});
  EXPECT_DOUBLE_EQ(I.lowerBoundDiff(0, 1), -4.0);
}

TEST(ZonotopeTest, ReluStableCases) {
  ZonotopeElement Z(Box(Vector{1.0, -4.0}, Vector{3.0, -2.0}));
  Z.applyRelu();
  EXPECT_DOUBLE_EQ(Z.lowerBound(0), 1.0);
  EXPECT_DOUBLE_EQ(Z.upperBound(0), 3.0);
  EXPECT_DOUBLE_EQ(Z.lowerBound(1), 0.0);
  EXPECT_DOUBLE_EQ(Z.upperBound(1), 0.0);
}

TEST(ZonotopeTest, ReluCrossingIsSoundAndBounded) {
  // Crossing neuron in [-1, 3]: after ReLU the true range is [0, 3]; the
  // minimal-area relaxation must cover it without exploding.
  ZonotopeElement Z(Box(Vector{-1.0}, Vector{3.0}));
  size_t GensBefore = Z.numGenerators();
  Z.applyRelu();
  EXPECT_EQ(Z.numGenerators(), GensBefore + 1); // one fresh symbol
  EXPECT_LE(Z.lowerBound(0), 0.0);
  EXPECT_GE(Z.upperBound(0), 3.0);
  // Minimal-area: the lower bound is -Lambda*L/... at most the relaxation
  // sag |l|*u/(u-l) = 0.75 below zero.
  EXPECT_GE(Z.lowerBound(0), -0.76);
}

TEST(ZonotopeTest, MaxPoolExactWhenDominant) {
  // Window {x0, x1} with x0 in [5,6], x1 in [0,1]: x0 dominates, pooling is
  // exact and keeps correlations.
  ZonotopeElement Z(Box(Vector{5.0, 0.0}, Vector{6.0, 1.0}));
  PoolSpec Spec;
  Spec.PoolIndices = {{0, 1}};
  Z.applyMaxPool(Spec);
  EXPECT_DOUBLE_EQ(Z.lowerBound(0), 5.0);
  EXPECT_DOUBLE_EQ(Z.upperBound(0), 6.0);
}

TEST(ZonotopeTest, MaxPoolFallbackIsSound) {
  ZonotopeElement Z(Box(Vector{0.0, 0.5}, Vector{2.0, 1.5}));
  PoolSpec Spec;
  Spec.PoolIndices = {{0, 1}};
  Z.applyMaxPool(Spec);
  // True range of max is [0.5, 2].
  EXPECT_LE(Z.lowerBound(0), 0.5);
  EXPECT_GE(Z.upperBound(0), 2.0);
}

TEST(ZonotopeTest, MeetHalfspaceTightensBounds) {
  ZonotopeElement Z(Box(Vector{-2.0}, Vector{2.0}));
  auto Pos = Z.meetHalfspaceAtZero(0, true);
  ASSERT_TRUE(Pos);
  EXPECT_GE(Pos->lowerBound(0), -1e-9);
  EXPECT_NEAR(Pos->upperBound(0), 2.0, 1e-9);
  auto Neg = Z.meetHalfspaceAtZero(0, false);
  ASSERT_TRUE(Neg);
  EXPECT_NEAR(Neg->lowerBound(0), -2.0, 1e-9);
  EXPECT_LE(Neg->upperBound(0), 1e-9);
}

TEST(ZonotopeTest, MeetHalfspaceDetectsEmptiness) {
  ZonotopeElement Z(Box(Vector{1.0}, Vector{2.0}));
  EXPECT_EQ(Z.meetHalfspaceAtZero(0, false), nullptr);
  ZonotopeElement N(Box(Vector{-2.0}, Vector{-1.0}));
  EXPECT_EQ(N.meetHalfspaceAtZero(0, true), nullptr);
}

TEST(ZonotopeTest, MeetHalfspaceNoOpWhenImplied) {
  ZonotopeElement Z(Box(Vector{1.0}, Vector{2.0}));
  auto Pos = Z.meetHalfspaceAtZero(0, true);
  ASSERT_TRUE(Pos);
  EXPECT_DOUBLE_EQ(Pos->lowerBound(0), 1.0);
  EXPECT_DOUBLE_EQ(Pos->upperBound(0), 2.0);
}

TEST(ZonotopeTest, MeetHalfspaceSoundUnderSampling) {
  // gamma(meet(Z, x0 >= 0)) must contain every sampled point of Z with
  // x0 >= 0. Work in a rotated zonotope so the meet is nontrivial.
  ZonotopeElement Z(Box::uniform(2, -1.0, 1.0));
  Z.applyAffine(Matrix{{1.0, 0.5}, {0.3, 1.0}}, Vector{0.1, -0.2});
  auto Met = Z.meetHalfspaceAtZero(0, true);
  ASSERT_TRUE(Met);
  Rng R(31);
  Box Orig = Box::uniform(2, -1.0, 1.0);
  for (int I = 0; I < 500; ++I) {
    Vector E = Orig.sample(R);
    Vector P{0.1 + E[0] + 0.5 * E[1], -0.2 + 0.3 * E[0] + E[1]};
    if (P[0] < 0.0)
      continue;
    EXPECT_GE(P[0], Met->lowerBound(0) - 1e-9);
    EXPECT_LE(P[0], Met->upperBound(0) + 1e-9);
    EXPECT_GE(P[1], Met->lowerBound(1) - 1e-9);
    EXPECT_LE(P[1], Met->upperBound(1) + 1e-9);
  }
}

TEST(ZonotopeTest, CompactPreservesBounds) {
  Rng R(33);
  ZonotopeElement Z(Box::uniform(3, -1.0, 1.0));
  Z.applyAffine(Matrix{{0.5, 0.2, 0.1}, {0.0, 1.0, 0.3}, {0.2, 0.1, 0.9}},
                Vector{0.0, 0.1, -0.1});
  Z.applyRelu();
  Vector LoBefore(3), HiBefore(3);
  for (size_t I = 0; I < 3; ++I) {
    LoBefore[I] = Z.lowerBound(I);
    HiBefore[I] = Z.upperBound(I);
  }
  Z.compact(0.05);
  for (size_t I = 0; I < 3; ++I) {
    // Compaction may only relax bounds, never tighten unsoundly.
    EXPECT_LE(Z.lowerBound(I), LoBefore[I] + 1e-12);
    EXPECT_GE(Z.upperBound(I), HiBefore[I] - 1e-12);
  }
}

//===----------------------------------------------------------------------===//
// PowersetElement
//===----------------------------------------------------------------------===//

TEST(PowersetTest, SplitsOnCrossingNeuron) {
  auto Base = std::make_unique<ZonotopeElement>(Box(Vector{-1.0}, Vector{1.0}));
  PowersetElement P(std::move(Base), 2);
  P.applyRelu();
  EXPECT_EQ(P.numDisjuncts(), 2u);
  EXPECT_GE(P.lowerBound(0), -1e-9); // exact: ReLU output is nonnegative
  EXPECT_NEAR(P.upperBound(0), 1.0, 1e-9);
}

TEST(PowersetTest, RespectsBudget) {
  auto Base =
      std::make_unique<ZonotopeElement>(Box::uniform(4, -1.0, 1.0));
  PowersetElement P(std::move(Base), 4);
  P.applyRelu(); // 4 crossing neurons, budget 4 => at most 4 disjuncts
  EXPECT_LE(P.numDisjuncts(), 4u);
  EXPECT_GE(P.numDisjuncts(), 2u);
}

TEST(PowersetTest, BudgetOneIsPlainDomain) {
  auto Base = std::make_unique<ZonotopeElement>(Box(Vector{-1.0}, Vector{1.0}));
  PowersetElement P(std::move(Base), 1);
  P.applyRelu();
  EXPECT_EQ(P.numDisjuncts(), 1u);
}

TEST(PowersetTest, TighterThanPlainZonotope) {
  // On a crossing neuron, the case split removes the relaxation sag.
  ZonotopeElement Plain(Box(Vector{-1.0}, Vector{1.0}));
  Plain.applyRelu();
  auto Base = std::make_unique<ZonotopeElement>(Box(Vector{-1.0}, Vector{1.0}));
  PowersetElement Split(std::move(Base), 2);
  Split.applyRelu();
  EXPECT_GT(Split.lowerBound(0), Plain.lowerBound(0) - 1e-12);
  EXPECT_GE(Plain.upperBound(0), Split.upperBound(0) - 1e-12);
}

//===----------------------------------------------------------------------===//
// LinearBoundsElement, Concretize relaxation (ReluVal's symbolic intervals)
//===----------------------------------------------------------------------===//

constexpr auto Concretize = LinearBoundsElement::ReluRelaxation::Concretize;

TEST(SymbolicIntervalTest, ExactOnAffineNetworks) {
  LinearBoundsElement S(Box::uniform(2, -1.0, 1.0), Concretize);
  S.applyAffine(Matrix{{1.0, 1.0}, {1.0, -1.0}}, Vector{0.0, 0.0});
  // Like zonotopes, symbolic intervals keep input correlations exactly
  // through affine layers: y0 - y1 = 2 x1 in [-2, 2].
  EXPECT_DOUBLE_EQ(S.lowerBoundDiff(0, 1), -2.0);
  EXPECT_DOUBLE_EQ(S.lowerBound(0), -2.0);
  EXPECT_DOUBLE_EQ(S.upperBound(0), 2.0);
}

TEST(SymbolicIntervalTest, ReluStableKeepsSymbolic) {
  LinearBoundsElement S(Box(Vector{1.0, -3.0}, Vector{2.0, -1.0}), Concretize);
  S.applyRelu();
  EXPECT_DOUBLE_EQ(S.lowerBound(0), 1.0);
  EXPECT_DOUBLE_EQ(S.upperBound(0), 2.0);
  EXPECT_DOUBLE_EQ(S.lowerBound(1), 0.0);
  EXPECT_DOUBLE_EQ(S.upperBound(1), 0.0);
}

TEST(SymbolicIntervalTest, ReluUnstableConcretizes) {
  LinearBoundsElement S(Box(Vector{-1.0}, Vector{1.0}), Concretize);
  S.applyRelu();
  EXPECT_DOUBLE_EQ(S.lowerBound(0), 0.0);
  EXPECT_GE(S.upperBound(0), 1.0);
}

TEST(SymbolicIntervalTest, SmearScalesWithInfluence) {
  LinearBoundsElement S(Box::uniform(2, 0.0, 1.0), Concretize);
  S.applyAffine(Matrix{{5.0, 0.1}}, Vector{0.0});
  EXPECT_GT(S.smear(0), S.smear(1));
}

//===----------------------------------------------------------------------===//
// Paper Example 2.2: analyzer verifies robustness on [-1, 1]
//===----------------------------------------------------------------------===//

TEST(AnalyzerTest, Example22VerifiedByZonotope) {
  Network Net = testing_nets::makeExample22Network();
  Box Region(Vector{-1.0}, Vector{1.0});
  AnalysisResult R = analyzeRobustness(
      Net, Region, 1, DomainSpec{BaseDomainKind::Zonotope, 1});
  EXPECT_TRUE(R.Verified) << "margin = " << R.Margin;
}

TEST(AnalyzerTest, Example22NotVerifiedOnWiderRegion) {
  // On [-1, 2] the property is false (N(2) classifies as 0), so no sound
  // analysis may verify it.
  Network Net = testing_nets::makeExample22Network();
  Box Region(Vector{-1.0}, Vector{2.0});
  for (int Disjuncts : {1, 2, 4}) {
    AnalysisResult R = analyzeRobustness(
        Net, Region, 1, DomainSpec{BaseDomainKind::Zonotope, Disjuncts});
    EXPECT_FALSE(R.Verified);
  }
}

//===----------------------------------------------------------------------===//
// Paper Example 2.3: domain precision ordering
//===----------------------------------------------------------------------===//

TEST(AnalyzerTest, Example23IntervalFailsPowersetSucceeds) {
  Network Net = testing_nets::makeExample23Network();
  Box Region = Box::uniform(2, 0.0, 1.0);

  AnalysisResult Interval = analyzeRobustness(
      Net, Region, 1, DomainSpec{BaseDomainKind::Interval, 1});
  EXPECT_FALSE(Interval.Verified);

  // The powerset of two zonotopes verifies the property, as in Figure 4.
  AnalysisResult Powerset = analyzeRobustness(
      Net, Region, 1, DomainSpec{BaseDomainKind::Zonotope, 2});
  EXPECT_TRUE(Powerset.Verified) << "margin = " << Powerset.Margin;

  // Precision ordering: powerset >= plain zonotope >= interval margins.
  // (Our plain-zonotope ReLU is the Taylor1+ minimal-area relaxation, which
  // is tighter than the join-based transformer Figure 4 depicts, so the
  // plain domain may also verify; the ordering below is the invariant.)
  AnalysisResult Zonotope = analyzeRobustness(
      Net, Region, 1, DomainSpec{BaseDomainKind::Zonotope, 1});
  EXPECT_GE(Zonotope.Margin, Interval.Margin);
  EXPECT_GE(Powerset.Margin, Zonotope.Margin - 1e-9);
}

TEST(AnalyzerTest, Example23PropertyActuallyHolds) {
  // Ground truth behind Figure 4: the concrete network classifies all of
  // [0,1]^2 as class B.
  Network Net = testing_nets::makeExample23Network();
  Rng R(41);
  Box Region = Box::uniform(2, 0.0, 1.0);
  for (int I = 0; I < 2000; ++I) {
    Vector X = Region.sample(R);
    EXPECT_GT(Net.objective(X, 1), 0.0);
  }
}

//===----------------------------------------------------------------------===//
// Randomized soundness: every domain overapproximates the true outputs
//===----------------------------------------------------------------------===//

class DomainSoundnessTest : public ::testing::TestWithParam<DomainSpec> {};

TEST_P(DomainSoundnessTest, OutputBoundsContainSampledOutputs) {
  DomainSpec Spec = GetParam();
  Rng NetRng(55);
  Rng SampleRng(56);
  for (int Trial = 0; Trial < 4; ++Trial) {
    Network Net = makeMlp(3, {6, 6}, 3, NetRng);
    Vector Center(3);
    for (size_t I = 0; I < 3; ++I)
      Center[I] = SampleRng.uniform(-0.5, 0.5);
    Box Region = Box::linfBall(Center, 0.3, -2.0, 2.0);

    auto Elem = makeElement(Region, Spec);
    propagate(Net, *Elem);

    for (int S = 0; S < 200; ++S) {
      Vector X = Region.sample(SampleRng);
      Vector Y = Net.evaluate(X);
      for (size_t O = 0; O < Y.size(); ++O) {
        EXPECT_GE(Y[O], Elem->lowerBound(O) - 1e-7)
            << toString(Spec) << " trial " << Trial << " output " << O;
        EXPECT_LE(Y[O], Elem->upperBound(O) + 1e-7)
            << toString(Spec) << " trial " << Trial << " output " << O;
      }
      for (size_t K = 0; K < Y.size(); ++K)
        for (size_t J = 0; J < Y.size(); ++J)
          if (J != K)
            EXPECT_GE(Y[K] - Y[J], Elem->lowerBoundDiff(K, J) - 1e-7)
                << toString(Spec);
    }
  }
}

TEST_P(DomainSoundnessTest, VerifiedImpliesNoSampledCounterexample) {
  DomainSpec Spec = GetParam();
  Rng NetRng(65);
  Rng SampleRng(66);
  int VerifiedCount = 0;
  for (int Trial = 0; Trial < 8; ++Trial) {
    Network Net = makeMlp(2, {5, 5}, 2, NetRng);
    Vector Center{SampleRng.uniform(-0.5, 0.5), SampleRng.uniform(-0.5, 0.5)};
    Box Region = Box::linfBall(Center, 0.1, -2.0, 2.0);
    size_t K = Net.classify(Center);
    AnalysisResult R = analyzeRobustness(Net, Region, K, Spec);
    if (!R.Verified)
      continue;
    ++VerifiedCount;
    for (int S = 0; S < 300; ++S) {
      Vector X = Region.sample(SampleRng);
      EXPECT_EQ(Net.classify(X), K) << toString(Spec) << " trial " << Trial;
    }
  }
  // The small regions above should mostly verify; the test is vacuous
  // otherwise, so require at least one success.
  EXPECT_GE(VerifiedCount, 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllDomains, DomainSoundnessTest,
    ::testing::Values(DomainSpec{BaseDomainKind::Interval, 1},
                      DomainSpec{BaseDomainKind::Interval, 4},
                      DomainSpec{BaseDomainKind::Zonotope, 1},
                      DomainSpec{BaseDomainKind::Zonotope, 2},
                      DomainSpec{BaseDomainKind::Zonotope, 8},
                      DomainSpec{BaseDomainKind::SymbolicInterval, 1},
                      DomainSpec{BaseDomainKind::Polyhedra, 1}),
    [](const ::testing::TestParamInfo<DomainSpec> &Info) {
      std::string Name = toString(Info.param);
      for (char &C : Name)
        if (C == '^')
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Soundness on a convolutional network (affine lowering + pooling)
//===----------------------------------------------------------------------===//

TEST(AnalyzerConvTest, ConvNetworkBoundsAreSound) {
  Rng NetRng(71);
  Network Net = makeLeNet(TensorShape{1, 8, 8}, 3, NetRng);
  Rng SampleRng(72);
  Vector Center(Net.inputSize());
  for (size_t I = 0; I < Center.size(); ++I)
    Center[I] = SampleRng.uniform(0.2, 0.8);
  Box Region = Box::linfBall(Center, 0.02, 0.0, 1.0);

  for (DomainSpec Spec : {DomainSpec{BaseDomainKind::Interval, 1},
                          DomainSpec{BaseDomainKind::Zonotope, 1}}) {
    auto Elem = makeElement(Region, Spec);
    propagate(Net, *Elem);
    for (int S = 0; S < 50; ++S) {
      Vector X = Region.sample(SampleRng);
      Vector Y = Net.evaluate(X);
      for (size_t O = 0; O < Y.size(); ++O) {
        EXPECT_GE(Y[O], Elem->lowerBound(O) - 1e-7) << toString(Spec);
        EXPECT_LE(Y[O], Elem->upperBound(O) + 1e-7) << toString(Spec);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Precision relationships
//===----------------------------------------------------------------------===//

TEST(DomainPrecisionTest, ZonotopeBeatsIntervalOnDeepNets) {
  // On multi-layer networks the interval domain's decorrelation compounds;
  // the zonotope margin should (weakly) dominate on average.
  Rng NetRng(81);
  Rng RegionRng(82);
  int ZonotopeWins = 0, Trials = 10;
  for (int T = 0; T < Trials; ++T) {
    Network Net = makeMlp(3, {8, 8, 8}, 2, NetRng);
    Vector Center(3);
    for (size_t I = 0; I < 3; ++I)
      Center[I] = RegionRng.uniform(-0.3, 0.3);
    Box Region = Box::linfBall(Center, 0.1, -1.0, 1.0);
    size_t K = Net.classify(Center);
    double IntervalMargin =
        analyzeRobustness(Net, Region, K,
                          DomainSpec{BaseDomainKind::Interval, 1})
            .Margin;
    double ZonotopeMargin =
        analyzeRobustness(Net, Region, K,
                          DomainSpec{BaseDomainKind::Zonotope, 1})
            .Margin;
    if (ZonotopeMargin >= IntervalMargin)
      ++ZonotopeWins;
  }
  EXPECT_GE(ZonotopeWins, 8);
}

TEST(DomainPrecisionTest, MoreDisjunctsNeverHurtMargins) {
  Rng NetRng(91);
  Rng RegionRng(92);
  for (int T = 0; T < 6; ++T) {
    Network Net = makeMlp(2, {6}, 2, NetRng);
    Vector Center{RegionRng.uniform(-0.3, 0.3), RegionRng.uniform(-0.3, 0.3)};
    Box Region = Box::linfBall(Center, 0.25, -1.0, 1.0);
    size_t K = Net.classify(Center);
    double M1 = analyzeRobustness(Net, Region, K,
                                  DomainSpec{BaseDomainKind::Zonotope, 1})
                    .Margin;
    double M4 = analyzeRobustness(Net, Region, K,
                                  DomainSpec{BaseDomainKind::Zonotope, 4})
                    .Margin;
    EXPECT_GE(M4, M1 - 1e-9) << "trial " << T;
  }
}
