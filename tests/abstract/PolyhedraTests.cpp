//===- PolyhedraTests.cpp - Tests for the relational polyhedra domain ----------===//

#include "abstract/Analyzer.h"
#include "abstract/IntervalElement.h"
#include "abstract/LinearBoundsElement.h"
#include "nn/Builder.h"
#include "support/Random.h"

#include "TestNetworks.h"

#include <gtest/gtest.h>

using namespace charon;

namespace {
constexpr auto Triangle = LinearBoundsElement::ReluRelaxation::Triangle;
} // namespace

TEST(PolyhedraTest, ExactOnAffineNetworks) {
  LinearBoundsElement P(Box::uniform(2, -1.0, 1.0), Triangle);
  P.applyAffine(Matrix{{1.0, 1.0}, {1.0, -1.0}}, Vector{0.0, 0.0});
  // Relational: y0 - y1 = 2 x1 in [-2, 2], exactly.
  EXPECT_DOUBLE_EQ(P.lowerBoundDiff(0, 1), -2.0);
  EXPECT_DOUBLE_EQ(P.lowerBound(0), -2.0);
  EXPECT_DOUBLE_EQ(P.upperBound(0), 2.0);
}

TEST(PolyhedraTest, ReluStableCases) {
  LinearBoundsElement P(Box(Vector{1.0, -3.0}, Vector{2.0, -1.0}), Triangle);
  P.applyRelu();
  EXPECT_DOUBLE_EQ(P.lowerBound(0), 1.0);
  EXPECT_DOUBLE_EQ(P.upperBound(0), 2.0);
  EXPECT_DOUBLE_EQ(P.lowerBound(1), 0.0);
  EXPECT_DOUBLE_EQ(P.upperBound(1), 0.0);
}

TEST(PolyhedraTest, CrossingReluRelaxationIsTriangleTight) {
  // Crossing neuron with [l, u] = [-1, 3]: upper line y = 0.75 (x + 1)
  // hits (u, u) exactly, lower is clamped to 0.
  LinearBoundsElement P(Box(Vector{-1.0}, Vector{3.0}), Triangle);
  P.applyRelu();
  EXPECT_GE(P.upperBound(0), 3.0);
  EXPECT_LE(P.upperBound(0), 3.0 + 1e-12); // upper line hits (u, u)
  EXPECT_DOUBLE_EQ(P.lowerBound(0), 0.0);
}

TEST(PolyhedraTest, CrossingReluUpperStaysRelational) {
  // After the ReLU, the upper bound must still depend on the input (the
  // whole point of the domain): feeding the neuron into y = -x + const
  // keeps the correlation that a concretizing domain would lose.
  LinearBoundsElement P(Box(Vector{-3.0}, Vector{1.0}), Triangle);
  P.applyRelu();
  P.applyAffine(Matrix{{-1.0}}, Vector{0.0});
  // y = -relu(x): exact range [-1, 0]; relational tracking keeps the lower
  // bound at -1 (a concretized upper of u = 1 would give the same here,
  // but the *pair* (y, x) stays linked — checked via the diff bound).
  EXPECT_LE(P.lowerBound(0), -1.0 + 1e-12);
  EXPECT_GE(P.upperBound(0), 0.0 - 1e-12);
}

TEST(PolyhedraTest, SoundOnRandomNetworks) {
  Rng NetRng(61);
  Rng SampleRng(62);
  for (int T = 0; T < 4; ++T) {
    Network Net = makeMlp(3, {8, 8}, 3, NetRng);
    Box Region = Box::uniform(3, -0.4, 0.4);
    LinearBoundsElement P(Region, Triangle);
    propagate(Net, P);
    for (int S = 0; S < 300; ++S) {
      Vector Y = Net.evaluate(Region.sample(SampleRng));
      for (size_t O = 0; O < Y.size(); ++O) {
        EXPECT_GE(Y[O], P.lowerBound(O) - 1e-7) << "trial " << T;
        EXPECT_LE(Y[O], P.upperBound(O) + 1e-7) << "trial " << T;
      }
    }
  }
}

TEST(PolyhedraTest, TighterThanIntervalsOnDeepNets) {
  // Intervals decorrelate at every layer; the relational relaxation keeps
  // input terms, so its verification margins should dominate on deep
  // networks. (Polyhedra and symbolic intervals are formally incomparable:
  // the y >= x lower choice trades pointwise tightness for relational
  // information, so no such test exists against SymbolicInterval.)
  Rng NetRng(63);
  Rng RegionRng(64);
  int PolyWins = 0, Trials = 10;
  for (int T = 0; T < Trials; ++T) {
    Network Net = makeMlp(3, {10, 10, 10}, 2, NetRng);
    Vector Center(3);
    for (size_t I = 0; I < 3; ++I)
      Center[I] = RegionRng.uniform(-0.3, 0.3);
    Box Region = Box::linfBall(Center, 0.15, -1.0, 1.0);
    size_t K = Net.classify(Center);
    double Intv = analyzeRobustness(Net, Region, K,
                                    DomainSpec{BaseDomainKind::Interval, 1})
                      .Margin;
    double Poly = analyzeRobustness(Net, Region, K,
                                    DomainSpec{BaseDomainKind::Polyhedra, 1})
                      .Margin;
    if (Poly >= Intv - 1e-12)
      ++PolyWins;
  }
  EXPECT_GE(PolyWins, 8);
}

TEST(PolyhedraTest, VerifiesExample23) {
  // The relational relaxation proves Figure 4's property without case
  // splits (one more data point in the domain-precision ordering).
  Network Net = testing_nets::makeExample23Network();
  AnalysisResult R =
      analyzeRobustness(Net, Box::uniform(2, 0.0, 1.0), 1,
                        DomainSpec{BaseDomainKind::Polyhedra, 1});
  EXPECT_TRUE(R.Verified) << "margin = " << R.Margin;
}

TEST(PolyhedraTest, PointRegionIsExact) {
  Network Net = testing_nets::makeXorNetwork();
  Vector X{0.6, 0.4};
  LinearBoundsElement P(Box(X, X), Triangle);
  propagate(Net, P);
  Vector Y = Net.evaluate(X);
  for (size_t O = 0; O < Y.size(); ++O) {
    EXPECT_NEAR(P.lowerBound(O), Y[O], 1e-9);
    EXPECT_NEAR(P.upperBound(O), Y[O], 1e-9);
  }
}

TEST(PolyhedraTest, MaxPoolFallbackIsSound) {
  Rng NetRng(65);
  Network Net = makeLeNet(TensorShape{1, 6, 6}, 3, NetRng);
  Rng SampleRng(66);
  Vector Center(Net.inputSize());
  for (size_t I = 0; I < Center.size(); ++I)
    Center[I] = SampleRng.uniform(0.3, 0.7);
  Box Region = Box::linfBall(Center, 0.02, 0.0, 1.0);
  LinearBoundsElement P(Region, Triangle);
  propagate(Net, P);
  for (int S = 0; S < 100; ++S) {
    Vector Y = Net.evaluate(Region.sample(SampleRng));
    for (size_t O = 0; O < Y.size(); ++O) {
      EXPECT_GE(Y[O], P.lowerBound(O) - 1e-7);
      EXPECT_LE(Y[O], P.upperBound(O) + 1e-7);
    }
  }
}
