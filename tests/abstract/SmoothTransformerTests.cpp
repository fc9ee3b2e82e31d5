//===- SmoothTransformerTests.cpp - Smooth-activation transformer soundness ---===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Sampled-concrete-containment sweep for the layer-zoo transformers: every
// abstract domain must bound the concrete outputs of networks using
// sigmoid/tanh activations, average pooling, flatten, and residual
// (identity-skip) blocks. The sweep runs through propagate() so it
// exercises exactly the code path the verifier uses (including the cached
// residual plan in the analyzer), not a per-layer shortcut. On top of
// containment, the end-to-end pieces of the delta-decision procedure are
// pinned on smooth nets: PGD returns delta-valid counterexamples, and a
// robust property verifies through the relaxation transformers.
//
//===----------------------------------------------------------------------===//

#include "abstract/Analyzer.h"
#include "core/Verifier.h"
#include "nn/Activation.h"
#include "nn/AvgPool2D.h"
#include "nn/Conv2D.h"
#include "nn/Dense.h"
#include "nn/Flatten.h"
#include "nn/Relu.h"
#include "nn/Residual.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

using namespace charon;

namespace {

Matrix randomMatrix(Rng &R, size_t Rows, size_t Cols) {
  Matrix W(Rows, Cols);
  for (size_t I = 0; I < Rows; ++I)
    for (size_t J = 0; J < Cols; ++J)
      W(I, J) = R.gaussian(0.0, 0.5);
  return W;
}

Vector randomVector(Rng &R, size_t N) {
  Vector V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = R.gaussian(0.0, 0.3);
  return V;
}

std::unique_ptr<DenseLayer> randomDense(Rng &R, size_t In, size_t Out) {
  return std::make_unique<DenseLayer>(randomMatrix(R, Out, In),
                                      randomVector(R, Out));
}

/// Dense -> act -> Dense two-class head with the given hidden activation.
Network smoothMlp(ActivationKind Act, uint64_t Seed) {
  Rng R(Seed);
  Network Net;
  Net.addLayer(randomDense(R, 4, 6));
  Net.addLayer(std::make_unique<ActivationLayer>(Act, 6));
  Net.addLayer(randomDense(R, 6, 3));
  return Net;
}

/// Conv -> Sigmoid -> AvgPool -> Flatten -> Dense: the spatial zoo.
Network smoothConv(uint64_t Seed) {
  Rng R(Seed);
  Network Net;
  TensorShape In{1, 4, 4};
  auto Conv = std::make_unique<Conv2DLayer>(In, 2, 3, 3, 1, 1);
  for (int Oc = 0; Oc < 2; ++Oc)
    for (int Ky = 0; Ky < 3; ++Ky)
      for (int Kx = 0; Kx < 3; ++Kx)
        Conv->kernelAt(Oc, 0, Ky, Kx) = R.gaussian(0.0, 0.4);
  for (size_t I = 0; I < Conv->bias().size(); ++I)
    Conv->bias()[I] = R.gaussian(0.0, 0.2);
  TensorShape ConvOut = Conv->outputShape();
  Net.addLayer(std::move(Conv));
  Net.addLayer(std::make_unique<SigmoidLayer>(ConvOut.size()));
  auto Pool = std::make_unique<AvgPool2DLayer>(ConvOut, 2, 2, 2);
  size_t Pooled = Pool->outputShape().size();
  Net.addLayer(std::move(Pool));
  Net.addLayer(std::make_unique<FlattenLayer>(Pooled));
  Net.addLayer(randomDense(R, Pooled, 3));
  return Net;
}

/// Dense -> Relu -> residual(Dense + Tanh) -> Dense: the skip connection.
Network residualMlp(uint64_t Seed) {
  Rng R(Seed);
  Network Net;
  Net.addLayer(randomDense(R, 3, 4));
  Net.addLayer(std::make_unique<ReluLayer>(4));
  Network Body;
  Body.addLayer(randomDense(R, 4, 4));
  Body.addLayer(std::make_unique<TanhLayer>(4));
  Net.addLayer(std::make_unique<ResidualLayer>(std::move(Body)));
  Net.addLayer(randomDense(R, 4, 2));
  return Net;
}

struct NetCase {
  const char *Name;
  Network (*Make)(uint64_t);
};

Network makeSigmoidMlp(uint64_t S) { return smoothMlp(ActivationKind::Sigmoid, S); }
Network makeTanhMlp(uint64_t S) { return smoothMlp(ActivationKind::Tanh, S); }

const NetCase NetCases[] = {
    {"sigmoid_mlp", makeSigmoidMlp},
    {"tanh_mlp", makeTanhMlp},
    {"conv_avgpool", smoothConv},
    {"residual", residualMlp},
};

const DomainSpec AllDomains[] = {
    {BaseDomainKind::Interval, 1},        {BaseDomainKind::Zonotope, 1},
    {BaseDomainKind::Zonotope, 2},        {BaseDomainKind::SymbolicInterval, 1},
    {BaseDomainKind::Polyhedra, 1},
};

class SmoothSweepTest
    : public ::testing::TestWithParam<std::tuple<NetCase, DomainSpec>> {};

} // namespace

TEST_P(SmoothSweepTest, ConcreteOutputsAreContained) {
  const auto &[Case, Spec] = GetParam();
  for (uint64_t Seed : {11ull, 12ull}) {
    Network Net = Case.Make(Seed);
    Rng R(Seed * 31 + 5);
    for (int Trial = 0; Trial < 3; ++Trial) {
      Vector Center(Net.inputSize());
      for (size_t I = 0; I < Center.size(); ++I)
        Center[I] = R.uniform(-0.6, 0.6);
      Box Region = Box::linfBall(Center, R.uniform(0.02, 0.3), -1.0, 1.0);

      auto Elem = makeElement(Region, Spec);
      ASSERT_TRUE(propagate(Net, *Elem));

      for (int S = 0; S < 400; ++S) {
        Vector X = Region.sample(R);
        Vector Y = Net.evaluate(X);
        for (size_t O = 0; O < Y.size(); ++O) {
          EXPECT_GE(Y[O], Elem->lowerBound(O) - 1e-7)
              << Case.Name << " " << toString(Spec) << " output " << O;
          EXPECT_LE(Y[O], Elem->upperBound(O) + 1e-7)
              << Case.Name << " " << toString(Spec) << " output " << O;
        }
      }
    }
  }
}

TEST_P(SmoothSweepTest, BoundsAreFiniteAndOrdered) {
  const auto &[Case, Spec] = GetParam();
  Network Net = Case.Make(42);
  Box Region = Box::uniform(Net.inputSize(), -0.5, 0.5);
  auto Elem = makeElement(Region, Spec);
  ASSERT_TRUE(propagate(Net, *Elem));
  for (size_t O = 0; O < Net.outputSize(); ++O) {
    EXPECT_TRUE(std::isfinite(Elem->lowerBound(O))) << Case.Name;
    EXPECT_TRUE(std::isfinite(Elem->upperBound(O))) << Case.Name;
    EXPECT_LE(Elem->lowerBound(O), Elem->upperBound(O)) << Case.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ZooNetsAndDomains, SmoothSweepTest,
    ::testing::Combine(::testing::ValuesIn(NetCases),
                       ::testing::ValuesIn(AllDomains)),
    [](const ::testing::TestParamInfo<std::tuple<NetCase, DomainSpec>> &Info) {
      std::string Name = std::get<0>(Info.param).Name;
      Name += "_" + toString(std::get<1>(Info.param));
      for (char &C : Name)
        if (C == '^')
          C = '_';
      return Name;
    });

namespace {

/// A property the sigmoid MLP cannot satisfy: target the class the network
/// does NOT pick at the region center.
RobustnessProperty falsifiableProperty(const Network &Net) {
  Vector Center(Net.inputSize());
  for (size_t I = 0; I < Center.size(); ++I)
    Center[I] = 0.1 + 0.05 * static_cast<double>(I);
  Vector Y = Net.evaluate(Center);
  size_t Best = 0;
  for (size_t I = 1; I < Y.size(); ++I)
    if (Y[I] > Y[Best])
      Best = I;
  RobustnessProperty Prop;
  Prop.Region = Box::linfBall(Center, 0.05, -1.0, 1.0);
  Prop.TargetClass = (Best + 1) % Y.size();
  Prop.Name = "smooth-falsifiable";
  return Prop;
}

/// A property the region center satisfies with slack: target the argmax
/// class over a small region.
RobustnessProperty likelyRobustProperty(const Network &Net) {
  Vector Center(Net.inputSize());
  for (size_t I = 0; I < Center.size(); ++I)
    Center[I] = 0.1 + 0.05 * static_cast<double>(I);
  Vector Y = Net.evaluate(Center);
  size_t Best = 0;
  for (size_t I = 1; I < Y.size(); ++I)
    if (Y[I] > Y[Best])
      Best = I;
  RobustnessProperty Prop;
  Prop.Region = Box::linfBall(Center, 0.01, -1.0, 1.0);
  Prop.TargetClass = Best;
  Prop.Name = "smooth-robust";
  return Prop;
}

VerifierConfig smoothConfig() {
  VerifierConfig Config;
  Config.Seed = 9;
  Config.TimeLimitSeconds = 30.0;
  return Config;
}

} // namespace

TEST(SmoothVerifierTest, PgdFindsDeltaValidCounterexamples) {
  for (uint64_t Seed : {21ull, 22ull, 23ull}) {
    Network Net = smoothMlp(ActivationKind::Sigmoid, Seed);
    RobustnessProperty Prop = falsifiableProperty(Net);
    VerifierConfig Config = smoothConfig();
    Verifier V(Net, VerificationPolicy(), Config);
    VerifyResult R = V.verify(Prop);
    ASSERT_EQ(R.Result, Outcome::Falsified) << "seed " << Seed;
    // Delta-validity (Definition 5.3): the witness lies in the region and
    // its freshly evaluated objective is at or below the Eq. 4 threshold.
    EXPECT_TRUE(Prop.Region.contains(R.Counterexample, 1e-9));
    double F = Net.objective(R.Counterexample, Prop.TargetClass);
    EXPECT_LE(F, Config.Delta + 1e-12) << "seed " << Seed;
    EXPECT_NEAR(F, R.ObjectiveAtCex, 1e-12) << "seed " << Seed;
    EXPECT_GE(R.Stats.PgdCalls, 1) << "seed " << Seed;
  }
}

TEST(SmoothVerifierTest, SmoothNetVerifies) {
  // A robust property on a smooth net should be provable through the
  // relaxation transformers.
  Network Net = smoothMlp(ActivationKind::Sigmoid, 31);
  RobustnessProperty Prop = likelyRobustProperty(Net);
  VerifyResult R =
      Verifier(Net, VerificationPolicy(), smoothConfig()).verify(Prop);
  EXPECT_EQ(R.Result, Outcome::Verified);
}
