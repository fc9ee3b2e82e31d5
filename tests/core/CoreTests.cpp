//===- CoreTests.cpp - Tests for the Charon verifier ---------------------------===//

#include "core/PolicyTrainer.h"
#include "core/Verifier.h"

#include "nn/Builder.h"
#include "nn/Dense.h"
#include "nn/Relu.h"
#include "support/Random.h"
#include "support/ThreadPool.h"

#include "TestNetworks.h"

#include <gtest/gtest.h>

using namespace charon;

namespace {



RobustnessProperty makeProperty(Box Region, size_t K, const char *Name) {
  RobustnessProperty P;
  P.Region = std::move(Region);
  P.TargetClass = K;
  P.Name = Name;
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Policy plumbing
//===----------------------------------------------------------------------===//

TEST(PolicyTest, FlattenRoundTrip) {
  VerificationPolicy Default;
  Vector Flat = Default.flatten();
  EXPECT_EQ(Flat.size(), VerificationPolicy::numParameters());
  VerificationPolicy Rebuilt = VerificationPolicy::fromFlat(Flat);
  EXPECT_TRUE(approxEqual(Rebuilt.flatten(), Flat, 0.0));
}

TEST(PolicyTest, FeaturesHaveDocumentedShape) {
  Network Net = testing_nets::makeXorNetwork();
  RobustnessProperty Prop =
      makeProperty(Box::uniform(2, 0.3, 0.7), 1, "xor");
  Vector X = Prop.Region.center();
  Vector F = VerificationPolicy::featurize(Net, Prop, X,
                                           Net.objective(X, 1));
  ASSERT_EQ(F.size(), PolicyNumFeatures);
  EXPECT_DOUBLE_EQ(F[0], 0.0); // x* == center here
  EXPECT_NEAR(F[3], 0.4, 1e-12); // average width
  EXPECT_DOUBLE_EQ(F[4], 1.0); // bias
}

TEST(PolicyTest, DomainChoiceIsValid) {
  Network Net = testing_nets::makeXorNetwork();
  RobustnessProperty Prop = makeProperty(Box::uniform(2, 0.3, 0.7), 1, "xor");
  Rng R(3);
  for (int T = 0; T < 20; ++T) {
    Vector Flat(VerificationPolicy::numParameters());
    for (size_t I = 0; I < Flat.size(); ++I)
      Flat[I] = R.uniform(-2.0, 2.0);
    VerificationPolicy P = VerificationPolicy::fromFlat(Flat);
    Vector X = Prop.Region.sample(R);
    DomainSpec Spec = P.chooseDomain(Net, Prop, X, Net.objective(X, 1));
    EXPECT_TRUE(Spec.Base == BaseDomainKind::Interval ||
                Spec.Base == BaseDomainKind::Zonotope);
    EXPECT_TRUE(Spec.Disjuncts == 1 || Spec.Disjuncts == 2 ||
                Spec.Disjuncts == 4 || Spec.Disjuncts == 8);
  }
}

TEST(PolicyTest, PartitionSatisfiesAssumptionOne) {
  // Whatever theta is, the chosen split must strictly shrink both halves.
  Network Net = testing_nets::makeXorNetwork();
  RobustnessProperty Prop = makeProperty(Box::uniform(2, 0.3, 0.7), 1, "xor");
  Rng R(5);
  for (int T = 0; T < 20; ++T) {
    Vector Flat(VerificationPolicy::numParameters());
    for (size_t I = 0; I < Flat.size(); ++I)
      Flat[I] = R.uniform(-2.0, 2.0);
    VerificationPolicy P = VerificationPolicy::fromFlat(Flat);
    Vector X = Prop.Region.sample(R);
    SplitChoice S = P.choosePartition(Net, Prop, X, Net.objective(X, 1));
    ASSERT_LT(S.Dim, Prop.Region.dim());
    auto [L, H] = Prop.Region.split(S.Dim, S.Cut);
    EXPECT_LT(L.diameter(), Prop.Region.diameter());
    EXPECT_LT(H.diameter(), Prop.Region.diameter());
  }
}

//===----------------------------------------------------------------------===//
// Verifier on the paper's worked examples
//===----------------------------------------------------------------------===//

TEST(VerifierTest, Example31XorRegionVerified) {
  // Example 3.1: ([0.3, 0.7]^2, 1) holds and needs refinement to prove.
  Network Net = testing_nets::makeXorNetwork();
  Verifier V(Net, VerificationPolicy());
  VerifyResult R = V.verify(makeProperty(Box::uniform(2, 0.3, 0.7), 1, "xor"));
  EXPECT_EQ(R.Result, Outcome::Verified);
  EXPECT_GE(R.Stats.AnalyzeCalls, 1);
}

TEST(VerifierTest, XorWideRegionFalsified) {
  // [0.1, 0.9]^2 contains both classes: must produce a counterexample.
  Network Net = testing_nets::makeXorNetwork();
  Verifier V(Net, VerificationPolicy());
  RobustnessProperty Prop = makeProperty(Box::uniform(2, 0.1, 0.9), 1, "xor");
  VerifyResult R = V.verify(Prop);
  ASSERT_EQ(R.Result, Outcome::Falsified);
  // Delta-completeness (Thm. 5.4): the witness is a delta-counterexample.
  EXPECT_TRUE(Prop.Region.contains(R.Counterexample, 1e-9));
  EXPECT_LE(Net.objective(R.Counterexample, 1), V.config().Delta);
}

TEST(VerifierTest, Example22Robust) {
  Network Net = testing_nets::makeExample22Network();
  Verifier V(Net, VerificationPolicy());
  VerifyResult R =
      V.verify(makeProperty(Box(Vector{-1.0}, Vector{1.0}), 1, "ex22"));
  EXPECT_EQ(R.Result, Outcome::Verified);
}

TEST(VerifierTest, Example22WiderRegionFalsified) {
  Network Net = testing_nets::makeExample22Network();
  Verifier V(Net, VerificationPolicy());
  VerifyResult R =
      V.verify(makeProperty(Box(Vector{-1.0}, Vector{2.0}), 1, "ex22w"));
  ASSERT_EQ(R.Result, Outcome::Falsified);
  EXPECT_LE(Net.objective(R.Counterexample, 1), V.config().Delta);
}

//===----------------------------------------------------------------------===//
// Soundness and delta-completeness on random trained-ish networks
//===----------------------------------------------------------------------===//

TEST(VerifierTest, VerifiedRegionsHaveNoSampledCounterexamples) {
  Rng NetRng(7);
  Rng SampleRng(8);
  int Verified = 0;
  for (int T = 0; T < 10; ++T) {
    Network Net = makeMlp(3, {8, 8}, 3, NetRng);
    Vector Center(3);
    for (size_t I = 0; I < 3; ++I)
      Center[I] = SampleRng.uniform(-0.5, 0.5);
    Box Region = Box::linfBall(Center, 0.15, -1.0, 1.0);
    size_t K = Net.classify(Center);
    VerifierConfig Config;
    Config.TimeLimitSeconds = 5.0;
    Verifier V(Net, VerificationPolicy(), Config);
    VerifyResult R = V.verify(makeProperty(Region, K, "rand"));
    if (R.Result != Outcome::Verified)
      continue;
    ++Verified;
    for (int S = 0; S < 300; ++S)
      EXPECT_EQ(Net.classify(Region.sample(SampleRng)), K) << "trial " << T;
  }
  EXPECT_GE(Verified, 3);
}

TEST(VerifierTest, FalsifiedAlwaysReturnsDeltaCounterexample) {
  Rng NetRng(9);
  Rng SampleRng(10);
  int Falsified = 0;
  for (int T = 0; T < 10; ++T) {
    Network Net = makeMlp(2, {6, 6}, 2, NetRng);
    // Wide regions on random nets are usually falsifiable.
    Box Region = Box::uniform(2, -1.0, 1.0);
    size_t K = Net.classify(Region.center());
    VerifierConfig Config;
    Config.TimeLimitSeconds = 5.0;
    Verifier V(Net, VerificationPolicy(), Config);
    RobustnessProperty Prop = makeProperty(Region, K, "wide");
    VerifyResult R = V.verify(Prop);
    if (R.Result != Outcome::Falsified)
      continue;
    ++Falsified;
    EXPECT_TRUE(Prop.Region.contains(R.Counterexample, 1e-9));
    EXPECT_LE(Net.objective(R.Counterexample, K), Config.Delta);
  }
  EXPECT_GE(Falsified, 3);
}

TEST(VerifierTest, TimeoutRespectsBudget) {
  Rng NetRng(11);
  Network Net = makeMlp(6, {24, 24, 24}, 4, NetRng);
  // A huge region on an untrained net is hard; with a tiny budget the
  // verifier must stop quickly and report Timeout (or resolve fast).
  Box Region = Box::uniform(6, -2.0, 2.0);
  size_t K = Net.classify(Region.center());
  VerifierConfig Config;
  Config.TimeLimitSeconds = 0.3;
  Verifier V(Net, VerificationPolicy(), Config);
  Stopwatch W;
  VerifyResult R = V.verify(makeProperty(Region, K, "big"));
  double Elapsed = W.seconds();
  if (R.Result == Outcome::Timeout) {
    EXPECT_LT(Elapsed, 5.0); // budget + the tail of one node step
  }
}

TEST(VerifierTest, DeltaControlsFalsePositives) {
  // With an absurdly large delta, even robust regions are "refuted" — the
  // pathological case Sec. 5 warns about; with a small delta they verify.
  Network Net = testing_nets::makeXorNetwork();
  RobustnessProperty Prop = makeProperty(Box::uniform(2, 0.3, 0.7), 1, "xor");

  VerifierConfig Loose;
  Loose.Delta = 100.0;
  VerifyResult R1 = Verifier(Net, VerificationPolicy(), Loose).verify(Prop);
  EXPECT_EQ(R1.Result, Outcome::Falsified);

  VerifierConfig Tight;
  Tight.Delta = 1e-9;
  VerifyResult R2 = Verifier(Net, VerificationPolicy(), Tight).verify(Prop);
  EXPECT_EQ(R2.Result, Outcome::Verified);
}

TEST(VerifierTest, AblationWithoutCexSearchStillVerifies) {
  Network Net = testing_nets::makeXorNetwork();
  VerifierConfig Config;
  Config.UseCounterexampleSearch = false;
  Verifier V(Net, VerificationPolicy(), Config);
  VerifyResult R = V.verify(makeProperty(Box::uniform(2, 0.3, 0.7), 1, "xor"));
  EXPECT_EQ(R.Result, Outcome::Verified);
  EXPECT_EQ(R.Stats.PgdCalls, 0);
}

TEST(VerifierTest, StatsAreCoherent) {
  Network Net = testing_nets::makeXorNetwork();
  Verifier V(Net, VerificationPolicy());
  VerifyResult R = V.verify(makeProperty(Box::uniform(2, 0.3, 0.7), 1, "xor"));
  EXPECT_EQ(R.Stats.AnalyzeCalls,
            R.Stats.IntervalChoices + R.Stats.ZonotopeChoices);
  EXPECT_GE(R.Stats.DisjunctSum, R.Stats.AnalyzeCalls);
  EXPECT_GE(R.Stats.PgdCalls, R.Stats.AnalyzeCalls);
  EXPECT_GT(R.Stats.Seconds, 0.0);
}

TEST(VerifierTest, StatsAccumulateAcrossEveryField) {
  // Every field gets a distinct value so a += that drops or swaps a counter
  // cannot cancel out. Additive fields add; MaxDepth merges by max.
  VerifyStats A;
  A.PgdCalls = 1;
  A.AnalyzeCalls = 2;
  A.Splits = 3;
  A.MaxDepth = 4;
  A.IntervalChoices = 5;
  A.ZonotopeChoices = 6;
  A.DisjunctSum = 7;
  A.NodesExpanded = 8;
  A.Seconds = 0.5;

  VerifyStats B;
  B.PgdCalls = 100;
  B.AnalyzeCalls = 200;
  B.Splits = 300;
  B.MaxDepth = 2; // below A's: max must keep 4
  B.IntervalChoices = 500;
  B.ZonotopeChoices = 600;
  B.DisjunctSum = 700;
  B.NodesExpanded = 800;
  B.Seconds = 0.25;

  A += B;
  EXPECT_EQ(A.PgdCalls, 101);
  EXPECT_EQ(A.AnalyzeCalls, 202);
  EXPECT_EQ(A.Splits, 303);
  EXPECT_EQ(A.MaxDepth, 4);
  EXPECT_EQ(A.IntervalChoices, 505);
  EXPECT_EQ(A.ZonotopeChoices, 606);
  EXPECT_EQ(A.DisjunctSum, 707);
  EXPECT_EQ(A.NodesExpanded, 808);
  EXPECT_DOUBLE_EQ(A.Seconds, 0.75);

  // Merging a default-constructed stats object is the identity.
  VerifyStats Before = A;
  A += VerifyStats{};
  EXPECT_EQ(A.PgdCalls, Before.PgdCalls);
  EXPECT_EQ(A.MaxDepth, Before.MaxDepth);
  EXPECT_DOUBLE_EQ(A.Seconds, Before.Seconds);

  // Tripwire: adding a field to VerifyStats must come with a += clause and
  // an update to this test (8 longs + 1 double today).
  static_assert(sizeof(VerifyStats) == 8 * sizeof(long) + sizeof(double),
                "VerifyStats changed shape: update operator+= and this test");
}

//===----------------------------------------------------------------------===//
// Parallel verification agrees with sequential
//===----------------------------------------------------------------------===//

TEST(VerifierParallelTest, AgreesWithSequentialOnVerified) {
  Network Net = testing_nets::makeXorNetwork();
  Verifier V(Net, VerificationPolicy());
  RobustnessProperty Prop = makeProperty(Box::uniform(2, 0.3, 0.7), 1, "xor");
  ThreadPool Pool(4);
  VerifyResult Par = V.verifyParallel(Prop, Pool);
  VerifyResult Seq = V.verify(Prop);
  EXPECT_EQ(Par.Result, Seq.Result);
  EXPECT_EQ(Par.Result, Outcome::Verified);
}

TEST(VerifierParallelTest, FindsCounterexamples) {
  Network Net = testing_nets::makeXorNetwork();
  Verifier V(Net, VerificationPolicy());
  RobustnessProperty Prop = makeProperty(Box::uniform(2, 0.1, 0.9), 1, "xor");
  ThreadPool Pool(4);
  VerifyResult R = V.verifyParallel(Prop, Pool);
  ASSERT_EQ(R.Result, Outcome::Falsified);
  EXPECT_LE(Net.objective(R.Counterexample, 1), V.config().Delta);
}

TEST(VerifierParallelTest, ConvNetworkParallelSoundness) {
  Rng NetRng(13);
  Network Net = makeLeNet(TensorShape{1, 6, 6}, 3, NetRng);
  Vector Center(Net.inputSize());
  Rng R(14);
  for (size_t I = 0; I < Center.size(); ++I)
    Center[I] = R.uniform(0.3, 0.7);
  Box Region = Box::linfBall(Center, 0.01, 0.0, 1.0);
  size_t K = Net.classify(Center);
  VerifierConfig Config;
  Config.TimeLimitSeconds = 10.0;
  Verifier V(Net, VerificationPolicy(), Config);
  ThreadPool Pool(4);
  VerifyResult Res = V.verifyParallel(makeProperty(Region, K, "conv"), Pool);
  if (Res.Result == Outcome::Falsified) {
    EXPECT_LE(Net.objective(Res.Counterexample, K), Config.Delta);
  }
}

//===----------------------------------------------------------------------===//
// Policy training
//===----------------------------------------------------------------------===//

TEST(PolicyTrainerTest, ScoreIsNegativeTotalCost) {
  Network Net = testing_nets::makeXorNetwork();
  std::vector<TrainingProblem> Problems;
  Problems.push_back({&Net, makeProperty(Box::uniform(2, 0.3, 0.7), 1, "a")});
  Problems.push_back({&Net, makeProperty(Box::uniform(2, 0.4, 0.6), 1, "b")});
  PolicyTrainConfig Config;
  Config.TimeLimitSeconds = 2.0;
  Config.Threads = 2;
  double Score = scorePolicy(VerificationPolicy(), Problems, Config);
  EXPECT_LT(Score, 0.0);
  EXPECT_GT(Score, -2.0 * Config.Penalty * Config.TimeLimitSeconds);
}

TEST(PolicyTrainerTest, TrainedPolicyAtLeastMatchesDefault) {
  Network Net = testing_nets::makeXorNetwork();
  std::vector<TrainingProblem> Problems;
  for (double Lo : {0.3, 0.35, 0.4})
    Problems.push_back(
        {&Net, makeProperty(Box::uniform(2, Lo, 1.0 - Lo), 1, "t")});
  PolicyTrainConfig Config;
  Config.TimeLimitSeconds = 1.0;
  Config.Threads = 2;
  Config.BayesOpt.InitialSamples = 3;
  Config.BayesOpt.Iterations = 4;
  Rng R(15);
  PolicyTrainResult Result = trainPolicy(Problems, Config, R);
  EXPECT_GE(Result.BestScore, Result.DefaultScore);
  EXPECT_EQ(Result.Evaluations, 7);
  // The learned policy must still decide the training problems correctly.
  Verifier V(Net, Result.Policy);
  EXPECT_EQ(V.verify(Problems[0].Prop).Result, Outcome::Verified);
}
