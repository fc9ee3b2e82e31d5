//===- FuzzTests.cpp - Unit tests for the soundness-fuzzing subsystem ---------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Covers the generator (determinism, spec round-trips), the repro format
// (round-trip, malformed rejection), the oracles (clean on the paper's
// worked examples, fault injection caught), and campaign determinism.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"

#include "TestNetworks.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace charon;
using namespace charon::testing_nets;

namespace {

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

TEST(RandomNetworkTest, SpecGenerationIsDeterministic) {
  GeneratorConfig Config;
  Rng A(123), B(123);
  for (int I = 0; I < 20; ++I) {
    NetworkSpec SA = generateNetworkSpec(A, Config);
    NetworkSpec SB = generateNetworkSpec(B, Config);
    EXPECT_TRUE(SA == SB) << "draw " << I << " diverged";
  }
}

TEST(RandomNetworkTest, BuildNetworkIsBitIdentical) {
  Rng R(7);
  GeneratorConfig Config;
  for (int I = 0; I < 10; ++I) {
    NetworkSpec Spec = generateNetworkSpec(R, Config);
    Network N1 = buildNetwork(Spec);
    Network N2 = buildNetwork(Spec);
    ASSERT_EQ(N1.inputSize(), specInputSize(Spec));
    ASSERT_EQ(N1.outputSize(), specOutputSize(Spec));
    Vector X(N1.inputSize());
    for (size_t J = 0; J < X.size(); ++J)
      X[J] = 0.1 + 0.05 * static_cast<double>(J);
    Vector Y1 = N1.evaluate(X);
    Vector Y2 = N2.evaluate(X);
    for (size_t J = 0; J < Y1.size(); ++J)
      EXPECT_EQ(Y1[J], Y2[J]) << "weights not bit-identical";
  }
}

TEST(RandomNetworkTest, PropertyLiesInsideUnitBox) {
  Rng R(99);
  GeneratorConfig Config;
  for (int I = 0; I < 10; ++I) {
    NetworkSpec Spec = generateNetworkSpec(R, Config);
    Network Net = buildNetwork(Spec);
    RobustnessProperty Prop = generateProperty(R, Net, Config);
    ASSERT_EQ(Prop.Region.dim(), Net.inputSize());
    EXPECT_LT(Prop.TargetClass, Net.outputSize());
    for (size_t D = 0; D < Prop.Region.dim(); ++D) {
      EXPECT_GE(Prop.Region.lower()[D], 0.0);
      EXPECT_LE(Prop.Region.upper()[D], 1.0);
      EXPECT_LT(Prop.Region.lower()[D], Prop.Region.upper()[D]);
    }
  }
}

TEST(RandomNetworkTest, SpecRoundTripsThroughText) {
  Rng R(31);
  GeneratorConfig Config;
  Config.ConvProbability = 0.5; // Exercise both families.
  for (int I = 0; I < 20; ++I) {
    NetworkSpec Spec = generateNetworkSpec(R, Config);
    std::ostringstream Os;
    writeNetworkSpec(Spec, Os);
    std::istringstream Is(Os.str());
    NetworkSpec Back;
    ASSERT_TRUE(readNetworkSpec(Is, Back)) << Os.str();
    EXPECT_TRUE(Spec == Back) << Os.str();

    // Re-serialization must be byte-identical.
    std::ostringstream Os2;
    writeNetworkSpec(Back, Os2);
    EXPECT_EQ(Os.str(), Os2.str());
  }
}

TEST(RandomNetworkTest, SpecRejectsMalformedInput) {
  const char *Bad[] = {
      "",                              // empty
      "dense 1 2 3",                   // unknown arch
      "mlp 5 2",                       // truncated
      "mlp 5 0 3 1 4",                 // zero inputs
      "mlp 5 2 3 2 4",                 // hidden count mismatch
      "conv 5 1 4 4 2 3 1 1 1",        // truncated conv
      "conv 5 1 4 4 2 9 1 0 0 3",      // kernel larger than input
      "conv 5 0 4 4 2 3 1 1 0 3",      // zero channels
  };
  for (const char *Text : Bad) {
    std::istringstream Is(Text);
    NetworkSpec Spec;
    EXPECT_FALSE(readNetworkSpec(Is, Spec)) << "accepted: " << Text;
  }
}

//===----------------------------------------------------------------------===//
// Oracles on the paper's worked examples
//===----------------------------------------------------------------------===//

RobustnessProperty centerProperty(const Network &Net, const Box &Region) {
  RobustnessProperty Prop;
  Prop.Region = Region;
  Prop.TargetClass = Net.classify(Region.center());
  Prop.Name = "fuzz-test";
  return Prop;
}

TEST(OracleTest, CleanOnPaperNetworks) {
  OracleConfig Cfg;
  std::vector<DomainSpec> Domains = defaultFuzzDomains();

  struct Case {
    Network Net;
    Box Region;
  };
  Case Cases[] = {
      {makeXorNetwork(), Box::uniform(2, 0.0, 0.2)},
      {makeExample22Network(), Box::uniform(1, -1.0, 1.0)},
      {makeExample23Network(), Box::uniform(2, 0.0, 1.0)},
  };
  for (Case &C : Cases) {
    RobustnessProperty Prop = centerProperty(C.Net, C.Region);
    Rng OracleR(17);
    std::vector<OracleViolation> V =
        runFuzzCase(C.Net, Prop, Domains, Cfg, OracleR);
    for (const OracleViolation &X : V)
      ADD_FAILURE() << X.Oracle << ": " << X.Message;
  }
}

TEST(OracleTest, CheckpointResumeIsCleanOnPaperNetworks) {
  OracleConfig Cfg;
  Network Net = makeXorNetwork();
  RobustnessProperty Prop = centerProperty(Net, Box::uniform(2, 0.3, 0.7));
  // A handful of random cut fractions: each interrupts the search at a
  // different point, and every resumed chain must land on the
  // uninterrupted verdict with identical stats.
  for (uint64_t Seed : {11u, 12u, 13u}) {
    Rng R(Seed);
    std::vector<OracleViolation> V =
        checkCheckpointResume(Net, Prop, VerificationPolicy(), Cfg, R);
    for (const OracleViolation &X : V)
      ADD_FAILURE() << X.Oracle << ": " << X.Message;
  }
}

TEST(OracleTest, InjectedBugIsCaught) {
  Network Net = makeExample23Network();
  Box Region = Box::uniform(2, 0.0, 1.0);

  OracleConfig Clean;
  Rng R1(5);
  EXPECT_TRUE(
      checkContainment(Net, Region, {BaseDomainKind::Interval, 1}, Clean, R1)
          .empty());

  // Interval bounds on this net span several units; pretending they are 0.5
  // tighter must make sampled concrete outputs escape.
  OracleConfig Buggy;
  Buggy.InjectTighten = 0.5;
  Rng R2(5);
  std::vector<OracleViolation> V =
      checkContainment(Net, Region, {BaseDomainKind::Interval, 1}, Buggy, R2);
  ASSERT_FALSE(V.empty());
  EXPECT_EQ(V.front().Oracle, "containment:Interval");
}

TEST(OracleTest, ParseDomainSpec) {
  auto D = parseDomainSpec("Zonotope^2");
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->Base, BaseDomainKind::Zonotope);
  EXPECT_EQ(D->Disjuncts, 2);
  EXPECT_TRUE(parseDomainSpec("Interval").has_value());
  EXPECT_TRUE(parseDomainSpec("Polyhedra").has_value());
  EXPECT_FALSE(parseDomainSpec("Octagon").has_value());
  EXPECT_FALSE(parseDomainSpec("Zonotope^0").has_value());
  EXPECT_FALSE(parseDomainSpec("Zonotope^x").has_value());
  // Symbolic intervals have no powerset lifting.
  EXPECT_FALSE(parseDomainSpec("SymbolicInterval^2").has_value());
}

//===----------------------------------------------------------------------===//
// Repro format
//===----------------------------------------------------------------------===//

FuzzRepro sampleRepro() {
  FuzzRepro Repro;
  Repro.CampaignSeed = 42;
  Repro.CaseIndex = 7;
  Repro.ExpectViolation = true;
  Repro.Oracle = "containment:Zonotope";
  Repro.Message = "output 1 escapes [0.25, 0.75] at x = [0.5]";
  Repro.Cfg.ContainmentSamples = 12;
  Repro.Cfg.InjectTighten = 0.125;
  Repro.Domains = {{BaseDomainKind::Interval, 1},
                   {BaseDomainKind::Zonotope, 2}};
  Repro.Net.Arch = FuzzArch::Mlp;
  Repro.Net.WeightSeed = 99;
  Repro.Net.Inputs = 3;
  Repro.Net.Outputs = 2;
  Repro.Net.Hidden = {4, 4};
  Repro.Prop.Region = Box::uniform(3, 0.25, 0.75);
  Repro.Prop.TargetClass = 1;
  Repro.Prop.Name = "fuzz-42-7";
  return Repro;
}

TEST(ReproTest, RoundTripsThroughText) {
  FuzzRepro Repro = sampleRepro();
  std::ostringstream Os;
  saveRepro(Repro, Os);

  std::istringstream Is(Os.str());
  std::optional<FuzzRepro> Back = loadRepro(Is);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->CampaignSeed, Repro.CampaignSeed);
  EXPECT_EQ(Back->CaseIndex, Repro.CaseIndex);
  EXPECT_EQ(Back->ExpectViolation, Repro.ExpectViolation);
  EXPECT_EQ(Back->Oracle, Repro.Oracle);
  EXPECT_EQ(Back->Message, Repro.Message);
  EXPECT_EQ(Back->Cfg.ContainmentSamples, Repro.Cfg.ContainmentSamples);
  EXPECT_EQ(Back->Cfg.InjectTighten, Repro.Cfg.InjectTighten);
  ASSERT_EQ(Back->Domains.size(), Repro.Domains.size());
  EXPECT_EQ(Back->Domains[1].Disjuncts, 2);
  EXPECT_TRUE(Back->Net == Repro.Net);
  EXPECT_EQ(Back->Prop.TargetClass, Repro.Prop.TargetClass);
  EXPECT_EQ(Back->Prop.Name, Repro.Prop.Name);

  // Byte-identical re-serialization.
  std::ostringstream Os2;
  saveRepro(*Back, Os2);
  EXPECT_EQ(Os.str(), Os2.str());
}

TEST(ReproTest, RejectsMalformedInput) {
  FuzzRepro Good = sampleRepro();
  std::ostringstream Os;
  saveRepro(Good, Os);
  const std::string Text = Os.str();

  // Sanity: the pristine text parses.
  {
    std::istringstream Is(Text);
    ASSERT_TRUE(loadRepro(Is).has_value());
  }

  auto Rejects = [](const std::string &Mutated) {
    std::istringstream Is(Mutated);
    EXPECT_FALSE(loadRepro(Is).has_value()) << Mutated;
  };

  Rejects("");
  Rejects("charon-fuzz-repro 2\n");          // wrong version
  Rejects("not-a-repro 1\n" + Text.substr(Text.find('\n') + 1));
  Rejects(Text.substr(0, Text.size() / 2));  // truncated
  {
    // Property dimension disagrees with the network spec.
    std::string Mutated = Text;
    size_t Pos = Mutated.find("dim 3");
    ASSERT_NE(Pos, std::string::npos);
    Mutated.replace(Pos, 5, "dim 2");
    Rejects(Mutated);
  }
  {
    // Unknown domain token.
    std::string Mutated = Text;
    size_t Pos = Mutated.find("Zonotope^2");
    ASSERT_NE(Pos, std::string::npos);
    Mutated.replace(Pos, 10, "Octagon^42");
    Rejects(Mutated);
  }
  {
    // Target class out of range for the network's outputs.
    std::string Mutated = Text;
    size_t Pos = Mutated.find("target 1");
    ASSERT_NE(Pos, std::string::npos);
    Mutated.replace(Pos, 8, "target 9");
    Rejects(Mutated);
  }
}

TEST(ReproTest, ReplayOfInjectedFaultReproduces) {
  // End to end: an injected-fault campaign writes a repro file whose replay
  // deterministically reproduces the violation.
  CampaignConfig Config;
  Config.Seed = 2718;
  Config.TimeBudgetSeconds = -1.0;
  Config.MaxCases = 3;
  Config.Oracle.InjectTighten = 0.5;
  Config.ReproDir.clear(); // In-memory only; replay from the struct.

  CampaignResult Result = runCampaign(Config);
  ASSERT_FALSE(Result.Violations.empty())
      << "fault injection produced no violations";

  const FuzzRepro &Repro = Result.Violations.front();
  ReplayResult Replay = replayRepro(Repro);
  EXPECT_TRUE(Replay.ViolationReproduced);
  EXPECT_TRUE(Replay.MatchesExpectation);
  ASSERT_FALSE(Replay.Violations.empty());
  EXPECT_EQ(Replay.Violations.front().Oracle, Repro.Oracle);
  EXPECT_EQ(Replay.Violations.front().Message.substr(0, 32),
            Repro.Message.substr(0, 32));
}

//===----------------------------------------------------------------------===//
// Campaign
//===----------------------------------------------------------------------===//

TEST(CampaignTest, CaseRngIsIndependentOfPredecessors) {
  // Case k's randomness depends only on (seed, k).
  Rng A = caseRng(10, 5);
  Rng B = caseRng(10, 5);
  EXPECT_EQ(A.next(), B.next());
  Rng C = caseRng(10, 6);
  Rng D = caseRng(11, 5);
  EXPECT_NE(caseRng(10, 5).next(), C.next());
  EXPECT_NE(caseRng(10, 5).next(), D.next());
}

TEST(CampaignTest, MiniCampaignIsDeterministicAndClean) {
  CampaignConfig Config;
  Config.Seed = 1234;
  Config.TimeBudgetSeconds = -1.0;
  Config.MaxCases = 6;

  CampaignResult R1 = runCampaign(Config);
  CampaignResult R2 = runCampaign(Config);

  EXPECT_EQ(R1.Stats.Cases, 6);
  EXPECT_EQ(R1.Stats.Cases, R2.Stats.Cases);
  EXPECT_EQ(R1.Stats.ContainmentChecks, R2.Stats.ContainmentChecks);
  EXPECT_EQ(R1.Stats.PrecisionChecks, R2.Stats.PrecisionChecks);
  EXPECT_EQ(R1.Stats.totalChecks(), R2.Stats.totalChecks());
  EXPECT_EQ(R1.Stats.Violations, R2.Stats.Violations);
  for (const FuzzRepro &V : R1.Violations)
    ADD_FAILURE() << "case " << V.CaseIndex << " " << V.Oracle << ": "
                  << V.Message;
}

TEST(CampaignTest, RefusesDoublyUnboundedConfig) {
  CampaignConfig Config;
  Config.TimeBudgetSeconds = -1.0;
  Config.MaxCases = -1;
  CampaignResult Result = runCampaign(Config);
  EXPECT_EQ(Result.Stats.Cases, 0);
}

} // namespace
