//===- HarnessTests.cpp - Tests for the experiment harness ----------------------===//

#include "Harness.h"

#include "nn/Dense.h"
#include "nn/Relu.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace charon;
using namespace charon::bench;

namespace {

/// The Figure 3 XOR network (kept local: the bench harness has its own
/// include path, so tests/TestNetworks.h is reachable but this keeps the
/// harness test self-contained).
BenchmarkSuite makeXorSuite() {
  BenchmarkSuite Suite;
  Suite.Name = "xor";
  Network Net;
  Net.addLayer(std::make_unique<DenseLayer>(Matrix{{1.0, 1.0}, {1.0, 1.0}},
                                            Vector{0.0, -1.0}));
  Net.addLayer(std::make_unique<ReluLayer>(2));
  Net.addLayer(std::make_unique<DenseLayer>(Matrix{{-1.0, 2.0}, {1.0, -2.0}},
                                            Vector{1.0, 0.0}));
  Suite.Net = std::move(Net);

  RobustnessProperty Robust;
  Robust.Region = Box::uniform(2, 0.3, 0.7);
  Robust.TargetClass = 1;
  Robust.Name = "xor/robust";
  Suite.Properties.push_back(Robust);

  RobustnessProperty Broken;
  Broken.Region = Box::uniform(2, 0.1, 0.9);
  Broken.TargetClass = 1;
  Broken.Name = "xor/broken";
  Suite.Properties.push_back(Broken);
  return Suite;
}

} // namespace

TEST(HarnessTest, ToolNamesAreDistinct) {
  std::set<std::string> Names;
  for (ToolKind T : {ToolKind::Charon, ToolKind::CharonNoCex,
                     ToolKind::Ai2Zonotope, ToolKind::Ai2Bounded64,
                     ToolKind::ReluVal, ToolKind::Reluplex,
                     ToolKind::ReluplexBT})
    EXPECT_TRUE(Names.insert(toolName(T)).second);
}

TEST(HarnessTest, SummarizeCounts) {
  std::vector<RunRecord> Records(4);
  Records[0].Result = Verdict::Verified;
  Records[0].Seconds = 1.0;
  Records[1].Result = Verdict::Falsified;
  Records[1].Seconds = 2.0;
  Records[2].Result = Verdict::Timeout;
  Records[3].Result = Verdict::Unknown;
  Summary S = summarize(Records);
  EXPECT_EQ(S.Verified, 1);
  EXPECT_EQ(S.Falsified, 1);
  EXPECT_EQ(S.Timeout, 1);
  EXPECT_EQ(S.Unknown, 1);
  EXPECT_EQ(S.total(), 4);
  EXPECT_EQ(S.solved(), 2);
  EXPECT_DOUBLE_EQ(S.TotalSeconds, 3.0);
}

TEST(HarnessTest, EveryToolDecidesTheXorSuiteConsistently) {
  BenchmarkSuite Suite = makeXorSuite();
  HarnessConfig Config;
  Config.BudgetSeconds = 10.0;
  VerificationPolicy Policy;

  for (ToolKind Tool : {ToolKind::Charon, ToolKind::CharonNoCex,
                        ToolKind::Ai2Zonotope, ToolKind::Ai2Bounded64,
                        ToolKind::ReluVal, ToolKind::Reluplex,
                        ToolKind::ReluplexBT}) {
    RunRecord Robust =
        runTool(Tool, Suite, Suite.Properties[0], Config, Policy);
    // No sound tool may claim the robust property is falsified.
    EXPECT_NE(Robust.Result, Verdict::Falsified) << toolName(Tool);
    RunRecord Broken =
        runTool(Tool, Suite, Suite.Properties[1], Config, Policy);
    // And none may verify the broken one.
    EXPECT_NE(Broken.Result, Verdict::Verified) << toolName(Tool);
    EXPECT_EQ(Robust.Suite, "xor");
    EXPECT_GE(Robust.Seconds, 0.0);
  }
}

TEST(HarnessTest, CharonSolvesBothXorProperties) {
  BenchmarkSuite Suite = makeXorSuite();
  HarnessConfig Config;
  Config.BudgetSeconds = 10.0;
  std::vector<BenchmarkSuite> Suites;
  Suites.push_back(std::move(Suite));
  std::vector<RunRecord> Records = runToolOnSuites(
      ToolKind::Charon, Suites, Config, VerificationPolicy());
  Summary S = summarize(Records);
  EXPECT_EQ(S.Verified, 1);
  EXPECT_EQ(S.Falsified, 1);
}

TEST(HarnessTest, EnvOverridesParseSanely) {
  // defaultHarnessConfig reads env vars; absent vars give the defaults.
  HarnessConfig Config = defaultHarnessConfig();
  EXPECT_GE(Config.PropertiesPerSuite, 1);
  EXPECT_GT(Config.BudgetSeconds, 0.0);
}

TEST(HarnessTest, MicroDomainCaseIsDeterministicAndMeasured) {
  MicroDomainCase Case;
  Case.Name = "test_zonotope_w8";
  Case.Width = 8;
  Case.HiddenLayers = 1;
  Case.Spec.Base = BaseDomainKind::Zonotope;

  MicroDomainResult A = runMicroDomainCase(Case, 2);
  MicroDomainResult B = runMicroDomainCase(Case, 2);
  EXPECT_EQ(A.InputDim, 8u);
  EXPECT_EQ(A.OutputDim, 10u);
  EXPECT_GT(A.Generators, 0u);
  EXPECT_GT(A.Seconds, 0.0);
  EXPECT_EQ(A.Repeats, 2);
  // The seeded case must be run-to-run deterministic to the bit.
  EXPECT_EQ(A.Margin, B.Margin);
  EXPECT_EQ(A.Generators, B.Generators);
}

TEST(HarnessTest, MicroDomainJsonHasTrackedFields) {
  MicroDomainCase Case;
  Case.Name = "test_interval_w8";
  Case.Width = 8;
  Case.HiddenLayers = 1;
  Case.Spec.Base = BaseDomainKind::Interval;

  std::vector<MicroDomainResult> Results;
  Results.push_back(runMicroDomainCase(Case, 1));
  std::string Json = microDomainJson(Results);
  // Structural smoke checks; scripts/check.sh additionally runs a full JSON
  // parse over the real benchmark output when python3 is available.
  EXPECT_NE(Json.find("\"schema\": \"charon-bench-micro-domains/3\""),
            std::string::npos);
  for (const char *Field :
       {"\"simd\"", "\"name\"", "\"domain\"", "\"precision\"", "\"act\"",
        "\"width\"",
        "\"hidden_layers\"", "\"input_dim\"", "\"output_dim\"",
        "\"generators\"", "\"margin\"", "\"seconds\"", "\"repeats\""})
    EXPECT_NE(Json.find(Field), std::string::npos) << Field;
  EXPECT_NE(Json.find("test_interval_w8"), std::string::npos);
  EXPECT_EQ(Json.back(), '\n');
}

TEST(HarnessTest, DefaultMicroDomainCasesAreDistinctlyNamed) {
  std::set<std::string> Names;
  for (const MicroDomainCase &Case : defaultMicroDomainCases())
    EXPECT_TRUE(Names.insert(Case.Name).second) << Case.Name;
  EXPECT_GE(Names.size(), 5u);
  // At least one smooth-activation case tracks the relaxation transformers'
  // cost next to the ReLU case split.
  bool SawSmooth = false;
  for (const MicroDomainCase &Case : defaultMicroDomainCases())
    SawSmooth |= Case.Act != ActivationKind::Relu;
  EXPECT_TRUE(SawSmooth);
}
