//===- HarnessTests.cpp - Tests for the experiment harness ----------------------===//

#include "Harness.h"

#include "nn/Dense.h"
#include "nn/Relu.h"
#include "opt/Pgd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
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

TEST(HarnessTest, PgdCaseIsDeterministicAndTheEnginesAgree) {
  CexSearchCase Case;
  Case.Name = "test_pgd_w8";
  Case.Width = 8;
  Case.HiddenLayers = 1;
  Case.Restarts = 2;
  Case.Steps = 5;

  // runCexSearchCase aborts unless both engines return the same search
  // result on every run.
  CexSearchResult A = runCexSearchCase(Case, 2);
  CexSearchResult B = runCexSearchCase(Case, 2);
  EXPECT_EQ(A.Objective, B.Objective);
  EXPECT_TRUE(std::isfinite(A.Objective));
  EXPECT_GT(A.ScalarSeconds, 0.0);
  EXPECT_GT(A.BatchedSeconds, 0.0);
  EXPECT_EQ(A.Repeats, 2);
}

TEST(HarnessTest, BenchDocumentRoundTripsThroughTheLineReader) {
  const double Doubles[] = {0.1 + 0.2, 5e-324, -0.0, -1465.6053804388139};
  std::vector<BenchCase> Cases;
  Cases.push_back(BenchCase("first")
                      .text("domain", "Zonotope^4")
                      .number("search.nodes", 1402)
                      .number("sum", Doubles[0])
                      .number("denormal", Doubles[1])
                      .number("negative_zero", Doubles[2])
                      .number("margin", Doubles[3])
                      .flag("verdicts_identical", true)
                      .numbers("search.nodes_by_thread",
                               {3.0, 0.0, Doubles[0], Doubles[1]}));
  Cases.push_back(BenchCase("second").flag("ok", false).numbers("empty", {}));
  std::string Doc = benchDocument("test", Cases);
  ASSERT_FALSE(Doc.empty());
  ASSERT_EQ(Doc.back(), '\n');

  std::istringstream Lines(Doc);
  std::string Line;
  ASSERT_TRUE(std::getline(Lines, Line));
  json::Object Header;
  ASSERT_TRUE(json::parseObjectLine(Line, Header)) << Line;
  EXPECT_EQ(Header["schema"].S, "charon-bench/1");
  EXPECT_EQ(Header["bench"].S, "test");
  EXPECT_TRUE(Header["simd"].S == "scalar" || Header["simd"].S == "avx2");
  EXPECT_GE(Header["host_cores"].N, 1.0);

  auto SameBits = [](double A, double B) {
    return std::bit_cast<uint64_t>(A) == std::bit_cast<uint64_t>(B);
  };
  for (const BenchCase &Case : Cases) {
    ASSERT_TRUE(std::getline(Lines, Line));
    std::string Error;
    json::Object Got;
    ASSERT_TRUE(json::parseObjectLine(Line, Got, &Error)) << Error << Line;
    ASSERT_EQ(Got.size(), Case.Fields.size()) << Line;
    for (const auto &[Field, Want] : Case.Fields) {
      ASSERT_EQ(Got.count(Field), 1u) << Field;
      const json::Value &V = Got[Field];
      ASSERT_EQ(V.K, Want.K) << Field;
      EXPECT_EQ(V.S, Want.S) << Field;
      EXPECT_EQ(V.B, Want.B) << Field;
      EXPECT_TRUE(SameBits(V.N, Want.N)) << Field;
      ASSERT_EQ(V.A.size(), Want.A.size()) << Field;
      for (size_t I = 0; I < V.A.size(); ++I)
        EXPECT_TRUE(SameBits(V.A[I], Want.A[I])) << Field << "[" << I << "]";
    }
  }
  EXPECT_FALSE(std::getline(Lines, Line));
}

TEST(HarnessTest, BenchDocumentRefusesWhatAReaderWouldReject) {
  auto Refused = [](std::vector<BenchCase> Cases) {
    return benchDocument("test", Cases).empty();
  };
  EXPECT_FALSE(Refused({BenchCase("ok").number("x.y-z_1", 1.0)}));
  EXPECT_TRUE(Refused({BenchCase("ok").number("x", NAN)}));
  EXPECT_TRUE(Refused({BenchCase("ok").number("x", INFINITY)}));
  EXPECT_TRUE(Refused({BenchCase("ok").numbers("x", {1.0, -INFINITY})}));
  for (const char *Bad : {"", "_x", "a b", "a/b", "a\"b"}) {
    EXPECT_TRUE(Refused({BenchCase("ok").number(Bad, 1.0)})) << Bad;
    EXPECT_TRUE(Refused({BenchCase(Bad)})) << Bad;
  }
  EXPECT_TRUE(Refused({BenchCase("ok").number(std::string(65, 'a'), 1.0)}));
  EXPECT_TRUE(Refused({BenchCase("ok").number("x", 1.0).flag("x", true)}));
  EXPECT_TRUE(Refused({BenchCase("twin"), BenchCase("twin")}));
}

TEST(HarnessTest, DefaultMicroDomainCasesAreDistinctlyNamed) {
  std::set<std::string> Names;
  bool SawSmooth = false;
  std::set<BaseDomainKind> Bases;
  bool SawWidePowerset = false;
  for (const MicroDomainCase &Case : defaultMicroDomainCases()) {
    EXPECT_TRUE(Names.insert(Case.Name).second) << Case.Name;
    // A smooth-activation case tracks the relaxation transformers' cost
    // next to the ReLU case split.
    SawSmooth |= Case.Act != ActivationKind::Relu;
    Bases.insert(Case.Spec.Base);
    SawWidePowerset |= Case.Spec.Disjuncts == 64;
  }
  EXPECT_TRUE(SawSmooth);
  // Every base domain and the Zonotope^64 powerset has a tracked case.
  EXPECT_EQ(Bases.size(), 4u);
  EXPECT_TRUE(SawWidePowerset);
  size_t DomainCases = Names.size();
  bool SawVerifierPopulation = false;
  for (const CexSearchCase &Case : defaultCexSearchCases()) {
    EXPECT_TRUE(Names.insert(Case.Name).second) << Case.Name;
    // The population the verifier runs at every node is timed too.
    SawVerifierPopulation |= Case.Restarts == PgdConfig().Restarts;
  }
  EXPECT_GE(DomainCases, 10u);
  EXPECT_EQ(Names.size(), DomainCases + 5);
  EXPECT_TRUE(SawVerifierPopulation);
}
