//===- OnnxImportTests.cpp - ONNX-subset importer contract --------------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Two halves. The golden half imports the checked-in fixture models
// (tests/onnx/fixtures/) and requires the lowering to be byte-identical to
// the checked-in .net files — the digest-stability contract that lets the
// service registry deduplicate re-imports. The negative half assembles
// out-of-subset or corrupt models with ModelBuilder and requires a one-line
// diagnostic, never a crash and never a silently wrong network.
//
//===----------------------------------------------------------------------===//

#include "abstract/Analyzer.h"
#include "core/Digest.h"
#include "core/Verifier.h"
#include "nn/Io.h"
#include "onnx/OnnxBuilder.h"
#include "onnx/OnnxImport.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace charon;
using namespace charon::onnx;

namespace {

std::string fixturePath(const std::string &Name) {
  return std::string(CHARON_ONNX_FIXTURE_DIR) + "/" + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream Is(Path, std::ios::binary);
  std::ostringstream Os;
  Os << Is.rdbuf();
  return Os.str();
}

std::string serialize(const Network &Net) {
  std::ostringstream Os;
  saveNetwork(Net, Os);
  return Os.str();
}

ImportResult importBytes(const std::vector<unsigned char> &Bytes) {
  return importModelBytes(Bytes.data(), Bytes.size());
}

/// Expects a clean diagnostic: no network, a non-empty error mentioning
/// \p Needle (empty needle = any message).
void expectDiagnostic(const ImportResult &R, const std::string &Needle,
                      const std::string &What) {
  EXPECT_FALSE(R.Net.has_value()) << What;
  ASSERT_FALSE(R.Error.empty()) << What;
  if (!Needle.empty())
    EXPECT_NE(R.Error.find(Needle), std::string::npos)
        << What << ": diagnostic was \"" << R.Error << "\"";
}

/// The minimal in-subset model: MatMul + Add bias -> Sigmoid -> Gemm.
/// Mirrors the mlp-sigmoid fixture but is assembled in-test so negative
/// variants can perturb it.
ModelBuilder mlpBuilder() {
  auto W = [](int Seed, int Count) {
    std::vector<double> V(Count);
    for (int I = 0; I < Count; ++I)
      V[I] = 0.75 * std::sin(0.7 * Seed + 0.31 * I + 0.13);
    return V;
  };
  ModelBuilder B;
  B.setInput("x", {1, 4});
  B.addInitializer("w1", {4, 8}, W(11, 32));
  B.addInitializer("b1", {8}, W(12, 8));
  B.addNode("MatMul", {"x", "w1"}, {"m1"});
  B.addNode("Add", {"m1", "b1"}, {"a1"});
  B.addNode("Sigmoid", {"a1"}, {"s1"});
  B.addInitializer("w2", {3, 8}, W(13, 24));
  B.addInitializer("b2", {3}, W(14, 3));
  B.addNode("Gemm", {"s1", "w2", "b2"}, {"y"},
            {ModelBuilder::Attr::ofInt("transB", 1)});
  B.setOutput("y", {1, 3});
  return B;
}

TEST(OnnxGoldenTest, MixedFixtureLowersToGolden) {
  ImportResult R = importModelFile(fixturePath("mixed.onnx"));
  ASSERT_TRUE(R.Net.has_value()) << R.Error;

  // Conv(+folded BN) -> Relu -> AvgPool -> residual -> Flatten -> Dense.
  EXPECT_EQ(R.Net->numLayers(), 6u);
  EXPECT_EQ(R.Net->inputSize(), 72u);
  EXPECT_EQ(R.Net->outputSize(), 3u);

  // The lowering serializes byte-for-byte to the checked-in golden, so the
  // fingerprint (and thus registry dedup and cache keys) is stable.
  EXPECT_EQ(serialize(*R.Net), slurp(fixturePath("mixed.net")));
  std::optional<Network> Golden = loadNetworkFile(fixturePath("mixed.net"));
  ASSERT_TRUE(Golden.has_value());
  EXPECT_EQ(fingerprintNetwork(*R.Net), fingerprintNetwork(*Golden));
}

TEST(OnnxGoldenTest, MlpSigmoidFixtureLowersToGolden) {
  ImportResult R = importModelFile(fixturePath("mlp_sigmoid.onnx"));
  ASSERT_TRUE(R.Net.has_value()) << R.Error;
  EXPECT_EQ(R.Net->numLayers(), 3u);
  EXPECT_EQ(R.Net->inputSize(), 4u);
  EXPECT_EQ(R.Net->outputSize(), 3u);
  EXPECT_EQ(serialize(*R.Net), slurp(fixturePath("mlp_sigmoid.net")));
}

TEST(OnnxGoldenTest, BuilderBytesMatchCheckedInFixture) {
  // ModelBuilder is deterministic: assembling the mlp-sigmoid model in-test
  // reproduces the checked-in fixture bytes exactly.
  std::vector<unsigned char> Bytes = mlpBuilder().finish("mlp-sigmoid");
  std::string OnDisk = slurp(fixturePath("mlp_sigmoid.onnx"));
  ASSERT_EQ(Bytes.size(), OnDisk.size());
  EXPECT_TRUE(std::equal(Bytes.begin(), Bytes.end(),
                         reinterpret_cast<const unsigned char *>(
                             OnDisk.data())));
}

TEST(OnnxGoldenTest, ImportIsDeterministic) {
  ImportResult A = importModelFile(fixturePath("mixed.onnx"));
  ImportResult B = importModelFile(fixturePath("mixed.onnx"));
  ASSERT_TRUE(A.Net && B.Net);
  EXPECT_EQ(fingerprintNetwork(*A.Net), fingerprintNetwork(*B.Net));
  EXPECT_EQ(serialize(*A.Net), serialize(*B.Net));
}

TEST(OnnxGoldenTest, ImportedMlpEvaluatesLikeTheOnnxGraph) {
  // Hand-evaluate the mlp-sigmoid graph (MatMul row-major, sigmoid, Gemm
  // with transB) and compare against the imported network.
  ImportResult R = importModelFile(fixturePath("mlp_sigmoid.onnx"));
  ASSERT_TRUE(R.Net.has_value()) << R.Error;
  auto W = [](int Seed, int I) {
    return 0.75 * std::sin(0.7 * Seed + 0.31 * I + 0.13);
  };
  Vector X(4);
  for (size_t I = 0; I < 4; ++I)
    X[I] = 0.2 + 0.1 * static_cast<double>(I);

  double H[8];
  for (int J = 0; J < 8; ++J) {
    double S = W(12, J); // bias
    for (int I = 0; I < 4; ++I)
      S += X[static_cast<size_t>(I)] * W(11, I * 8 + J); // w1 is (4, 8)
    H[J] = 1.0 / (1.0 + std::exp(-S));
  }
  Vector Y = R.Net->evaluate(X);
  ASSERT_EQ(Y.size(), 3u);
  for (int K = 0; K < 3; ++K) {
    double S = W(14, K); // bias
    for (int J = 0; J < 8; ++J)
      S += H[J] * W(13, K * 8 + J); // w2 is (3, 8), transB
    EXPECT_NEAR(Y[static_cast<size_t>(K)], S, 1e-12) << "output " << K;
  }
}

TEST(OnnxNegativeTest, GarbageBytesAreRejected) {
  const unsigned char Garbage[] = "this is not an onnx model at all";
  ImportResult R = importModelBytes(Garbage, sizeof(Garbage) - 1);
  expectDiagnostic(R, "", "garbage bytes");
}

TEST(OnnxNegativeTest, TruncatedModelsAreRejectedAtEveryLength) {
  std::vector<unsigned char> Bytes = mlpBuilder().finish();
  // Every strict prefix must fail cleanly — the wire parser's bounded
  // cursor turns any truncation into a diagnostic, never a read past the
  // end or a crash.
  for (size_t Len = 0; Len + 1 < Bytes.size(); Len += 13) {
    ImportResult R = importModelBytes(Bytes.data(), Len);
    EXPECT_FALSE(R.Net.has_value()) << "prefix of " << Len << " bytes";
    EXPECT_FALSE(R.Error.empty()) << "prefix of " << Len << " bytes";
  }
}

TEST(OnnxNegativeTest, UnsupportedOpsNameTheOp) {
  ModelBuilder B;
  B.setInput("x", {1, 4});
  B.addNode("Softmax", {"x"}, {"y"});
  B.setOutput("y", {1, 4});
  expectDiagnostic(importBytes(B.finish()), "Softmax", "unsupported op");
}

TEST(OnnxNegativeTest, ShapeMismatchesAreRejected) {
  // MatMul whose weight rows disagree with the incoming width.
  ModelBuilder B;
  B.setInput("x", {1, 4});
  B.addInitializer("w", {5, 3}, std::vector<double>(15, 0.1));
  B.addNode("MatMul", {"x", "w"}, {"y"});
  B.setOutput("y", {1, 3});
  expectDiagnostic(importBytes(B.finish()), "", "matmul shape mismatch");

  // Initializer whose element count disagrees with its dims.
  ModelBuilder C;
  C.setInput("x", {1, 2});
  C.addInitializer("w", {2, 2}, {1.0, 2.0, 3.0}); // 3 values, dims say 4
  C.addNode("MatMul", {"x", "w"}, {"y"});
  C.setOutput("y", {1, 2});
  expectDiagnostic(importBytes(C.finish()), "", "initializer count mismatch");
}

TEST(OnnxNegativeTest, OutOfSubsetAttributesAreRejected) {
  // Gemm with alpha != 1 is outside the supported subset.
  ModelBuilder B;
  B.setInput("x", {1, 2});
  B.addInitializer("w", {3, 2}, std::vector<double>(6, 0.25));
  B.addInitializer("b", {3}, std::vector<double>(3, 0.0));
  B.addNode("Gemm", {"x", "w", "b"}, {"y"},
            {ModelBuilder::Attr::ofFloat("alpha", 2.0),
             ModelBuilder::Attr::ofInt("transB", 1)});
  B.setOutput("y", {1, 3});
  expectDiagnostic(importBytes(B.finish()), "alpha", "gemm alpha=2");

  // Conv with group != 1.
  ModelBuilder C;
  C.setInput("x", {1, 2, 4, 4});
  C.addInitializer("w", {2, 1, 3, 3}, std::vector<double>(18, 0.1));
  C.addNode("Conv", {"x", "w"}, {"y"},
            {ModelBuilder::Attr::ofInts("kernel_shape", {3, 3}),
             ModelBuilder::Attr::ofInt("group", 2)});
  C.setOutput("y", {1, 2, 2, 2});
  expectDiagnostic(importBytes(C.finish()), "group", "grouped conv");
}

TEST(OnnxEndToEndTest, MixedFixtureSoundInEveryDomain) {
  // The headline acceptance check: the conv/avgpool/sigmoid/residual
  // fixture imports and its abstract output bounds contain the concrete
  // outputs in every domain — 10k sampled points per domain, 50k total.
  ImportResult R = importModelFile(fixturePath("mixed.onnx"));
  ASSERT_TRUE(R.Net.has_value()) << R.Error;
  const Network &Net = *R.Net;

  Vector Center(Net.inputSize());
  for (size_t I = 0; I < Center.size(); ++I)
    Center[I] = 0.1;
  Box Region = Box::linfBall(Center, 0.01, -1.0, 1.0);

  const DomainSpec Domains[] = {
      {BaseDomainKind::Interval, 1},
      {BaseDomainKind::Zonotope, 1},
      {BaseDomainKind::Zonotope, 2},
      {BaseDomainKind::SymbolicInterval, 1},
      {BaseDomainKind::Polyhedra, 1},
  };
  Rng Sampler(2026);
  for (const DomainSpec &Spec : Domains) {
    auto Elem = makeElement(Region, Spec);
    ASSERT_TRUE(propagate(Net, *Elem)) << toString(Spec);
    for (int S = 0; S < 10000; ++S) {
      Vector X = Region.sample(Sampler);
      Vector Y = Net.evaluate(X);
      for (size_t O = 0; O < Y.size(); ++O) {
        ASSERT_GE(Y[O], Elem->lowerBound(O) - 1e-7)
            << toString(Spec) << " output " << O;
        ASSERT_LE(Y[O], Elem->upperBound(O) + 1e-7)
            << toString(Spec) << " output " << O;
      }
    }
  }
}

TEST(OnnxEndToEndTest, MixedFixtureDecidesBothWays) {
  // Full decision procedure on the imported fixture: the center-class
  // property verifies, and a wrong-class property falsifies with a
  // delta-valid counterexample found by PGD.
  ImportResult R = importModelFile(fixturePath("mixed.onnx"));
  ASSERT_TRUE(R.Net.has_value()) << R.Error;
  const Network &Net = *R.Net;

  Vector Center(Net.inputSize());
  for (size_t I = 0; I < Center.size(); ++I)
    Center[I] = 0.1;
  Vector Y = Net.evaluate(Center);
  size_t Best = 0;
  for (size_t I = 1; I < Y.size(); ++I)
    if (Y[I] > Y[Best])
      Best = I;

  VerifierConfig Config;
  Config.Seed = 7;
  Config.TimeLimitSeconds = 60.0;

  RobustnessProperty Robust;
  Robust.Region = Box::linfBall(Center, 0.01, -1.0, 1.0);
  Robust.TargetClass = Best;
  Robust.Name = "mixed-robust";
  VerifyResult RV = Verifier(Net, VerificationPolicy(), Config).verify(Robust);
  EXPECT_EQ(RV.Result, Outcome::Verified);

  RobustnessProperty Adverse = Robust;
  Adverse.TargetClass = (Best + 1) % Y.size();
  Adverse.Name = "mixed-falsifiable";
  VerifyResult RF = Verifier(Net, VerificationPolicy(), Config).verify(Adverse);
  ASSERT_EQ(RF.Result, Outcome::Falsified);
  EXPECT_TRUE(Adverse.Region.contains(RF.Counterexample, 1e-9));
  EXPECT_LE(Net.objective(RF.Counterexample, Adverse.TargetClass),
            Config.Delta + 1e-12);
}

TEST(OnnxNegativeTest, OversizedShapesAreRejected) {
  // The ONNX twin of a 5-line .net: a residual block around a 1x1 conv on
  // a 3000x3000 plane. Validating the body would build a 9e6 x 9e6
  // lowering; the importer must refuse the conv before it exists.
  ModelBuilder B;
  B.setInput("x", {1, 1, 3000, 3000});
  B.addInitializer("w", {1, 1, 1, 1}, {0.5});
  B.addInitializer("b", {1}, {0.1});
  B.addNode("Conv", {"x", "w", "b"}, {"c"},
            {ModelBuilder::Attr::ofInts("kernel_shape", {1, 1})});
  B.addNode("Add", {"x", "c"}, {"y"});
  B.setOutput("y", {1, 1, 3000, 3000});
  expectDiagnostic(importBytes(B.finish()), "Conv shape is too large",
                   "residual conv with a 9e6-wide lowering");

  // A max-pool whose window table would hold 2^26 indices.
  ModelBuilder P;
  P.setInput("x", {1, 1, 8192, 8192});
  P.addNode("MaxPool", {"x"}, {"y"},
            {ModelBuilder::Attr::ofInts("kernel_shape", {1, 1})});
  P.setOutput("y", {1, 1, 8192, 8192});
  expectDiagnostic(importBytes(P.finish()), "MaxPool shape is too large",
                   "max-pool with a 2^26-entry window table");

  // A spatial input with more than INT_MAX elements.
  ModelBuilder F;
  F.setInput("x", {1, 2, 50000, 50000});
  F.addNode("Relu", {"x"}, {"y"});
  F.setOutput("y", {1, 2, 50000, 50000});
  expectDiagnostic(importBytes(F.finish()), "INT_MAX", "huge flat input");
}

TEST(OnnxNegativeTest, GraphsWithoutLayersAreRejected) {
  // The output is the input itself, so the graph lowers to no layer.
  ModelBuilder B;
  B.setInput("x", {1, 4});
  B.setOutput("x", {1, 4});
  expectDiagnostic(importBytes(B.finish()), "empty network", "identity graph");
}

TEST(OnnxNegativeTest, DanglingGraphsAreRejected) {
  // Output name never produced by any node.
  ModelBuilder B;
  B.setInput("x", {1, 3});
  B.addNode("Relu", {"x"}, {"r"});
  B.setOutput("nonexistent", {1, 3});
  expectDiagnostic(importBytes(B.finish()), "", "dangling output");
}

} // namespace
