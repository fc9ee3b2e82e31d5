//===- BatchExecTests.cpp - Batched execution engine bit-identity --------------===//
//
// The batched concrete execution engine promises results bit-identical to
// the per-point scalar path (DESIGN.md, "Batched concrete execution").
// These tests pin that contract at every level: per-layer forwardBatch /
// backwardBatch against row-by-row scalar evaluation (for convolutions,
// also against the dense lowering on every shared geometry), the batched
// Network objective and gradient, and the two PGD engines — under both the
// serial and the forced-threaded kernel configuration. They also pin the batched
// PGD engine's pass count: at most one forward pass per backward pass plus
// one, and at most Steps backward passes.
//
//===----------------------------------------------------------------------===//

#include "ConvGeometries.h"
#include "CountingLayer.h"
#include "core/Verifier.h"
#include "linalg/Kernels.h"
#include "nn/Builder.h"
#include "nn/Conv2D.h"
#include "nn/Dense.h"
#include "nn/Io.h"
#include "nn/MaxPool2D.h"
#include "nn/Network.h"
#include "nn/Relu.h"
#include "opt/Pgd.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>

using namespace charon;
using testing_nets::CountingLayer;
using testing_nets::countedCopy;

namespace {

/// Restores the parallel threshold when a test scope ends.
class ThresholdGuard {
public:
  ThresholdGuard() : Saved(kernels::parallelThreshold()) {}
  ~ThresholdGuard() { kernels::setParallelThreshold(Saved); }

private:
  size_t Saved;
};

// == on doubles treats -0.0 == 0.0 as equal, which is exactly the contract:
// values bit-identical up to zero sign.
void expectValueEqual(const Matrix &Got, const Matrix &Want) {
  ASSERT_EQ(Got.rows(), Want.rows());
  ASSERT_EQ(Got.cols(), Want.cols());
  for (size_t I = 0; I < Got.rows(); ++I)
    for (size_t J = 0; J < Got.cols(); ++J)
      ASSERT_EQ(Got(I, J), Want(I, J)) << "at (" << I << ", " << J << ")";
}

Matrix randomMatrix(size_t Rows, size_t Cols, Rng &R, double Lo = -1.0,
                    double Hi = 1.0) {
  Matrix M(Rows, Cols);
  for (size_t I = 0; I < Rows; ++I)
    for (size_t J = 0; J < Cols; ++J)
      M(I, J) = R.uniform(Lo, Hi);
  return M;
}

Vector rowToVector(const Matrix &M, size_t I) {
  Vector V(M.cols());
  const double *Row = M.row(I);
  std::copy(Row, Row + M.cols(), V.data());
  return V;
}

/// The scalar reference: forward() row by row.
Matrix forwardRows(const Layer &L, const Matrix &X) {
  Matrix Out(X.rows(), L.outputSize());
  for (size_t I = 0; I < X.rows(); ++I) {
    Vector Y = L.forward(rowToVector(X, I));
    std::copy(Y.data(), Y.data() + Y.size(), Out.row(I));
  }
  return Out;
}

/// The scalar reference: backward() row by row, without accumulation.
Matrix backwardRows(Layer &L, const Matrix &X, const Matrix &GradOut) {
  Matrix Out(X.rows(), L.inputSize());
  for (size_t I = 0; I < X.rows(); ++I) {
    Vector G = L.backward(rowToVector(X, I), rowToVector(GradOut, I),
                          /*AccumulateParams=*/false);
    std::copy(G.data(), G.data() + G.size(), Out.row(I));
  }
  return Out;
}

/// Runs \p Body once with threading disabled and once with every kernel
/// call forced onto the pool — the engine promises identical bits either
/// way (threading shards independent output rows only).
template <typename Fn> void underBothThreadings(Fn Body) {
  ThresholdGuard Guard;
  kernels::setParallelThreshold(size_t(1) << 40);
  Body();
  kernels::setParallelThreshold(0);
  Body();
}

// 2 is PGD's restart count, and the batch the conv kernel packs two output
// positions per vector for.
const size_t BatchSizes[] = {0, 1, 2, 3, 17};

/// Both PGD engines over a spread of population shapes, every class, cold
/// and warm-started, under both threadings: results must match bit for bit.
void checkPgdEngines(const Network &Net, const Box &Region, uint64_t Seed) {
  Rng WarmRng(Seed);
  const Vector Warm = Box::uniform(Region.dim(), -2.0, 2.0).sample(WarmRng);

  PgdConfig Variants[4];
  Variants[1].Restarts = 6;
  Variants[2].Restarts = 5;
  Variants[2].EarlyStopObjective = -std::numeric_limits<double>::infinity();
  Variants[3].Restarts = 1;
  Variants[3].Steps = 40;

  underBothThreadings([&] {
    for (PgdConfig Config : Variants) {
      for (const Vector *WarmStart :
           {static_cast<const Vector *>(nullptr), &Warm}) {
        for (size_t K = 0; K < Net.outputSize(); ++K) {
          PgdConfig Scalar = Config;
          Scalar.Engine = PgdEngine::Scalar;
          PgdConfig Batched = Config;
          Batched.Engine = PgdEngine::Batched;
          Rng R1(9 + K), R2(9 + K);
          PgdResult A = pgdMinimize(Net, Region, K, Scalar, R1, WarmStart);
          PgdResult B = pgdMinimize(Net, Region, K, Batched, R2, WarmStart);
          ASSERT_EQ(A.Objective, B.Objective) << "class " << K;
          ASSERT_TRUE(approxEqual(A.X, B.X, 0.0)) << "class " << K;
        }
      }
    }
  });
}

void checkLayerBatchIdentity(Layer &L, uint64_t Seed) {
  Rng R(Seed);
  for (size_t B : BatchSizes) {
    Matrix X = randomMatrix(B, L.inputSize(), R);
    Matrix GradOut = randomMatrix(B, L.outputSize(), R);
    Matrix WantFwd = forwardRows(L, X);
    Matrix WantBwd = backwardRows(L, X, GradOut);
    underBothThreadings([&] {
      expectValueEqual(L.forwardBatch(X), WantFwd);
      expectValueEqual(L.backwardBatch(X, GradOut), WantBwd);
    });
  }
}

} // namespace

TEST(BatchExecTest, DenseMatchesScalarRows) {
  Rng R(41);
  // 7 -> 5 is deliberately non-square, so a transposed shape would be
  // caught; the others are the tracked networks' layers: 5 -> 50, 50 -> 50
  // and 50 -> 5 (ACAS 6x50), 300 -> 100 and 200 -> 200 (the wide image
  // MLPs).
  const std::pair<size_t, size_t> Shapes[] = {
      {7, 5}, {5, 50}, {50, 50}, {50, 5}, {300, 100}, {200, 200}};
  for (auto [In, Out] : Shapes) {
    SCOPED_TRACE(std::to_string(In) + " -> " + std::to_string(Out));
    DenseLayer L(randomMatrix(Out, In, R),
                 rowToVector(randomMatrix(1, Out, R), 0));
    checkLayerBatchIdentity(L, 42);
  }
}

TEST(BatchExecTest, ReluMatchesScalarRows) {
  ReluLayer L(9);
  checkLayerBatchIdentity(L, 43);
}

TEST(BatchExecTest, Conv2DMatchesScalarRows) {
  // Non-square spatial dims, padding, and a stride that does not divide
  // the input evenly.
  Conv2DLayer L(TensorShape{2, 5, 4}, /*OutChannels=*/3, /*KernelH=*/3,
                /*KernelW=*/2, /*Stride=*/2, /*Pad=*/1);
  Rng R(44);
  L.initHe(R);
  checkLayerBatchIdentity(L, 45);
}

// The structured convolution kernel against its oracles on every shared
// geometry: forwardBatch against the naive per-point tap loop, and both
// input gradients (batched and per-point) against matMul over the lowering.
// A third of the output gradients are zero, as after a ReLU, so matMul's
// zero skip is exercised too.
TEST(BatchExecTest, Conv2DKernelEqualsLoweringOnEveryGeometry) {
  Rng R(61);
  for (const testing_nets::ConvGeometry &G : testing_nets::ConvGeometries) {
    SCOPED_TRACE(G.Name);
    std::unique_ptr<Conv2DLayer> L = testing_nets::makeConv(G, R);
    const Matrix &W = *L->affineForm()->W;
    for (size_t B : BatchSizes) {
      Matrix X = randomMatrix(B, L->inputSize(), R);
      Matrix GradOut = randomMatrix(B, L->outputSize(), R);
      for (size_t I = 0; I < B; ++I)
        for (size_t J = I % 3; J < GradOut.cols(); J += 3)
          GradOut(I, J) = 0.0;
      Matrix WantFwd = forwardRows(*L, X);
      Matrix WantBwd = matMul(GradOut, W);
      underBothThreadings([&] {
        expectValueEqual(L->forwardBatch(X), WantFwd);
        expectValueEqual(L->backwardBatch(X, GradOut), WantBwd);
        expectValueEqual(backwardRows(*L, X, GradOut), WantBwd);
      });
    }
  }
}

TEST(BatchExecTest, MaxPool2DMatchesScalarRows) {
  MaxPool2DLayer L(TensorShape{2, 6, 4}, /*PoolH=*/2, /*PoolW=*/2,
                   /*Stride=*/2);
  checkLayerBatchIdentity(L, 46);
}

TEST(BatchExecTest, NetworkObjectiveBatchMatchesScalarOnMlp) {
  Rng NetRng(47);
  Network Net = makeMlp(6, {11, 9}, 4, NetRng);
  Rng R(48);
  for (size_t B : BatchSizes) {
    Matrix X = randomMatrix(B, Net.inputSize(), R);
    for (size_t K = 0; K < 4; ++K) {
      Vector WantF(B);
      Matrix WantG(B, Net.inputSize());
      for (size_t I = 0; I < B; ++I) {
        Vector Xi = rowToVector(X, I);
        WantF[I] = Net.objective(Xi, K);
        Vector G = Net.objectiveGradient(Xi, K);
        std::copy(G.data(), G.data() + G.size(), WantG.row(I));
      }
      underBothThreadings([&] {
        Vector F = Net.objectiveBatch(X, K);
        ASSERT_EQ(F.size(), B);
        for (size_t I = 0; I < B; ++I)
          ASSERT_EQ(F[I], WantF[I]);
        expectValueEqual(Net.objectiveGradientFromActivations(
                             Net.evaluateBatchWithActivations(X), K),
                         WantG);
      });
    }
  }
}

TEST(BatchExecTest, NetworkObjectiveBatchMatchesScalarOnLeNet) {
  Rng NetRng(49);
  Network Net = makeLeNet(TensorShape{1, 10, 10}, 4, NetRng);
  Rng R(50);
  Matrix X = randomMatrix(5, Net.inputSize(), R, 0.0, 1.0);
  Vector WantF(X.rows());
  Matrix WantG(X.rows(), Net.inputSize());
  for (size_t I = 0; I < X.rows(); ++I) {
    Vector Xi = rowToVector(X, I);
    WantF[I] = Net.objective(Xi, 1);
    Vector G = Net.objectiveGradient(Xi, 1);
    std::copy(G.data(), G.data() + G.size(), WantG.row(I));
  }
  underBothThreadings([&] {
    Vector F = Net.objectiveBatch(X, 1);
    for (size_t I = 0; I < X.rows(); ++I)
      ASSERT_EQ(F[I], WantF[I]);
    expectValueEqual(Net.objectiveGradientFromActivations(
                         Net.evaluateBatchWithActivations(X), 1),
                     WantG);
  });
}

TEST(BatchExecTest, PgdEnginesBitIdentical) {
  Rng NetRng(51);
  Network Net = makeMlp(8, {16, 16}, 3, NetRng);
  checkPgdEngines(Net, Box::uniform(8, -0.7, 0.4), 52);
}

TEST(BatchExecTest, PgdEnginesBitIdenticalOnLeNet) {
  // Conv and max-pool layers.
  Rng NetRng(56);
  Network Net = makeLeNet(TensorShape{1, 10, 10}, 4, NetRng);
  checkPgdEngines(Net, Box::uniform(Net.inputSize(), 0.2, 0.7), 57);
}

TEST(BatchExecTest, PgdEnginesBitIdenticalOnMixedFixture) {
  // Residual block, sigmoid and avg-pool layers.
  auto Net =
      loadNetworkFile(std::string(CHARON_ONNX_FIXTURE_DIR) + "/mixed.net");
  ASSERT_TRUE(Net.has_value());
  checkPgdEngines(*Net, Box::uniform(Net->inputSize(), 0.1, 0.6), 58);
}

TEST(BatchExecTest, PgdRunsOneForwardPassPerBackwardPassPlusOne) {
  // Each scored population's activations feed the next step's gradient, so
  // a search runs at most one forward pass per backward pass plus one, and
  // at most Steps backward passes. A chain whose step leaves it in place
  // leaves the population; on this MLP and region some chain keeps moving,
  // so a search without early stop runs all Steps backward passes.
  Rng NetRng(54);
  Network Net = makeMlp(8, {16, 16}, 3, NetRng);
  std::vector<CountingLayer *> Counters;
  Network Counted = countedCopy(Net, Counters);
  Box Region = Box::uniform(8, -0.7, 0.4);
  for (int Restarts : {2, 6}) {
    for (CountingLayer *L : Counters)
      L->Forwards = L->Backwards = 0;
    PgdConfig Config;
    Config.Restarts = Restarts;
    Config.EarlyStopObjective = -std::numeric_limits<double>::infinity();
    Rng R(55);
    pgdMinimize(Counted, Region, 0, Config, R);
    for (size_t I = 0; I < Counters.size(); ++I) {
      EXPECT_EQ(Counters[I]->Backwards, static_cast<size_t>(Config.Steps))
          << "layer " << I << ", " << Restarts << " restarts";
      EXPECT_LE(Counters[I]->Forwards, Counters[I]->Backwards + 1)
          << "layer " << I << ", " << Restarts << " restarts";
    }
  }
}

TEST(BatchExecTest, PolicyRunsOnePointPassPerAnalyzedNodePlusOnePerSplit) {
  // PGD runs batched passes only. The policy's features take one per-point
  // forward and backward pass per analyzed node (objectiveGradient keeps
  // its forward pass's activations, and pi_alpha and pi_I share the
  // features), and pi_I's influence gradient one more of each per split.
  Rng NetRng(60);
  Network Net = makeMlp(4, {12, 12}, 3, NetRng);
  std::vector<CountingLayer *> Counters;
  Network Counted = countedCopy(Net, Counters);
  const Vector Center{0.1, -0.2, 0.3, 0.0};
  const size_t K = Net.classify(Center);
  for (CountingLayer *L : Counters)
    L->PointForwards = L->PointBackwards = 0;
  VerifierConfig Config;
  Config.TimeLimitSeconds = 60.0;
  VerifyResult R = Verifier(Counted, VerificationPolicy(), Config)
                       .verify({Box::linfBall(Center, 0.2, -1.0, 1.0), K,
                                "count"});
  ASSERT_NE(R.Result, Outcome::Timeout);
  ASSERT_GT(R.Stats.Splits, 0) << "the property must refine";
  const size_t Want = static_cast<size_t>(R.Stats.AnalyzeCalls +
                                          R.Stats.Splits);
  for (size_t I = 0; I < Counters.size(); ++I) {
    EXPECT_EQ(Counters[I]->PointForwards, Want) << "layer " << I;
    EXPECT_EQ(Counters[I]->PointBackwards, Want) << "layer " << I;
  }
}
