//===- PgdOracleTests.cpp - PGD against the search without fixed points --------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// pgdMinimize drops a chain from its population once a projected step leaves
// the chain's row bit for bit where it was scored (DESIGN.md, "Lock-step
// PGD"). The rule must change no result, only the work: both engines must
// return the same witness, to the bit, and the same objective as the search
// that re-scores every chain that stepped, for all Steps. That search is
// kept here as a test-local oracle, scoring row by row through
// Network::objective and objectiveGradient. CountingLayer shows that the
// rule fired, so the comparison is not vacuous.
//
//===----------------------------------------------------------------------===//

#include "CountingLayer.h"
#include "nn/Builder.h"
#include "nn/Dense.h"
#include "nn/Io.h"
#include "opt/Pgd.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

using namespace charon;
using testing_nets::CountingLayer;
using testing_nets::countedCopy;

namespace {

struct OracleResult {
  PgdResult Best;
  size_t Rows = 0; ///< rows scored
};

/// The lock-step search with every chain that stepped re-scored at every
/// step, row by row: the draw order, step arithmetic, projection,
/// strict-< scan and early stop of pgdMinimize, without its fixed-point
/// rule.
OracleResult oraclePgd(const Network &Net, const Box &Region, size_t K,
                       const PgdConfig &Config, Rng &R,
                       const Vector *WarmStart) {
  const size_t N = Region.dim();
  const int Chains = std::max(1, Config.Restarts);
  std::vector<Vector> X;
  X.push_back(WarmStart ? Region.project(*WarmStart) : Region.center());
  for (int C = 1; C < Chains; ++C)
    X.push_back(Region.sample(R));

  OracleResult Out;
  Out.Best.X = X[0];
  Out.Best.Objective = std::numeric_limits<double>::infinity();
  std::vector<size_t> Active(X.size());
  std::iota(Active.begin(), Active.end(), size_t(0));
  auto Score = [&] {
    for (size_t C : Active) {
      double F = Net.objective(X[C], K);
      ++Out.Rows;
      if (F < Out.Best.Objective) {
        Out.Best.Objective = F;
        Out.Best.X = X[C];
      }
    }
    return Out.Best.Objective <= Config.EarlyStopObjective;
  };
  if (Score())
    return Out;

  const Vector &Lo = Region.lower();
  const Vector &Hi = Region.upper();
  for (int Step = 0; Step < Config.Steps && !Active.empty(); ++Step) {
    double Decay = 1.0 / std::sqrt(1.0 + Step);
    std::vector<size_t> Next;
    for (size_t C : Active) {
      Vector G = Net.objectiveGradient(X[C], K);
      Vector &Row = X[C];
      bool DidMove = false;
      for (size_t I = 0; I < N; ++I) {
        double W = Hi[I] - Lo[I];
        if (W == 0.0 || G[I] == 0.0)
          continue;
        Row[I] -= PgdInitialStep * Decay * W * (G[I] > 0.0 ? 1.0 : -1.0);
        DidMove = true;
      }
      if (!DidMove)
        continue;
      for (size_t I = 0; I < N; ++I)
        Row[I] = std::min(std::max(Row[I], Lo[I]), Hi[I]);
      Next.push_back(C);
    }
    Active = std::move(Next);
    if (Active.empty())
      break;
    if (Score())
      return Out;
  }
  return Out;
}

bool sameBits(const Vector &A, const Vector &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// A small L-infinity ball, as a deeply refined node's region is; a wider
/// box; and a ball with every third coordinate of zero width.
std::vector<Box> regionsFor(size_t N, double Lo, double Hi, uint64_t Seed) {
  Rng R(Seed);
  Vector Center(N);
  for (size_t I = 0; I < N; ++I)
    Center[I] = R.uniform(Lo + 0.2 * (Hi - Lo), Hi - 0.2 * (Hi - Lo));
  Box Pinned = Box::linfBall(Center, 0.04 * (Hi - Lo), Lo, Hi);
  Vector PinLo = Pinned.lower(), PinHi = Pinned.upper();
  for (size_t I = 0; I < N; I += 3)
    PinLo[I] = PinHi[I] = Center[I];
  return {Box::linfBall(Center, 0.001 * (Hi - Lo), Lo, Hi),
          Box::linfBall(Center, 0.3 * (Hi - Lo), Lo, Hi),
          Box(std::move(PinLo), std::move(PinHi))};
}

/// Both engines against the oracle over regions, warm starts, restart
/// counts, early-stop bounds and two target classes. Returns how many
/// searches the fixed-point rule shortened: the batched engine scored
/// fewer rows than the oracle.
int checkAgainstOracle(const Network &Net, double Lo, double Hi,
                       uint64_t Seed) {
  std::vector<CountingLayer *> Counters;
  Network Counted = countedCopy(Net, Counters);
  const double EarlyStops[] = {-std::numeric_limits<double>::infinity(), 0.0,
                               1e-6};
  const size_t N = Net.inputSize();
  int Fired = 0;
  int RegionIndex = 0;
  for (const Box &Region : regionsFor(N, Lo, Hi, Seed)) {
    ++RegionIndex;
    Rng WarmRng(Seed + RegionIndex);
    const Vector Inside = Region.sample(WarmRng);
    const Vector Outside = Box::uniform(N, Lo - 1.0, Hi + 1.0).sample(WarmRng);
    for (const Vector *Warm : {static_cast<const Vector *>(nullptr), &Inside,
                               &Outside}) {
      for (int Restarts : {1, 2, 6}) {
        for (double EarlyStop : EarlyStops) {
          for (size_t K : {size_t(0), Net.outputSize() - 1}) {
            SCOPED_TRACE("region " + std::to_string(RegionIndex) + ", warm " +
                         (Warm == &Inside    ? "inside"
                          : Warm == &Outside ? "outside"
                                             : "none") +
                         ", restarts " + std::to_string(Restarts) +
                         ", early stop " + std::to_string(EarlyStop) +
                         ", class " + std::to_string(K));
            PgdConfig Config;
            Config.Restarts = Restarts;
            Config.EarlyStopObjective = EarlyStop;
            Rng R0(Seed + K), R1(Seed + K), R2(Seed + K);
            OracleResult Want = oraclePgd(Net, Region, K, Config, R0, Warm);
            for (CountingLayer *L : Counters)
              L->reset();
            Config.Engine = PgdEngine::Batched;
            PgdResult Batched = pgdMinimize(Counted, Region, K, Config, R1,
                                            Warm);
            Config.Engine = PgdEngine::Scalar;
            PgdResult Scalar = pgdMinimize(Net, Region, K, Config, R2, Warm);
            for (const PgdResult *Got : {&Batched, &Scalar}) {
              EXPECT_TRUE(sameBits(Got->X, Want.Best.X));
              EXPECT_TRUE(sameBits(Got->Objective, Want.Best.Objective))
                  << Got->Objective << " vs " << Want.Best.Objective;
            }
            const CountingLayer &First = *Counters.front();
            EXPECT_LE(First.ForwardRows, Want.Rows);
            EXPECT_LE(First.Forwards, First.Backwards + 1);
            if (First.ForwardRows < Want.Rows)
              ++Fired;
          }
        }
      }
    }
  }
  return Fired;
}

} // namespace

class PgdOracleSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(PgdOracleSweepTest, MlpsMatchTheOracle) {
  // The PgdSweepTest architectures.
  struct Arch {
    size_t Inputs;
    std::vector<size_t> Hidden;
    size_t Classes;
  };
  const Arch Archs[] = {
      {2, {6}, 2}, {4, {10, 10}, 3}, {8, {16, 16, 16}, 5}, {16, {24}, 4}};
  const Arch &A = Archs[GetParam()];
  Rng NetRng(101 + GetParam());
  Network Net = makeMlp(A.Inputs, A.Hidden, A.Classes, NetRng);
  EXPECT_GT(checkAgainstOracle(Net, -1.0, 1.0, 70 + GetParam()), 0)
      << "the fixed-point rule never fired";
}

INSTANTIATE_TEST_SUITE_P(PgdSweepArchitectures, PgdOracleSweepTest,
                         ::testing::Range(0, 4));

TEST(PgdOracleTest, AcasShapedMlpMatchesTheOracle) {
  // ACAS Xu's shape: 5 inputs, six hidden layers of 50, 5 advisories.
  Rng NetRng(111);
  Network Net = makeMlp(5, {50, 50, 50, 50, 50, 50}, 5, NetRng);
  EXPECT_GT(checkAgainstOracle(Net, 0.0, 1.0, 80), 0)
      << "the fixed-point rule never fired";
}

TEST(PgdOracleTest, LeNetMatchesTheOracle) {
  // Conv and max-pool layers.
  Rng NetRng(112);
  Network Net = makeLeNet(TensorShape{1, 10, 10}, 4, NetRng);
  EXPECT_GT(checkAgainstOracle(Net, 0.0, 1.0, 81), 0)
      << "the fixed-point rule never fired";
}

TEST(PgdOracleTest, MixedFixtureMatchesTheOracle) {
  // Residual block, sigmoid and avg-pool layers.
  auto Net =
      loadNetworkFile(std::string(CHARON_ONNX_FIXTURE_DIR) + "/mixed.net");
  ASSERT_TRUE(Net.has_value());
  EXPECT_GT(checkAgainstOracle(*Net, 0.0, 1.0, 82), 0)
      << "the fixed-point rule never fired";
}

TEST(PgdOracleTest, LinearObjectiveStopsOnceEveryChainIsInItsCorner) {
  // With no hidden layer F is linear, so every coordinate steps the same
  // way each time, and the decaying steps add up past the region's width
  // within 6 steps: every chain sits in its corner by then, and the next
  // step leaves it there.
  Rng NetRng(113);
  Network Net;
  auto L = std::make_unique<DenseLayer>(8, 2);
  L->initHe(NetRng);
  Net.addLayer(std::move(L));
  std::vector<CountingLayer *> Counters;
  Network Counted = countedCopy(Net, Counters);
  Box Region = Box::uniform(8, -0.7, 0.4);
  for (int Restarts : {1, 2, 6}) {
    Counters.front()->reset();
    PgdConfig Config;
    Config.Restarts = Restarts;
    Config.EarlyStopObjective = -std::numeric_limits<double>::infinity();
    Rng R(114), R0(114);
    PgdResult Got = pgdMinimize(Counted, Region, 0, Config, R);
    OracleResult Want = oraclePgd(Net, Region, 0, Config, R0, nullptr);
    EXPECT_TRUE(sameBits(Got.X, Want.Best.X));
    EXPECT_TRUE(sameBits(Got.Objective, Want.Best.Objective));
    const CountingLayer &Only = *Counters.front();
    EXPECT_LT(Only.Backwards, static_cast<size_t>(Config.Steps))
        << Restarts << " restarts";
    EXPECT_LE(Only.Forwards, Only.Backwards + 1) << Restarts << " restarts";
  }
}
