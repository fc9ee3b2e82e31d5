//===- SharedNetworkStressTests.cpp - Threads sharing one fresh network -------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// A network is shared read-only by the service workers and by the threads
// of verifyParallel, so every structure a layer builds lazily (conv and
// avg-pool lowerings, residual plans) must be built before they start.
// These tests start several threads on a freshly loaded copy of the mixed
// ONNX fixture, whose residual block carries such a plan, round after
// round: under the sanitize build a plan built twice, one copy freed while
// another thread reads it, is reported. A query that does not fit its
// network is refused where the search starts, in every build, and the
// service refuses it at submission so no other tenant's job is lost.
//
//===----------------------------------------------------------------------===//

#include "core/Digest.h"
#include "nn/Io.h"
#include "search/Checkpoint.h"
#include "service/VerificationService.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace charon;

namespace {

const std::string MixedNet = std::string(CHARON_ONNX_FIXTURE_DIR) + "/mixed.net";

/// A small box around \p Center in every one of the fixture's 72 inputs,
/// targeting the class the fixture assigns there.
RobustnessProperty mixedProperty(double Center) {
  RobustnessProperty Prop;
  Prop.Region = Box::linfBall(Vector(72, Center), 0.01, 0.0, 1.0);
  Prop.TargetClass = 1;
  return Prop;
}

constexpr int Rounds = 100;

} // namespace

TEST(SharedNetworkStressTest, ServiceWorkersStartOnAFreshNetwork) {
  for (int Round = 0; Round < Rounds; ++Round) {
    ServiceConfig SC;
    SC.Workers = 4;
    SC.EnableCache = false;
    VerificationService Service(VerificationPolicy(), SC);
    std::optional<NetworkId> Net = Service.registry().addFromFile(MixedNet);
    ASSERT_TRUE(Net.has_value());
    std::vector<JobRequest> Jobs;
    for (int Q = 0; Q < 8; ++Q) {
      JobRequest Job;
      Job.Net = *Net;
      Job.Prop = mixedProperty(0.1 + 0.001 * Q);
      Job.Config.TimeLimitSeconds = 30.0;
      Jobs.push_back(std::move(Job));
    }
    BatchReport Report = Service.runBatch(Jobs);
    ASSERT_EQ(Report.Timeout, 0) << "round " << Round;
  }
}

TEST(SharedNetworkStressTest, ParallelResumeStartsOnAFreshNetwork) {
  // Four open quarters of the region: resuming them hands one to each of
  // the four threads at once.
  RobustnessProperty Prop = mixedProperty(0.1);
  VerifierConfig Config;
  Config.TimeLimitSeconds = 30.0;
  SearchCheckpoint Cp;
  Cp.PropertyDigest = digestProperty(Prop);
  Cp.ConfigDigest = digestVerifierConfigSemantics(Config);
  auto [Lo, Hi] = Prop.Region.split(0, Prop.Region.center()[0]);
  for (const Box &Half : {Lo, Hi}) {
    auto [A, B] = Half.split(1, Half.center()[1]);
    for (const Box &Quarter : {A, B}) {
      CheckpointNode Node;
      Node.Path = {static_cast<uint8_t>(Cp.Open.size() / 2),
                   static_cast<uint8_t>(Cp.Open.size() % 2)};
      Node.Region = Quarter;
      Cp.Open.push_back(std::move(Node));
    }
  }
  ThreadPool Pool(4);
  for (int Round = 0; Round < Rounds; ++Round) {
    std::optional<Network> Net = loadNetworkFile(MixedNet);
    ASSERT_TRUE(Net.has_value());
    // Fingerprinting builds the lowerings but not the residual plan.
    Cp.NetworkFingerprint = fingerprintNetwork(*Net);
    VerifyResult R =
        Verifier(*Net, VerificationPolicy(), Config).verifyParallel(Prop, Pool,
                                                                    &Cp);
    ASSERT_EQ(R.Result, Outcome::Verified) << "round " << Round;
    ASSERT_GE(R.Stats.NodesExpanded, 4) << "the checkpoint was not resumed";
  }
}

namespace {

/// A network with one output: the objective compares the target with a
/// competing class, which it does not have.
Network oneOutputNetwork() {
  std::istringstream Text("charon-network 1 1\ndense 2 1\n0.5 -0.25\n0.1\n");
  std::optional<Network> Net = loadNetwork(Text);
  EXPECT_TRUE(Net.has_value());
  return Net ? std::move(*Net) : Network();
}

} // namespace

TEST(ShapeMisfitDeathTest, OneOutputNetworkIsRefusedWhereTheSearchStarts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Network Net = oneOutputNetwork();
  RobustnessProperty Prop;
  Prop.Region = Box::uniform(2, 0.0, 1.0);
  EXPECT_FALSE(propertyFitsNetwork(Prop, Net));
  EXPECT_DEATH(Verifier(Net, VerificationPolicy()).verify(Prop),
               "property does not match network shape");
}

TEST(ShapeMisfitTest, ServiceRefusesQueriesItCannotRun) {
  ServiceConfig SC;
  SC.Workers = 2;
  VerificationService Service(VerificationPolicy(), SC);
  NetworkId OneOutput = Service.registry().add(oneOutputNetwork());
  std::optional<NetworkId> Mixed = Service.registry().addFromFile(MixedNet);
  ASSERT_TRUE(Mixed.has_value());

  JobRequest Misfit;
  Misfit.Net = OneOutput;
  Misfit.Prop.Region = Box::uniform(2, 0.0, 1.0);
  JobRequest Unknown;
  Unknown.Net = static_cast<NetworkId>(Service.registry().size());
  Unknown.Prop = mixedProperty(0.1);
  JobRequest Valid;
  Valid.Net = *Mixed;
  Valid.Prop = mixedProperty(0.1);
  Valid.Config.TimeLimitSeconds = 30.0;
  // Without delta > 0 the search has no termination guarantee (Theorem
  // 5.2), and the engine asserts on it.
  JobRequest NoDelta = Valid;
  NoDelta.Config.Delta = 0.0;

  long InsertsBefore = Service.cache().stats().Inserts;
  BatchReport Report = Service.runBatch({Misfit, Unknown, NoDelta, Valid});
  for (int I : {0, 1, 2}) {
    const JobOutcome &Out = Report.Outcomes[I];
    EXPECT_TRUE(Out.Refused) << "job " << I;
    EXPECT_EQ(Out.Result.Result, Outcome::Timeout) << "job " << I;
    EXPECT_FALSE(Out.CacheHit) << "job " << I;
    EXPECT_EQ(Out.Result.Stats.NodesExpanded, 0) << "job " << I;
  }
  // Only the valid job reached the cache.
  EXPECT_EQ(Service.cache().stats().Inserts, InsertsBefore + 1);

  const JobOutcome &Ran = Report.Outcomes[3];
  EXPECT_FALSE(Ran.Refused);
  VerifyResult Direct =
      Verifier(Service.registry().network(*Mixed), VerificationPolicy(),
               Valid.Config)
          .verify(Valid.Prop);
  EXPECT_EQ(Ran.Result.Result, Direct.Result);
  EXPECT_EQ(Ran.Result.ObjectiveAtCex, Direct.ObjectiveAtCex);
  EXPECT_TRUE(approxEqual(Ran.Result.Counterexample, Direct.Counterexample,
                          0.0));
  EXPECT_EQ(Ran.Result.Stats.NodesExpanded, Direct.Stats.NodesExpanded);
  EXPECT_EQ(Ran.Result.Stats.Splits, Direct.Stats.Splits);
}
