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
// network is refused where the search starts, in every build.
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

TEST(ShapeMisfitDeathTest, OneOutputNetworkIsRefusedWhereTheSearchStarts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // The objective compares the target with a competing class, which a
  // one-output network does not have.
  std::istringstream Text("charon-network 1 1\ndense 2 1\n0.5 -0.25\n0.1\n");
  std::optional<Network> Net = loadNetwork(Text);
  ASSERT_TRUE(Net.has_value());
  RobustnessProperty Prop;
  Prop.Region = Box::uniform(2, 0.0, 1.0);
  EXPECT_FALSE(propertyFitsNetwork(Prop, *Net));
  EXPECT_DEATH(Verifier(*Net, VerificationPolicy()).verify(Prop),
               "property does not match network shape");
  EXPECT_DEATH(
      {
        ServiceConfig SC;
        SC.Workers = 1;
        VerificationService Service(VerificationPolicy(), SC);
        JobRequest Job;
        Job.Net = Service.registry().add(Net->clone());
        Job.Prop = Prop;
        Service.submit(Job).wait();
      },
      "property does not match network shape");
}
