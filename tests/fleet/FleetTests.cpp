//===- FleetTests.cpp - fleet protocol, worker, and coordinator tests --------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Three layers, bottom up: the JSONL protocol (format/parse round-trips,
// malformed-line reporting, config transportability), a live charon_worker
// child driven directly over its pipes (ping, malformed-line recovery,
// digest-refusal), and the FleetCoordinator against the serial verifier
// (bit-identical verdicts at 1/2/4 workers, crash-requeue under a chaos
// kill, inline fallback, resumable fleet timeouts).
//
// The worker-process tests need the built charon_worker binary; ctest
// exports its path as CHARON_WORKER_BIN (see tests/CMakeLists.txt). When
// the variable is missing the process-level tests skip rather than fail,
// so the protocol layer stays testable in isolation.
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetCoordinator.h"
#include "fleet/FleetProtocol.h"
#include "fleet/WorkerProcess.h"

#include "core/Digest.h"
#include "data/Benchmarks.h"
#include "nn/Io.h"
#include "search/Checkpoint.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include <poll.h>

using namespace charon;

namespace {

constexpr double BudgetSeconds = 3.0;
constexpr const char *CacheDir = "/tmp/charon-test-networks";

const char *workerBinary() { return std::getenv("CHARON_WORKER_BIN"); }

bool sameVector(const Vector &A, const Vector &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I] != B[I])
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Protocol layer
//===----------------------------------------------------------------------===//

TEST(FleetProtocolTest, RunCommandRoundTrips) {
  RunSpec Spec;
  Spec.Shard = 42;
  Spec.Fingerprint = 0xdeadbeefcafef00dull; // needs the full 64 bits
  Spec.Label = 3;
  Spec.Lower = {0.0, 0.25, -1.5};
  Spec.Upper = {1.0, 0.75, 2.5};
  Spec.Delta = 1e-5;
  Spec.BudgetSeconds = 12.5;
  Spec.MaxDepth = 123;
  Spec.PgdSteps = 17;
  Spec.PgdRestarts = 5;
  Spec.PgdStepScale = 0.4;
  Spec.Optimizer = "fgsm";
  Spec.UseCexSearch = false;
  Spec.Seed = 0xffffffffffffffffull;
  Spec.Order = "best-first";
  Spec.CheckpointText = "charon-checkpoint 1\nline two\n";

  std::string Err;
  auto Cmd = parseCommandLine(formatRunCommand(Spec), &Err);
  ASSERT_TRUE(Cmd.has_value()) << Err;
  ASSERT_EQ(Cmd->K, FleetCommand::Kind::Run);
  const RunSpec &R = Cmd->Run;
  EXPECT_EQ(R.Shard, Spec.Shard);
  EXPECT_EQ(R.Fingerprint, Spec.Fingerprint);
  EXPECT_EQ(R.Label, Spec.Label);
  EXPECT_EQ(R.Lower, Spec.Lower);
  EXPECT_EQ(R.Upper, Spec.Upper);
  EXPECT_EQ(R.Delta, Spec.Delta);
  EXPECT_EQ(R.BudgetSeconds, Spec.BudgetSeconds);
  EXPECT_EQ(R.MaxDepth, Spec.MaxDepth);
  EXPECT_EQ(R.PgdSteps, Spec.PgdSteps);
  EXPECT_EQ(R.PgdRestarts, Spec.PgdRestarts);
  EXPECT_EQ(R.PgdStepScale, Spec.PgdStepScale);
  EXPECT_EQ(R.Optimizer, Spec.Optimizer);
  EXPECT_EQ(R.UseCexSearch, Spec.UseCexSearch);
  EXPECT_EQ(R.Seed, Spec.Seed);
  EXPECT_EQ(R.Order, Spec.Order);
  EXPECT_EQ(R.CheckpointText, Spec.CheckpointText);
}

TEST(FleetProtocolTest, LoadCommandCarriesNetworkTextVerbatim) {
  std::string NetText = "charon-net 1\nlayer dense 2 3\n0.5 -0.25 \"quoted\"\n";
  auto Cmd = parseCommandLine(formatLoadCommand(77, NetText));
  ASSERT_TRUE(Cmd.has_value());
  ASSERT_EQ(Cmd->K, FleetCommand::Kind::Load);
  EXPECT_EQ(Cmd->Fingerprint, 77u);
  EXPECT_EQ(Cmd->NetworkText, NetText);
}

TEST(FleetProtocolTest, DoneEventRoundTrips) {
  FleetEvent Ev;
  Ev.K = FleetEvent::Kind::Done;
  Ev.Shard = 9;
  Ev.Outcome = "falsified";
  Ev.Cex = {0.125, 0.875};
  Ev.Objective = -3.5e-4;
  Ev.Stats.PgdCalls = 10;
  Ev.Stats.AnalyzeCalls = 20;
  Ev.Stats.Splits = 30;
  Ev.Stats.MaxDepth = 4;
  Ev.Stats.NodesExpanded = 31;
  Ev.Stats.Seconds = 0.75;
  Ev.ExpandedHere = 28;
  Ev.CheckpointText = "";

  std::string Err;
  auto Back = parseEventLine(formatDoneEvent(Ev), &Err);
  ASSERT_TRUE(Back.has_value()) << Err;
  ASSERT_EQ(Back->K, FleetEvent::Kind::Done);
  EXPECT_EQ(Back->Shard, Ev.Shard);
  EXPECT_EQ(Back->Outcome, Ev.Outcome);
  EXPECT_EQ(Back->Cex, Ev.Cex);
  EXPECT_EQ(Back->Objective, Ev.Objective);
  EXPECT_EQ(Back->Stats.PgdCalls, Ev.Stats.PgdCalls);
  EXPECT_EQ(Back->Stats.AnalyzeCalls, Ev.Stats.AnalyzeCalls);
  EXPECT_EQ(Back->Stats.Splits, Ev.Stats.Splits);
  EXPECT_EQ(Back->Stats.NodesExpanded, Ev.Stats.NodesExpanded);
  EXPECT_EQ(Back->Stats.Seconds, Ev.Stats.Seconds);
  EXPECT_EQ(Back->ExpandedHere, Ev.ExpandedHere);
  EXPECT_EQ(Back->CheckpointText, Ev.CheckpointText);
}

TEST(FleetProtocolTest, SimpleLinesRoundTrip) {
  EXPECT_EQ(parseCommandLine(formatPingCommand())->K, FleetCommand::Kind::Ping);
  EXPECT_EQ(parseCommandLine(formatQuitCommand())->K, FleetCommand::Kind::Quit);
  auto Cancel = parseCommandLine(formatCancelCommand(5));
  ASSERT_TRUE(Cancel.has_value());
  EXPECT_EQ(Cancel->K, FleetCommand::Kind::Cancel);
  EXPECT_EQ(Cancel->CancelShard, 5u);
  EXPECT_EQ(parseEventLine(formatReadyEvent())->K, FleetEvent::Kind::Ready);
  EXPECT_EQ(parseEventLine(formatPongEvent())->K, FleetEvent::Kind::Pong);
  auto Loaded = parseEventLine(formatLoadedEvent(0x8000000000000001ull));
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->Fingerprint, 0x8000000000000001ull);
  auto Error = parseEventLine(formatErrorEvent("bad \"shard\"\nnews"));
  ASSERT_TRUE(Error.has_value());
  EXPECT_EQ(Error->Message, "bad \"shard\"\nnews");
}

TEST(FleetProtocolTest, MalformedLinesReportAReason) {
  std::string Err;
  EXPECT_FALSE(parseCommandLine("not json at all", &Err).has_value());
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(parseCommandLine("{\"cmd\":\"warp\"}", &Err).has_value());
  EXPECT_FALSE(parseCommandLine("{\"no_cmd\":1}", &Err).has_value());
  EXPECT_FALSE(parseEventLine("{\"event\":\"???\"}", &Err).has_value());
  EXPECT_FALSE(parseEventLine("{", &Err).has_value());
  // Float32 mode is gone: a run asking for it must be refused, never run
  // silently in double.
  RunSpec Spec;
  Spec.Lower = {0.0};
  Spec.Upper = {1.0};
  Spec.CheckpointText = "charon-checkpoint 1\n";
  std::string Run = formatRunCommand(Spec);
  ASSERT_TRUE(parseCommandLine(Run, &Err).has_value()) << Err;
  Run.insert(Run.size() - 1, ",\"precision\":\"float32\"");
  EXPECT_FALSE(parseCommandLine(Run, &Err).has_value());
  EXPECT_EQ(Err, "unknown or mistyped run key: precision");
}

TEST(FleetProtocolTest, ConfigTransportability) {
  VerifierConfig Plain;
  EXPECT_TRUE(configTransportable(Plain));

  VerifierConfig Tuned;
  Tuned.Delta = 1e-4;
  Tuned.Seed = 99;
  Tuned.Optimizer = CexSearchKind::Fgsm;
  Tuned.SearchOrder = FrontierOrder::BestFirst;
  Tuned.Pgd.StepScale = 0.45;
  EXPECT_TRUE(configTransportable(Tuned));

  VerifierConfig Traced;
  Traced.Trace = [](const TraceEvent &) {};
  EXPECT_FALSE(configTransportable(Traced));

  VerifierConfig Fallback;
  Fallback.CompleteFallback = [](const Network &, const Box &, size_t) {
    return Outcome::Timeout;
  };
  EXPECT_FALSE(configTransportable(Fallback));
}

//===----------------------------------------------------------------------===//
// A live worker over its pipes
//===----------------------------------------------------------------------===//

/// Waits up to \p TimeoutSec for the next event line from \p W.
std::optional<FleetEvent> awaitEvent(WorkerProcess &W,
                                     double TimeoutSec = 10.0) {
  std::string Line;
  double Left = TimeoutSec;
  while (true) {
    if (W.popLine(Line)) {
      std::string Err;
      auto Ev = parseEventLine(Line, &Err);
      EXPECT_TRUE(Ev.has_value()) << "unparseable event: " << Line << ": "
                                  << Err;
      return Ev;
    }
    if (!W.channelOpen() || Left <= 0)
      return std::nullopt;
    struct pollfd Pfd = {W.outFd(), POLLIN, 0};
    ::poll(&Pfd, 1, 50);
    Left -= 0.05;
    W.onReadable(); // EOF shows up as channelOpen() false after the drain
  }
}

class FleetWorkerTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!workerBinary())
      GTEST_SKIP() << "CHARON_WORKER_BIN not set";
    std::string Err;
    ASSERT_TRUE(Worker.spawn(workerBinary(), {}, &Err)) << Err;
    auto Ready = awaitEvent(Worker);
    ASSERT_TRUE(Ready.has_value());
    ASSERT_EQ(Ready->K, FleetEvent::Kind::Ready);
  }

  void TearDown() override { Worker.shutdown(1.0); }

  WorkerProcess Worker;
};

TEST_F(FleetWorkerTest, PingPong) {
  ASSERT_TRUE(Worker.sendLine(formatPingCommand()));
  auto Ev = awaitEvent(Worker);
  ASSERT_TRUE(Ev.has_value());
  EXPECT_EQ(Ev->K, FleetEvent::Kind::Pong);
}

TEST_F(FleetWorkerTest, MalformedLineYieldsErrorAndWorkerKeepsServing) {
  ASSERT_TRUE(Worker.sendLine("this is not a command"));
  auto Err = awaitEvent(Worker);
  ASSERT_TRUE(Err.has_value());
  EXPECT_EQ(Err->K, FleetEvent::Kind::Error);
  EXPECT_FALSE(Err->Message.empty());

  // The stream survives the bad line — same rule as the batch service.
  ASSERT_TRUE(Worker.sendLine(formatPingCommand()));
  auto Pong = awaitEvent(Worker);
  ASSERT_TRUE(Pong.has_value());
  EXPECT_EQ(Pong->K, FleetEvent::Kind::Pong);
}

TEST_F(FleetWorkerTest, RunAgainstUnloadedNetworkIsAnError) {
  RunSpec Spec;
  Spec.Shard = 1;
  Spec.Fingerprint = 12345; // never loaded
  Spec.Lower = {0.0};
  Spec.Upper = {1.0};
  Spec.CheckpointText = "charon-checkpoint 1\n"; // content irrelevant
  ASSERT_TRUE(Worker.sendLine(formatRunCommand(Spec)));
  auto Ev = awaitEvent(Worker);
  ASSERT_TRUE(Ev.has_value());
  EXPECT_EQ(Ev->K, FleetEvent::Kind::Error);
}

TEST_F(FleetWorkerTest, RunsARootShardAndRefusesMismatchedDigests) {
  BenchmarkSuite Suite = makeAcasSuite(1, 321, CacheDir);
  ASSERT_FALSE(Suite.Properties.empty());
  const RobustnessProperty &Prop = Suite.Properties.front();

  uint64_t Fp = fingerprintNetwork(Suite.Net);
  std::ostringstream NetOs;
  saveNetwork(Suite.Net, NetOs);
  ASSERT_TRUE(Worker.sendLine(formatLoadCommand(Fp, NetOs.str())));
  auto Loaded = awaitEvent(Worker);
  ASSERT_TRUE(Loaded.has_value());
  ASSERT_EQ(Loaded->K, FleetEvent::Kind::Loaded);
  EXPECT_EQ(Loaded->Fingerprint, Fp);

  VerifierConfig Config;
  Config.Seed = 7;
  Config.TimeLimitSeconds = BudgetSeconds;
  RunSpec Spec = runSpecFromJob(Config, Prop, Fp);
  Spec.Shard = 1;

  SearchCheckpoint Root;
  Root.Order = Config.SearchOrder;
  Root.NetworkFingerprint = Fp;
  Root.PropertyDigest = digestProperty(Prop);
  Root.ConfigDigest = digestVerifierConfigSemantics(Config);
  CheckpointNode RootNode;
  RootNode.Region = Prop.Region;
  Root.Open.push_back(std::move(RootNode));

  // A shard whose checkpoint was built for a *different* config must be
  // refused — resuming it would silently search under the wrong settings.
  SearchCheckpoint Foreign = Root;
  Foreign.ConfigDigest ^= 1;
  Spec.CheckpointText = serializeCheckpoint(Foreign);
  ASSERT_TRUE(Worker.sendLine(formatRunCommand(Spec)));
  auto Refused = awaitEvent(Worker);
  ASSERT_TRUE(Refused.has_value());
  EXPECT_EQ(Refused->K, FleetEvent::Kind::Error);

  // The genuine root shard runs to a verdict matching the serial verifier.
  Verifier V(Suite.Net, VerificationPolicy(), Config);
  VerifyResult Serial = V.verify(Prop);

  Spec.Shard = 2;
  Spec.CheckpointText = serializeCheckpoint(Root);
  ASSERT_TRUE(Worker.sendLine(formatRunCommand(Spec)));
  auto Done = awaitEvent(Worker, 2 * BudgetSeconds);
  ASSERT_TRUE(Done.has_value());
  ASSERT_EQ(Done->K, FleetEvent::Kind::Done);
  EXPECT_EQ(Done->Shard, 2u);
  EXPECT_EQ(Done->Outcome, toString(Serial.Result));
  if (Serial.Result == Outcome::Falsified) {
    ASSERT_EQ(Done->Cex.size(), Serial.Counterexample.size());
    for (size_t I = 0; I < Done->Cex.size(); ++I)
      EXPECT_EQ(Done->Cex[I], Serial.Counterexample[I]);
    EXPECT_EQ(Done->Objective, Serial.ObjectiveAtCex);
  }
  if (Serial.Result != Outcome::Timeout) {
    EXPECT_EQ(Done->Stats.NodesExpanded, Serial.Stats.NodesExpanded);
  }
}

//===----------------------------------------------------------------------===//
// Coordinator vs. serial verifier
//===----------------------------------------------------------------------===//

class FleetIdentityTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!workerBinary())
      GTEST_SKIP() << "CHARON_WORKER_BIN not set";
  }

  FleetConfig fleetConfig(unsigned Workers) {
    FleetConfig FC;
    FC.WorkerBinary = workerBinary();
    FC.Workers = Workers;
    return FC;
  }
};

TEST_F(FleetIdentityTest, VerdictsMatchSerialAtOneTwoAndFourWorkers) {
  BenchmarkSuite Suite = makeAcasSuite(4, 321, CacheDir);
  VerifierConfig Config;
  Config.Seed = 7;
  Config.TimeLimitSeconds = BudgetSeconds;
  Verifier V(Suite.Net, VerificationPolicy(), Config);

  std::vector<VerifyResult> Serial;
  for (const RobustnessProperty &Prop : Suite.Properties)
    Serial.push_back(V.verify(Prop));

  int Compared = 0;
  for (unsigned Workers : {1u, 2u, 4u}) {
    FleetCoordinator Fleet(VerificationPolicy(), fleetConfig(Workers));
    for (size_t I = 0; I < Suite.Properties.size(); ++I) {
      SCOPED_TRACE(Suite.Properties[I].Name + " workers=" +
                   std::to_string(Workers));
      FleetJobReport Report;
      VerifyResult R = Fleet.verify(Suite.Net, Suite.Properties[I], Config,
                                    nullptr, &Report);
      EXPECT_FALSE(Report.Inline) << "transportable config must not fall back";
      // Timeouts are wall-clock races; only decided runs are comparable.
      if (Serial[I].Result == Outcome::Timeout || R.Result == Outcome::Timeout)
        continue;
      ++Compared;
      EXPECT_EQ(R.Result, Serial[I].Result);
      EXPECT_EQ(R.ObjectiveAtCex, Serial[I].ObjectiveAtCex);
      EXPECT_TRUE(sameVector(R.Counterexample, Serial[I].Counterexample));
      if (Serial[I].Result == Outcome::Verified) {
        // Verified runs expand exactly the serial node set, so the summed
        // counters agree; falsified fleet runs may add speculative work.
        EXPECT_EQ(R.Stats.NodesExpanded, Serial[I].Stats.NodesExpanded);
        EXPECT_EQ(R.Stats.Splits, Serial[I].Stats.Splits);
        EXPECT_EQ(R.Stats.PgdCalls, Serial[I].Stats.PgdCalls);
      }
    }
  }
  EXPECT_GE(Compared, 6) << "too few properties decided within budget";
}

TEST_F(FleetIdentityTest, SurvivesAWorkerKillWithIdenticalVerdict) {
  BenchmarkSuite Suite = makeAcasSuite(4, 321, CacheDir);
  VerifierConfig Config;
  Config.Seed = 7;
  Config.TimeLimitSeconds = BudgetSeconds;
  Verifier V(Suite.Net, VerificationPolicy(), Config);

  FleetConfig FC = fleetConfig(2);
  FC.ChaosKillAfterDispatches = 0; // murder the first dispatched worker
  FleetCoordinator Fleet(VerificationPolicy(), FC);

  long Restarts = 0;
  int Compared = 0;
  for (const RobustnessProperty &Prop : Suite.Properties) {
    SCOPED_TRACE(Prop.Name);
    VerifyResult Serial = V.verify(Prop);
    FleetJobReport Report;
    VerifyResult R = Fleet.verify(Suite.Net, Prop, Config, nullptr, &Report);
    Restarts += Report.Restarts;
    if (Serial.Result == Outcome::Timeout || R.Result == Outcome::Timeout)
      continue;
    ++Compared;
    EXPECT_EQ(R.Result, Serial.Result);
    EXPECT_EQ(R.ObjectiveAtCex, Serial.ObjectiveAtCex);
    EXPECT_TRUE(sameVector(R.Counterexample, Serial.Counterexample));
  }
  EXPECT_GE(Compared, 1);
  // The chaos hook fires exactly once per coordinator; the requeue path
  // must have run (and is also counted in the cumulative stats).
  EXPECT_GE(Restarts, 1);
  EXPECT_GE(Fleet.stats().WorkerRestarts, 1);
}

TEST_F(FleetIdentityTest, NonTransportableConfigRunsInline) {
  BenchmarkSuite Suite = makeAcasSuite(1, 321, CacheDir);
  const RobustnessProperty &Prop = Suite.Properties.front();
  VerifierConfig Config;
  Config.Seed = 7;
  Config.TimeLimitSeconds = BudgetSeconds;
  // A process-local callback cannot cross the wire. Returning Timeout
  // keeps it verdict-neutral: the search just refines on.
  Config.CompleteFallback = [](const Network &, const Box &, size_t) {
    return Outcome::Timeout;
  };

  FleetCoordinator Fleet(VerificationPolicy(), fleetConfig(2));
  FleetJobReport Report;
  VerifyResult R = Fleet.verify(Suite.Net, Prop, Config, nullptr, &Report);
  EXPECT_TRUE(Report.Inline);
  EXPECT_GE(Fleet.stats().InlineFallbacks, 1);

  Verifier V(Suite.Net, VerificationPolicy(), Config);
  VerifyResult Serial = V.verify(Prop);
  if (Serial.Result != Outcome::Timeout && R.Result != Outcome::Timeout) {
    EXPECT_EQ(R.Result, Serial.Result);
    EXPECT_TRUE(sameVector(R.Counterexample, Serial.Counterexample));
  }
}

TEST_F(FleetIdentityTest, FleetTimeoutCheckpointResumesSerially) {
  BenchmarkSuite Suite = makeAcasSuite(4, 321, CacheDir);
  VerifierConfig Tight;
  Tight.Seed = 7;
  Tight.TimeLimitSeconds = 0.05; // force an interruption on hard properties

  FleetCoordinator Fleet(VerificationPolicy(), fleetConfig(2));
  for (const RobustnessProperty &Prop : Suite.Properties) {
    VerifyResult R = Fleet.verify(Suite.Net, Prop, Tight);
    if (R.Result != Outcome::Timeout)
      continue;
    // A fleet timeout must hand back a resumable checkpoint exactly like
    // the serial engine's: correct digests, and the serial verifier picks
    // it up (rather than restarting) under a bigger budget.
    ASSERT_TRUE(R.Checkpoint != nullptr);
    EXPECT_EQ(R.Checkpoint->NetworkFingerprint,
              fingerprintNetwork(Suite.Net));
    EXPECT_EQ(R.Checkpoint->PropertyDigest, digestProperty(Prop));
    EXPECT_EQ(R.Checkpoint->ConfigDigest,
              digestVerifierConfigSemantics(Tight));
    EXPECT_FALSE(R.Checkpoint->Open.empty());

    VerifierConfig Generous = Tight;
    Generous.TimeLimitSeconds = BudgetSeconds;
    Verifier V(Suite.Net, VerificationPolicy(), Generous);
    VerifyResult Resumed = V.verify(Prop, R.Checkpoint.get());
    if (Resumed.Result == Outcome::Falsified) {
      EXPECT_TRUE(Prop.Region.contains(Resumed.Counterexample, 1e-12));
      EXPECT_LE(Suite.Net.objective(Resumed.Counterexample, Prop.TargetClass),
                Generous.Delta);
    }
    // The resumed run continues the interrupted search: its cumulative
    // counters include the fleet's committed expansions.
    EXPECT_GE(Resumed.Stats.NodesExpanded, R.Stats.NodesExpanded);
    return; // one resumable timeout is the whole point
  }
  GTEST_SKIP() << "no property timed out under the tight budget";
}

} // namespace
