//===- VerificationServiceTests.cpp - Service scheduling/caching tests --------===//

#include "service/VerificationService.h"

#include "TestNetworks.h"
#include "core/Digest.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

using namespace charon;
using namespace charon::testing_nets;

namespace {

/// A property of Example 2.3 known to be verifiable quickly: every point
/// of [0,1]^2 is class 1.
RobustnessProperty example23Property() {
  RobustnessProperty Prop;
  Prop.Region = Box::uniform(2, 0.0, 1.0);
  Prop.TargetClass = 1;
  Prop.Name = "example23";
  return Prop;
}

/// A falsifiable XOR property: [0,1]^2 contains points of both classes.
RobustnessProperty xorProperty() {
  RobustnessProperty Prop;
  Prop.Region = Box::uniform(2, 0.0, 1.0);
  Prop.TargetClass = 0;
  Prop.Name = "xor";
  return Prop;
}

bool statsEqual(const VerifyStats &A, const VerifyStats &B) {
  return A.PgdCalls == B.PgdCalls && A.AnalyzeCalls == B.AnalyzeCalls &&
         A.Splits == B.Splits && A.MaxDepth == B.MaxDepth &&
         A.IntervalChoices == B.IntervalChoices &&
         A.ZonotopeChoices == B.ZonotopeChoices &&
         A.DisjunctSum == B.DisjunctSum &&
         A.NodesExpanded == B.NodesExpanded;
}

} // namespace

TEST(VerificationServiceTest, MissMatchesDirectVerifierBitExactly) {
  VerificationPolicy Policy;
  ServiceConfig SC;
  SC.Workers = 2;
  VerificationService Service(Policy, SC);
  NetworkId Xor = Service.registry().add(makeXorNetwork());
  NetworkId Ex23 = Service.registry().add(makeExample23Network());

  for (auto [Net, Prop] : {std::pair{Xor, xorProperty()},
                           std::pair{Ex23, example23Property()}}) {
    JobRequest Req;
    Req.Net = Net;
    Req.Prop = Prop;
    Req.Config.TimeLimitSeconds = 30.0;
    const JobOutcome &Out = Service.submit(Req).outcome();
    EXPECT_FALSE(Out.CacheHit);

    Verifier Direct(Service.registry().network(Net), Policy, Req.Config);
    VerifyResult Expected = Direct.verify(Prop);
    EXPECT_EQ(Out.Result.Result, Expected.Result);
    EXPECT_TRUE(statsEqual(Out.Result.Stats, Expected.Stats));
    ASSERT_EQ(Out.Result.Counterexample.size(),
              Expected.Counterexample.size());
    for (size_t I = 0; I < Expected.Counterexample.size(); ++I)
      EXPECT_EQ(Out.Result.Counterexample[I], Expected.Counterexample[I]);
    EXPECT_EQ(Out.Result.ObjectiveAtCex, Expected.ObjectiveAtCex);
  }
}

TEST(VerificationServiceTest, SecondSubmissionHitsCache) {
  VerificationPolicy Policy;
  ServiceConfig SC;
  SC.Workers = 1;
  VerificationService Service(Policy, SC);
  NetworkId Net = Service.registry().add(makeExample23Network());

  JobRequest Req;
  Req.Net = Net;
  Req.Prop = example23Property();
  Req.Config.TimeLimitSeconds = 30.0;

  const JobOutcome &Cold = Service.submit(Req).outcome();
  const JobOutcome &Warm = Service.submit(Req).outcome();
  EXPECT_FALSE(Cold.CacheHit);
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(Cold.Result.Result, Warm.Result.Result);
  EXPECT_EQ(Service.cache().stats().ExactHits, 1);
}

TEST(VerificationServiceTest, SubsumedQueryHitsWithoutExecuting) {
  VerificationPolicy Policy;
  ServiceConfig SC;
  SC.Workers = 1;
  VerificationService Service(Policy, SC);
  NetworkId Net = Service.registry().add(makeExample23Network());

  JobRequest Big;
  Big.Net = Net;
  Big.Prop = example23Property();
  Big.Config.TimeLimitSeconds = 30.0;
  ASSERT_EQ(Service.submit(Big).outcome().Result.Result, Outcome::Verified);

  JobRequest Small = Big;
  Small.Prop.Region = Box::uniform(2, 0.3, 0.6);
  const JobOutcome &Out = Service.submit(Small).outcome();
  EXPECT_TRUE(Out.CacheHit);
  EXPECT_EQ(Out.Result.Result, Outcome::Verified);
  EXPECT_EQ(Service.cache().stats().SubsumptionHits, 1);
}

TEST(VerificationServiceTest, RegistryDedupSharesCacheAcrossCopies) {
  VerificationPolicy Policy;
  ServiceConfig SC;
  SC.Workers = 1;
  VerificationService Service(Policy, SC);
  NetworkId A = Service.registry().add(makeExample23Network());
  NetworkId B = Service.registry().add(makeExample23Network());
  EXPECT_EQ(A, B); // same weights, one entry

  JobRequest Req;
  Req.Net = B;
  Req.Prop = example23Property();
  Req.Config.TimeLimitSeconds = 30.0;
  ASSERT_FALSE(Service.submit(Req).outcome().CacheHit);
  EXPECT_TRUE(Service.submit(Req).outcome().CacheHit);
}

TEST(VerificationServiceTest, PerJobDeadlineProducesTimeout) {
  VerificationPolicy Policy;
  ServiceConfig SC;
  SC.Workers = 1;
  VerificationService Service(Policy, SC);
  // XOR with target class 0 on a tiny region around (0.5, 0.5) where the
  // objective is positive but hard to prove: give it no time at all.
  NetworkId Net = Service.registry().add(makeXorNetwork());

  JobRequest Req;
  Req.Net = Net;
  Req.Prop = xorProperty();
  Req.Config.TimeLimitSeconds = 1e-9;
  const JobOutcome &Out = Service.submit(Req).outcome();
  EXPECT_EQ(Out.Result.Result, Outcome::Timeout);
  EXPECT_FALSE(Out.Cancelled);
}

TEST(VerificationServiceTest, CancelBeforeRunIsReported) {
  VerificationPolicy Policy;
  ServiceConfig SC;
  SC.Workers = 1;
  SC.EnableCache = false;
  VerificationService Service(Policy, SC);
  NetworkId Net = Service.registry().add(makeExample23Network());

  // Gate the single worker: the blocker's cancel hook (polled at every
  // refinement step) parks the worker until released, so the victim is
  // guaranteed to still be queued when it is cancelled.
  std::atomic<bool> Release{false};
  JobRequest Blocker;
  Blocker.Net = Net;
  Blocker.Prop = example23Property();
  Blocker.Config.TimeLimitSeconds = 30.0;
  Blocker.Config.CancelRequested = [&Release] {
    while (!Release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return false;
  };
  JobHandle Head = Service.submit(Blocker);

  JobRequest Victim;
  Victim.Net = Net;
  Victim.Prop = example23Property();
  Victim.Config.TimeLimitSeconds = 30.0;
  JobHandle Cancelled = Service.submit(Victim);
  Cancelled.cancel();
  Release.store(true);

  const JobOutcome &Out = Cancelled.outcome();
  EXPECT_TRUE(Out.Cancelled);
  EXPECT_EQ(Out.Result.Result, Outcome::Timeout);
  EXPECT_EQ(Out.RunSeconds, 0.0); // dropped before execution
  EXPECT_EQ(Head.outcome().Result.Result, Outcome::Verified);
}

TEST(VerificationServiceTest, CancelDuringRunStopsCooperatively) {
  // An interval-only policy cannot one-shot the XOR region (it must split,
  // see RefinementTests), so the run is guaranteed to poll the cancel hook
  // on at least two loop iterations.
  Matrix Theta(PolicyNumOutputs, PolicyNumFeatures);
  Theta(0, 4) = -10.0;
  Theta(1, 4) = -10.0;
  Theta(2, 4) = 10.0;
  Theta(3, 4) = -10.0;
  Theta(4, 4) = -10.0;
  VerificationPolicy IntervalOnly((Matrix(Theta)));

  ServiceConfig SC;
  SC.Workers = 1;
  SC.EnableCache = false;
  VerificationService Service(IntervalOnly, SC);
  NetworkId Net = Service.registry().add(makeXorNetwork());

  // First poll parks the run until the cancel has landed; the following
  // iteration must then observe the flag and stop without a verdict.
  std::atomic<bool> Started{false};
  std::atomic<bool> CancelIssued{false};
  JobRequest Req;
  Req.Net = Net;
  Req.Prop.Region = Box::uniform(2, 0.3, 0.7);
  Req.Prop.TargetClass = 1;
  Req.Config.TimeLimitSeconds = 30.0;
  Req.Config.CancelRequested = [&Started, &CancelIssued] {
    Started.store(true);
    while (!CancelIssued.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return false;
  };
  JobHandle H = Service.submit(Req);
  while (!Started.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  H.cancel();
  CancelIssued.store(true);

  const JobOutcome &Out = H.outcome();
  EXPECT_TRUE(Out.Cancelled);
  EXPECT_EQ(Out.Result.Result, Outcome::Timeout);
  EXPECT_EQ(Service.cache().stats().Inserts, 0); // aborted runs not cached
}

TEST(VerificationServiceTest, PriorityOrdersQueuedJobs) {
  VerificationPolicy Policy;
  ServiceConfig SC;
  SC.Workers = 1;
  SC.EnableCache = false; // identical queries must all really execute
  VerificationService Service(Policy, SC);
  NetworkId Net = Service.registry().add(makeExample23Network());

  // Gate the worker so every prioritized job is queued before any runs,
  // then record execution order through each job's poll hook. The worker
  // must be parked inside the blocker before the others are submitted:
  // otherwise a worker that wakes late dequeues the highest priority job
  // queued so far, which need not be the highest one overall.
  std::atomic<bool> Parked{false};
  std::atomic<bool> Release{false};
  JobRequest Blocker;
  Blocker.Net = Net;
  Blocker.Prop = example23Property();
  Blocker.Config.TimeLimitSeconds = 30.0;
  Blocker.Config.CancelRequested = [&Parked, &Release] {
    Parked.store(true);
    while (!Release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return false;
  };
  JobHandle Head = Service.submit(Blocker);
  while (!Parked.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::mutex OrderMutex;
  std::vector<int> Order;
  std::vector<JobHandle> Handles;
  for (int Priority : {0, 5, 2, 9}) {
    JobRequest R;
    R.Net = Net;
    R.Prop = example23Property();
    R.Config.TimeLimitSeconds = 30.0;
    R.Priority = Priority;
    R.Config.CancelRequested = [&OrderMutex, &Order, Priority] {
      std::lock_guard<std::mutex> Lock(OrderMutex);
      if (Order.empty() || Order.back() != Priority)
        Order.push_back(Priority);
      return false;
    };
    Handles.push_back(Service.submit(R));
  }
  Release.store(true);
  for (JobHandle &H : Handles)
    H.wait();

  Head.wait();
  ASSERT_EQ(Order.size(), 4u);
  EXPECT_EQ(Order, (std::vector<int>{9, 5, 2, 0}));
}

TEST(VerificationServiceTest, ResubmittedTimeoutResumesFromCheckpoint) {
  // Interval-only policy on the XOR region: verification needs many splits
  // (see RefinementTests), so a slice of the full search's time reliably
  // times out mid-search.
  Matrix Theta(PolicyNumOutputs, PolicyNumFeatures);
  Theta(0, 4) = -10.0;
  Theta(1, 4) = -10.0;
  Theta(2, 4) = 10.0;
  Theta(3, 4) = -10.0;
  Theta(4, 4) = -10.0;
  VerificationPolicy IntervalOnly((Matrix(Theta)));

  ServiceConfig SC;
  SC.Workers = 1;
  VerificationService Service(IntervalOnly, SC);
  NetworkId Net = Service.registry().add(makeXorNetwork());

  JobRequest Req;
  Req.Net = Net;
  Req.Prop.Region = Box::uniform(2, 0.3, 0.7);
  Req.Prop.TargetClass = 1;
  Req.Prop.Name = "xor-refine";

  // The uninterrupted verifier gives the verdict the resumed chain must
  // reach, and its wall time sizes each submission's budget: an eighth of
  // it gives every build speed (plain, sanitized, forced-threaded kernels)
  // about the same number of nodes per slice.
  VerifierConfig Direct = Req.Config;
  Direct.TimeLimitSeconds = 30.0;
  VerifyResult Expected =
      Verifier(Service.registry().network(Net), IntervalOnly, Direct)
          .verify(Req.Prop);
  Req.Config.TimeLimitSeconds = Expected.Stats.Seconds / 8.0;

  const JobOutcome First = Service.submit(Req).outcome();
  EXPECT_FALSE(First.Resumed);
  if (First.Result.Result != Outcome::Timeout)
    GTEST_SKIP() << "query decided within its slice; resume path not "
                    "exercised";
  ASSERT_TRUE(First.Result.Checkpoint);

  // Each identical resubmission finds the cached Timeout-with-checkpoint
  // and continues the search instead of replaying the stale answer, so
  // progress is monotone across submissions until a verdict lands.
  JobOutcome Last = First;
  for (int I = 0; I < 400 && Last.Result.Result == Outcome::Timeout; ++I) {
    JobOutcome Next = Service.submit(Req).outcome();
    EXPECT_TRUE(Next.Resumed);
    EXPECT_FALSE(Next.CacheHit);
    EXPECT_GE(Next.Result.Stats.NodesExpanded,
              Last.Result.Stats.NodesExpanded);
    Last = Next;
  }
  ASSERT_EQ(Last.Result.Result, Outcome::Verified);
  EXPECT_GT(Last.Result.Stats.NodesExpanded, First.Result.Stats.NodesExpanded);

  // The resumed chain lands on the verdict the uninterrupted verifier
  // reaches, and the completed result replaces the stale Timeout in the
  // cache: one more submission is a plain hit, no resume.
  EXPECT_EQ(Last.Result.Result, Expected.Result);

  const JobOutcome Hit = Service.submit(Req).outcome();
  EXPECT_TRUE(Hit.CacheHit);
  EXPECT_FALSE(Hit.Resumed);
  EXPECT_EQ(Hit.Result.Result, Outcome::Verified);
}

TEST(VerificationServiceTest, RunBatchAggregates) {
  VerificationPolicy Policy;
  ServiceConfig SC;
  SC.Workers = 4;
  VerificationService Service(Policy, SC);
  NetworkId Xor = Service.registry().add(makeXorNetwork());
  NetworkId Ex23 = Service.registry().add(makeExample23Network());

  std::vector<JobRequest> Jobs;
  for (int I = 0; I < 3; ++I) {
    JobRequest A;
    A.Net = Ex23;
    A.Prop = example23Property();
    A.Config.TimeLimitSeconds = 30.0;
    Jobs.push_back(A);
    JobRequest B;
    B.Net = Xor;
    B.Prop = xorProperty();
    B.Config.TimeLimitSeconds = 30.0;
    Jobs.push_back(B);
  }

  BatchReport Report = Service.runBatch(Jobs);
  ASSERT_EQ(Report.Outcomes.size(), Jobs.size());
  EXPECT_EQ(Report.Verified, 3);
  EXPECT_EQ(Report.Falsified, 3);
  EXPECT_EQ(Report.Timeout, 0);
  // Duplicate queries within one batch hit the cache once the first copy
  // lands; at least the repeats of each of the two queries can hit.
  EXPECT_GE(Report.CacheHits, 0);
  EXPECT_GT(Report.WallSeconds, 0.0);

  // A second identical batch is answered entirely from cache.
  BatchReport Again = Service.runBatch(Jobs);
  EXPECT_EQ(Again.CacheHits, static_cast<int>(Jobs.size()));
  EXPECT_EQ(Again.Verified, Report.Verified);
  EXPECT_EQ(Again.Falsified, Report.Falsified);
}

TEST(VerificationServiceTest, ShutdownDrainsSubmittedJobs) {
  VerificationPolicy Policy;
  ServiceConfig SC;
  SC.Workers = 2;
  VerificationService Service(Policy, SC);
  NetworkId Net = Service.registry().add(makeExample23Network());

  std::vector<JobHandle> Handles;
  for (int I = 0; I < 8; ++I) {
    JobRequest Req;
    Req.Net = Net;
    Req.Prop = example23Property();
    Req.Config.TimeLimitSeconds = 30.0;
    Handles.push_back(Service.submit(Req));
  }
  Service.shutdown();
  for (JobHandle &H : Handles) {
    EXPECT_TRUE(H.done());
    EXPECT_EQ(H.outcome().Result.Result, Outcome::Verified);
  }
}
