//===- SearchEngineTests.cpp - Proof-search engine behavior -------------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Behavior of the explicit proof-search engine behind verify() and
// verifyParallel(): cooperative cancellation and deadline expiry drain the
// frontier cleanly (no fabricated verdict, a resumable checkpoint instead),
// checkpoints round-trip byte-identically and resuming one reproduces the
// uninterrupted run bit-for-bit, and the trace sink sees exactly one event
// per expansion. Plus unit coverage for the ProofTree's path seeds and DFS
// order.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "data/Benchmarks.h"
#include "search/Checkpoint.h"
#include "search/ProofTree.h"
#include "search/Trace.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

using namespace charon;

namespace {

constexpr double BudgetSeconds = 5.0;
constexpr const char *CacheDir = "/tmp/charon-test-networks";

bool sameVector(const Vector &A, const Vector &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I] != B[I])
      return false;
  return true;
}

bool sameStatsIgnoringTime(const VerifyStats &A, const VerifyStats &B) {
  return A.PgdCalls == B.PgdCalls && A.AnalyzeCalls == B.AnalyzeCalls &&
         A.Splits == B.Splits && A.MaxDepth == B.MaxDepth &&
         A.IntervalChoices == B.IntervalChoices &&
         A.ZonotopeChoices == B.ZonotopeChoices &&
         A.DisjunctSum == B.DisjunctSum &&
         A.NodesExpanded == B.NodesExpanded;
}

VerifierConfig baseConfig() {
  VerifierConfig Config;
  Config.Seed = 7;
  Config.TimeLimitSeconds = BudgetSeconds;
  return Config;
}

// Resumes Step's checkpoint until the search decides, asserting the
// byte-identity of the serialized form at every hop. Returns the final
// result (which may still be Timeout if Limit hops were not enough).
VerifyResult resumeToCompletion(const Verifier &V,
                                const RobustnessProperty &Prop,
                                VerifyResult Step, int Limit = 16) {
  while (Step.Result == Outcome::Timeout && Limit-- > 0) {
    EXPECT_TRUE(Step.Checkpoint) << "Timeout without a resumable checkpoint";
    if (!Step.Checkpoint)
      return Step;
    std::string Text = serializeCheckpoint(*Step.Checkpoint);
    std::optional<SearchCheckpoint> Reparsed = deserializeCheckpoint(Text);
    EXPECT_TRUE(Reparsed) << "checkpoint does not parse back";
    if (!Reparsed)
      return Step;
    EXPECT_EQ(Text, serializeCheckpoint(*Reparsed))
        << "checkpoint round-trip is not byte-identical";
    Step = V.verify(Prop, &*Reparsed);
  }
  return Step;
}

//===----------------------------------------------------------------------===//
// ProofTree: path seeds and DFS order
//===----------------------------------------------------------------------===//

TEST(ProofTreeTest, PathSeedsDependOnlyOnThePath) {
  uint64_t Root = ProofTree::rootSeed(7);
  EXPECT_EQ(Root, ProofTree::rootSeed(7));
  EXPECT_NE(Root, ProofTree::rootSeed(8));
  EXPECT_NE(ProofTree::childSeed(Root, 0), ProofTree::childSeed(Root, 1));
  EXPECT_NE(ProofTree::childSeed(Root, 0), Root);

  // The tree assigns exactly the fold of the split bits, however the node
  // was materialized (ordinary child vs detached checkpoint restore).
  ProofTree Tree(7);
  NodeId R = Tree.addRoot(Box::uniform(2, 0.0, 1.0));
  EXPECT_EQ(Tree.node(R).PathSeed, Root);
  auto [Lo, Hi] = Box::uniform(2, 0.0, 1.0).split(0, 0.5);
  auto [L, U] = Tree.addChildren(R, Lo, Hi, Vector(), 0.0);
  EXPECT_EQ(Tree.node(L).PathSeed, ProofTree::childSeed(Root, 0));
  EXPECT_EQ(Tree.node(U).PathSeed, ProofTree::childSeed(Root, 1));

  ProofTree Other(7);
  NodeId Detached = Other.addDetached({1}, Hi, Vector(), 0.0);
  EXPECT_EQ(Other.node(Detached).PathSeed, Tree.node(U).PathSeed);
}

TEST(ProofTreeTest, DfsOrderIsAncestorsFirstLowerHalfFirst) {
  ProofTree Tree(7);
  Box Region = Box::uniform(2, 0.0, 1.0);
  NodeId R = Tree.addRoot(Region);
  auto [Lo, Hi] = Region.split(0, 0.5);
  auto [L, U] = Tree.addChildren(R, Lo, Hi, Vector(), 0.0);
  auto [LLo, LHi] = Lo.split(1, 0.5);
  auto [LL, LU] = Tree.addChildren(L, LLo, LHi, Vector(), 0.0);

  EXPECT_EQ(Tree.pathString(R), "-");
  EXPECT_EQ(Tree.pathString(L), "0");
  EXPECT_EQ(Tree.pathString(U), "1");
  EXPECT_EQ(Tree.pathString(LU), "01");

  // Ancestors strictly precede descendants; at the first diverging split
  // the lower half (and its whole subtree) precedes the upper half.
  EXPECT_TRUE(Tree.dfsPrecedes(R, L));
  EXPECT_TRUE(Tree.dfsPrecedes(L, LL));
  EXPECT_TRUE(Tree.dfsPrecedes(L, U));
  EXPECT_TRUE(Tree.dfsPrecedes(LL, LU));
  EXPECT_TRUE(Tree.dfsPrecedes(LU, U));
  EXPECT_FALSE(Tree.dfsPrecedes(U, LU));
  EXPECT_FALSE(Tree.dfsPrecedes(R, R));
}

//===----------------------------------------------------------------------===//
// Cancellation and deadlines: clean drain, no fabricated verdict
//===----------------------------------------------------------------------===//

TEST(SearchEngineTest, ImmediateCancelYieldsRootOnlyCheckpoint) {
  BenchmarkSuite Suite = makeAcasSuite(3, 321, CacheDir);
  ASSERT_FALSE(Suite.Properties.empty());
  const RobustnessProperty &Prop = Suite.Properties.front();

  VerifierConfig Config = baseConfig();
  Config.CancelRequested = [] { return true; };
  Verifier V(Suite.Net, VerificationPolicy(), Config);

  VerifyResult Seq = V.verify(Prop);
  EXPECT_EQ(Seq.Result, Outcome::Timeout); // cancelled, never a verdict
  ASSERT_TRUE(Seq.Checkpoint);
  ASSERT_EQ(Seq.Checkpoint->Open.size(), 1u); // nothing expanded: just root
  EXPECT_TRUE(Seq.Checkpoint->Open.front().Path.empty());
  EXPECT_EQ(Seq.Stats.NodesExpanded, 0);
  EXPECT_EQ(Seq.Stats.Splits, 0);

  // The parallel driver drains its workers to the same empty progress and
  // serializes the identical checkpoint.
  ThreadPool Pool(4);
  VerifyResult Par = V.verifyParallel(Prop, Pool);
  EXPECT_EQ(Par.Result, Outcome::Timeout);
  ASSERT_TRUE(Par.Checkpoint);
  SearchCheckpoint A = *Seq.Checkpoint;
  SearchCheckpoint B = *Par.Checkpoint;
  A.Stats.Seconds = B.Stats.Seconds = 0.0; // wall-clock is the only delta
  EXPECT_EQ(serializeCheckpoint(A), serializeCheckpoint(B));
}

TEST(SearchEngineTest, MidSearchCancelResumesToTheUninterruptedRun) {
  BenchmarkSuite Suite = makeAcasSuite(8, 321, CacheDir);
  VerificationPolicy Policy;
  Verifier Reference(Suite.Net, Policy, baseConfig());

  // Pick a property the uninterrupted run decides with enough expansions
  // that cancelling after three scheduler polls lands mid-search.
  const RobustnessProperty *Prop = nullptr;
  VerifyResult Full;
  for (const RobustnessProperty &P : Suite.Properties) {
    VerifyResult R = Reference.verify(P);
    if (R.Result != Outcome::Timeout && R.Stats.NodesExpanded >= 6) {
      Prop = &P;
      Full = R;
      break;
    }
  }
  ASSERT_NE(Prop, nullptr) << "suite has no multi-node decided property";

  // Both drivers stop once their scheduler has polled three times.
  auto Cancelling = [] {
    VerifierConfig Config = baseConfig();
    auto Polls = std::make_shared<std::atomic<long>>(0);
    Config.CancelRequested = [Polls] { return Polls->fetch_add(1) >= 3; };
    return Config;
  };

  // Resuming (without the cancel hook) replays exactly the expansions the
  // uninterrupted run would have made: the verdict, counterexample,
  // objective, and (when \p SameStats) stats modulo wall-clock are
  // bit-identical.
  auto ExpectResumesToFull = [&](const VerifyResult &Step, bool SameStats) {
    VerifyResult Resumed = resumeToCompletion(Reference, *Prop, Step);
    ASSERT_NE(Resumed.Result, Outcome::Timeout);
    EXPECT_EQ(Resumed.Result, Full.Result);
    EXPECT_EQ(Resumed.ObjectiveAtCex, Full.ObjectiveAtCex);
    EXPECT_TRUE(sameVector(Resumed.Counterexample, Full.Counterexample));
    if (SameStats) {
      EXPECT_TRUE(sameStatsIgnoringTime(Resumed.Stats, Full.Stats));
    }
  };

  VerifierConfig SerialConfig = Cancelling();
  VerifyResult Step = Verifier(Suite.Net, Policy, SerialConfig).verify(*Prop);
  ASSERT_EQ(Step.Result, Outcome::Timeout); // cancelled mid-search
  ASSERT_TRUE(Step.Checkpoint);
  EXPECT_FALSE(Step.Checkpoint->Open.empty());
  EXPECT_LT(Step.Stats.NodesExpanded, Full.Stats.NodesExpanded);
  {
    SCOPED_TRACE("serial driver");
    // The serial driver's expansions are a prefix of the uninterrupted
    // run's, so even a falsified property's stats come out identical.
    ExpectResumesToFull(Step, /*SameStats=*/true);
  }

  // The thread driver's workers poll concurrently, so where it stops varies
  // from run to run, and it may have expanded nodes that the serial run
  // never reaches; each resumable stop must still lead to the same verdict,
  // and to the same stats when every node had to be expanded anyway.
  SCOPED_TRACE("thread driver");
  ThreadPool Pool(4);
  VerifierConfig ParallelConfig = Cancelling();
  VerifyResult ParStep =
      Verifier(Suite.Net, Policy, ParallelConfig).verifyParallel(*Prop, Pool);
  if (ParStep.Result == Outcome::Falsified) {
    // A falsification always wins, even when an interrupted run has not yet
    // confirmed it DFS-earliest; the witness must still be sound.
    EXPECT_EQ(Full.Result, Outcome::Falsified);
    EXPECT_TRUE(Prop->Region.contains(ParStep.Counterexample));
    EXPECT_LE(Suite.Net.objective(ParStep.Counterexample, Prop->TargetClass),
              ParallelConfig.Delta);
    return;
  }
  ASSERT_EQ(ParStep.Result, Outcome::Timeout);
  ASSERT_TRUE(ParStep.Checkpoint);
  EXPECT_FALSE(ParStep.Checkpoint->Open.empty());
  ExpectResumesToFull(ParStep, Full.Result == Outcome::Verified);
}

TEST(SearchEngineTest, DeadlineExpiryCarriesAResumableCheckpoint) {
  BenchmarkSuite Suite = makeAcasSuite(8, 321, CacheDir);
  VerifierConfig Tiny = baseConfig();
  // Small enough that at least one property reliably hits the deadline even
  // with the SIMD kernel backends active (20ms stopped being tiny for these
  // networks once the zonotope kernels got vectorized).
  Tiny.TimeLimitSeconds = 0.002;
  Verifier V(Suite.Net, VerificationPolicy(), Tiny);

  bool SawTimeout = false;
  for (const RobustnessProperty &Prop : Suite.Properties) {
    SCOPED_TRACE(Prop.Name);
    VerifyResult R = V.verify(Prop);
    if (R.Result != Outcome::Timeout)
      continue;
    SawTimeout = true;
    // A Timeout always carries a checkpoint with at least one open node
    // (a drained frontier would have been a Verified verdict instead),
    // and its stats mirror the result's.
    ASSERT_TRUE(R.Checkpoint);
    EXPECT_FALSE(R.Checkpoint->Open.empty());
    EXPECT_EQ(R.Checkpoint->Stats.NodesExpanded, R.Stats.NodesExpanded);
    std::string Text = serializeCheckpoint(*R.Checkpoint);
    std::optional<SearchCheckpoint> Reparsed = deserializeCheckpoint(Text);
    ASSERT_TRUE(Reparsed);
    EXPECT_EQ(Text, serializeCheckpoint(*Reparsed));

    // Resuming under the same tiny budget keeps making monotone progress.
    VerifyResult Next = V.verify(Prop, &*Reparsed);
    EXPECT_GE(Next.Stats.NodesExpanded, R.Stats.NodesExpanded);
  }
  EXPECT_TRUE(SawTimeout)
      << "no property timed out under a 20ms budget; deadline path untested";
}

TEST(SearchEngineTest, MismatchedCheckpointIsIgnored) {
  BenchmarkSuite Suite = makeAcasSuite(3, 321, CacheDir);
  const RobustnessProperty &Prop = Suite.Properties.front();
  VerificationPolicy Policy;

  VerifierConfig Config = baseConfig();
  Config.CancelRequested = [] { return true; };
  VerifyResult Step = Verifier(Suite.Net, Policy, Config).verify(Prop);
  ASSERT_TRUE(Step.Checkpoint);

  // A checkpoint from a different config (seed 7) must not poison a run
  // with different search semantics (seed 8): the digest guard rejects it
  // and the search starts fresh, bit-identical to no checkpoint at all.
  VerifierConfig OtherSeed = baseConfig();
  OtherSeed.Seed = 8;
  Verifier V(Suite.Net, Policy, OtherSeed);
  VerifyResult Fresh = V.verify(Prop);
  VerifyResult WithStale = V.verify(Prop, &*Step.Checkpoint);
  ASSERT_NE(Fresh.Result, Outcome::Timeout);
  EXPECT_EQ(WithStale.Result, Fresh.Result);
  EXPECT_EQ(WithStale.ObjectiveAtCex, Fresh.ObjectiveAtCex);
  EXPECT_TRUE(sameVector(WithStale.Counterexample, Fresh.Counterexample));
  EXPECT_TRUE(sameStatsIgnoringTime(WithStale.Stats, Fresh.Stats));
}

//===----------------------------------------------------------------------===//
// Trace events
//===----------------------------------------------------------------------===//

TEST(SearchEngineTest, TraceSeesExactlyOneEventPerExpansion) {
  BenchmarkSuite Suite = makeAcasSuite(3, 321, CacheDir);
  VerifierConfig Config = baseConfig();
  std::vector<TraceEvent> Events; // serial run: no locking needed
  Config.Trace = [&Events](const TraceEvent &E) { Events.push_back(E); };
  Verifier V(Suite.Net, VerificationPolicy(), Config);

  for (const RobustnessProperty &Prop : Suite.Properties) {
    SCOPED_TRACE(Prop.Name);
    Events.clear();
    VerifyResult R = V.verify(Prop);
    if (R.Result == Outcome::Timeout)
      continue;

    // One event per committed expansion; aborted events (deadline hit
    // mid-expansion) are emitted but not counted, and cannot occur on a
    // decided run that never saw the deadline.
    long Aborted = 0;
    for (const TraceEvent &E : Events) {
      ASSERT_NE(E.Outcome, nullptr);
      bool Known = !std::strcmp(E.Outcome, "falsified") ||
                   !std::strcmp(E.Outcome, "verified") ||
                   !std::strcmp(E.Outcome, "split") ||
                   !std::strcmp(E.Outcome, "aborted");
      EXPECT_TRUE(Known) << "unknown outcome " << E.Outcome;
      if (!std::strcmp(E.Outcome, "aborted"))
        ++Aborted;
      EXPECT_GE(E.Depth, 0);
      EXPECT_GT(E.Diameter, 0.0);
      EXPECT_GE(E.Seconds, 0.0);
      EXPECT_EQ(E.Path.empty(), false);

      // The JSONL rendering carries the full charon-trace/1 schema.
      std::string Json = traceEventToJson(E);
      for (const char *Key : {"\"path\":", "\"depth\":", "\"diameter\":",
                              "\"pgd_objective\":", "\"outcome\":",
                              "\"seconds\":"})
        EXPECT_NE(Json.find(Key), std::string::npos) << Json;
      EXPECT_EQ(Json.front(), '{');
      EXPECT_EQ(Json.back(), '}');
    }
    EXPECT_EQ(static_cast<long>(Events.size()) - Aborted,
              R.Stats.NodesExpanded);
    ASSERT_FALSE(Events.empty());
    EXPECT_EQ(Events.front().Path, "-"); // serial LIFO expands root first
  }
}

} // namespace
