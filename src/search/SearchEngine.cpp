//===- SearchEngine.cpp - Explicit proof-tree search engine -------------------===//

#include "search/SearchEngine.h"

#include "abstract/Analyzer.h"
#include "cert/Certificate.h"
#include "core/Digest.h"
#include "support/Check.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <set>
#include <vector>

using namespace charon;

namespace {

/// Orders node ids by the sequential expansion order (see
/// ProofTree::dfsPrecedes). Used for the open-node set so the DFS-least
/// open node is always OpenSet.begin().
struct DfsLess {
  const ProofTree *Tree;
  bool operator()(NodeId A, NodeId B) const { return Tree->dfsPrecedes(A, B); }
};

} // namespace

/// Outcome of expanding one node, staged off to the side so the caller can
/// commit it atomically under the search-state lock — or discard it wholesale
/// when the abstract analysis was aborted by the deadline (Kind == Aborted),
/// which is what makes checkpoint/resume replay the uninterrupted run.
struct SearchEngine::Expansion {
  enum class Kind : uint8_t { Falsified, Verified, Split, Aborted };
  Kind Result = Kind::Aborted;
  Vector Cex;                ///< Falsified: the (delta-)counterexample
  double CexObjective = 0.0; ///< Falsified: F at the counterexample
  SplitChoice Split;         ///< Split: pi_I's hyperplane
  Vector XStar;              ///< Split: witness handed to the children
  DomainSpec Domain;         ///< pi_alpha's choice (valid iff DomainChosen)
  bool DomainChosen = false;
  double Margin = 0.0;       ///< analysis margin (valid iff MarginKnown)
  bool MarginKnown = false;
  double PgdObjective = 0.0; ///< F(x*) of this node's search
  VerifyStats Stats;         ///< this node's counters (discarded on Aborted)
  double Seconds = 0.0;      ///< node wall-clock, for the trace event
};

/// Everything one run() shares between the drivers: the tree, the
/// DFS-ordered open set, the falsification candidate, and the committed
/// stats. Guarded by Mutex; Work is signaled whenever the open set grows or
/// the done/in-flight state changes.
struct SearchEngine::SearchState {
  SearchState(const RobustnessProperty &P, const VerifierConfig &Config)
      : Prop(P), Budget(Config.TimeLimitSeconds), Tree(Config.Seed),
        OpenSet(DfsLess{&Tree}) {}

  const RobustnessProperty &Prop;
  Deadline Budget;
  Stopwatch Watch;

  std::mutex Mutex;
  std::condition_variable Work;
  ProofTree Tree;
  /// Every Open-status node, in flight or not, in DFS order, so begin() is
  /// the earliest node the sequential driver would still expand.
  std::set<NodeId, DfsLess> OpenSet;
  /// The open nodes being expanded outside the lock, one per busy worker.
  std::vector<NodeId> InFlight;
  /// DFS-earliest falsified node so far (InvalidNodeId when none). Only
  /// confirmed — made the final verdict — once no open node DFS-precedes it.
  NodeId BestFalsified = InvalidNodeId;
  Vector BestCex;
  double BestObjective = 0.0;
  /// Committed stats: the resume checkpoint's counters plus every committed
  /// expansion. Seconds stays at the checkpoint's base; finish() adds Watch.
  VerifyStats Stats;
  bool TimedOut = false; ///< deadline, cancellation, or depth cap hit
  bool Done = false;     ///< no further scheduling; workers drain
  /// Restored from a checkpoint: the tree holds only the detached frontier
  /// (no materialized root), so a tree certificate cannot be built.
  bool Resumed = false;

  /// True when a worker is expanding \p Id.
  bool inFlight(NodeId Id) const {
    return std::find(InFlight.begin(), InFlight.end(), Id) != InFlight.end();
  }
  /// True when some open node waits that no worker is expanding.
  bool schedulable() const { return OpenSet.size() > InFlight.size(); }
};

SearchEngine::SearchEngine(const Network &N, const VerificationPolicy &P,
                           const VerifierConfig &C)
    : Net(N), Policy(P), Config(C) {
  assert(Config.Delta > 0.0 &&
         "Eq. 4 requires delta > 0 for the termination guarantee");
}

SearchEngine::Expansion
SearchEngine::expandNode(const RobustnessProperty &Prop, const Box &Region,
                         const Vector *Warm, uint64_t Seed,
                         const Deadline *Budget) const {
  Stopwatch NodeWatch;
  Expansion E;
  Rng R(Seed);
  size_t K = Prop.TargetClass;
  RobustnessProperty Sub{Region, K, Prop.Name};

  // Line 2: optimization-based counterexample search (Eq. 1). The search
  // stops at the Eq. 4 refutation bound rather than the default
  // true-counterexample bound 0, and seeds its deterministic chain with the
  // parent node's witness when refinement hands one down.
  Vector XStar;
  double FStar;
  if (Config.UseCounterexampleSearch) {
    ++E.Stats.PgdCalls;
    PgdConfig Search = Config.Pgd;
    Search.EarlyStopObjective = Config.Delta;
    PgdResult P = pgdMinimize(Net, Region, K, Search, R, Warm);
    XStar = std::move(P.X);
    FStar = P.Objective;
  } else {
    // Ablation mode: only probe the center point, so the delta-check (and
    // thus termination) survives, but no real search happens.
    XStar = Region.center();
    FStar = Net.objective(XStar, K);
  }
  E.PgdObjective = FStar;

  // Line 3 with Eq. 4: F(x*) <= delta refutes (delta-completeness).
  if (FStar <= Config.Delta) {
    E.Result = Expansion::Kind::Falsified;
    E.Cex = std::move(XStar);
    E.CexObjective = FStar;
    ++E.Stats.NodesExpanded;
    E.Seconds = NodeWatch.seconds();
    return E;
  }

  // Lines 5-7: pick a domain with pi_alpha and attempt a proof. The node's
  // features rho serve pi_I too, should the node split.
  const Vector Rho = VerificationPolicy::featurize(Net, Sub, XStar, FStar);
  DomainSpec Spec = Policy.chooseDomain(Rho);
  E.Domain = Spec;
  E.DomainChosen = true;
  ++E.Stats.AnalyzeCalls;
  if (Spec.Base == BaseDomainKind::Interval)
    ++E.Stats.IntervalChoices;
  else
    ++E.Stats.ZonotopeChoices;
  E.Stats.DisjunctSum += Spec.Disjuncts;
  AnalysisResult Analysis = analyzeRobustness(Net, Region, K, Spec, Budget);
  if (Analysis.TimedOut) {
    // The deadline cut the analysis short: discard the whole expansion so
    // the node stays open (and uncounted) in the checkpoint, and a resumed
    // run re-expands it exactly as the uninterrupted run would have.
    E.Result = Expansion::Kind::Aborted;
    E.Seconds = NodeWatch.seconds();
    return E;
  }
  E.Margin = Analysis.Margin;
  E.MarginKnown = true;
  if (Analysis.Verified) {
    E.Result = Expansion::Kind::Verified;
    ++E.Stats.NodesExpanded;
    E.Seconds = NodeWatch.seconds();
    return E;
  }

  // Line 8: neither refuted nor proved; ask pi_I how to split. The node's
  // best witness rides along so the children's searches don't rediscover
  // the descent direction from their centers.
  E.Result = Expansion::Kind::Split;
  E.Split = Policy.choosePartition(Net, Sub, XStar, Rho);
  E.XStar = std::move(XStar);
  ++E.Stats.Splits;
  ++E.Stats.NodesExpanded;
  E.Seconds = NodeWatch.seconds();
  return E;
}

SearchEngine::StepResult SearchEngine::runStep(SearchState &S) const {
  std::unique_lock<std::mutex> Lock(S.Mutex);
  NodeId Id = InvalidNodeId;
  while (true) {
    if (S.Done)
      return StepResult::Finished;
    if (!S.TimedOut && (S.Budget.expired() ||
                        (Config.CancelRequested && Config.CancelRequested())))
      S.TimedOut = true;
    if (S.TimedOut) {
      // Stop scheduling; in-flight expansions finish (their analyses abort
      // at the same deadline) before the run concludes.
      if (!S.InFlight.empty())
        return StepResult::NoWork;
      S.Done = true;
      S.Work.notify_all();
      return StepResult::Finished;
    }
    // Confirm the falsification once no open node DFS-precedes it: that is
    // exactly when the sequential driver would have returned it, so the
    // final counterexample is scheduling-independent.
    if (S.BestFalsified != InvalidNodeId &&
        (S.OpenSet.empty() ||
         S.Tree.dfsPrecedes(S.BestFalsified, *S.OpenSet.begin()))) {
      S.Done = true;
      S.Work.notify_all();
      return StepResult::Finished;
    }
    // Take the DFS-least open node no worker holds: on a serial run, the
    // node the classic depth-first loop expands next.
    auto Next = std::find_if(S.OpenSet.begin(), S.OpenSet.end(),
                             [&S](NodeId Open) { return !S.inFlight(Open); });
    if (Next == S.OpenSet.end()) {
      if (!S.InFlight.empty())
        return StepResult::NoWork;
      S.Done = true;
      S.Work.notify_all();
      return StepResult::Finished;
    }
    Id = *Next;
    // A DFS-later node cannot change the confirmed verdict; skip it.
    if (S.BestFalsified != InvalidNodeId &&
        S.Tree.dfsPrecedes(S.BestFalsified, Id)) {
      S.Tree.node(Id).Status = NodeStatus::Pruned;
      S.OpenSet.erase(Next);
      continue;
    }
    break;
  }

  ProofNode &Node = S.Tree.node(Id);
  Box Region = Node.Region;
  Vector Warm = Node.Warm;
  uint64_t Seed = Node.PathSeed;
  uint32_t Depth = Node.Depth;
  S.InFlight.push_back(Id);
  Lock.unlock();

  Expansion E = expandNode(S.Prop, Region, Warm.empty() ? nullptr : &Warm,
                           Seed, &S.Budget);

  Lock.lock();
  S.InFlight.erase(std::find(S.InFlight.begin(), S.InFlight.end(), Id));
  ProofNode &N = S.Tree.node(Id);
  N.PgdObjective = E.PgdObjective;
  N.Domain = E.Domain;
  N.DomainChosen = E.DomainChosen;
  N.Margin = E.Margin;
  N.MarginKnown = E.MarginKnown;
  const char *TraceOutcome = "aborted";
  switch (E.Result) {
  case Expansion::Kind::Aborted:
    // Deadline mid-analysis: leave the node open and its stats uncommitted
    // so the checkpoint resumes it from scratch.
    S.TimedOut = true;
    break;
  case Expansion::Kind::Falsified:
    TraceOutcome = "falsified";
    N.Status = NodeStatus::Falsified;
    N.Warm = Vector();
    // The witness lives on the node (certificates record every falsified
    // leaf), and the DFS-earliest one additionally becomes the verdict's.
    N.Cex = std::move(E.Cex);
    N.CexObjective = E.CexObjective;
    S.OpenSet.erase(Id);
    E.Stats.MaxDepth = Depth;
    S.Stats += E.Stats;
    if (S.BestFalsified == InvalidNodeId ||
        S.Tree.dfsPrecedes(Id, S.BestFalsified)) {
      S.BestFalsified = Id;
      S.BestCex = N.Cex;
      S.BestObjective = E.CexObjective;
    }
    break;
  case Expansion::Kind::Verified:
    TraceOutcome = "verified";
    N.Status = NodeStatus::Verified;
    N.Warm = Vector();
    S.OpenSet.erase(Id);
    E.Stats.MaxDepth = Depth;
    S.Stats += E.Stats;
    break;
  case Expansion::Kind::Split: {
    TraceOutcome = "split";
    N.Status = NodeStatus::Split;
    N.Warm = Vector();
    S.OpenSet.erase(Id);
    E.Stats.MaxDepth = Depth;
    S.Stats += E.Stats;
    auto [Lower, Upper] = Region.split(E.Split.Dim, E.Split.Cut);
    // Record the hyperplane actually used: Box::split clamps the policy's
    // cut strictly inside the region, and certificates must re-prove the
    // tiling against the clamped value.
    N.SplitDim = E.Split.Dim;
    N.SplitCut = Lower.upper()[E.Split.Dim];
    auto [LId, UId] = S.Tree.addChildren(Id, std::move(Lower),
                                         std::move(Upper), E.XStar,
                                         E.PgdObjective);
    S.OpenSet.insert(LId);
    S.OpenSet.insert(UId);
    // Safety net beyond the theoretical bound: stop and report Timeout;
    // the children stay open so a resume under a larger cap continues.
    if (Depth + 1 > static_cast<uint32_t>(Config.MaxDepth))
      S.TimedOut = true;
    break;
  }
  }
  std::string Path;
  if (Config.Trace)
    Path = S.Tree.pathString(Id);
  S.Work.notify_all();
  Lock.unlock();

  if (Config.Trace) {
    TraceEvent Event;
    Event.Path = std::move(Path);
    Event.Depth = static_cast<int>(Depth);
    Event.Diameter = Region.diameter();
    Event.PgdObjective = E.PgdObjective;
    Event.DomainChosen = E.DomainChosen;
    Event.Domain = E.Domain;
    Event.MarginKnown = E.MarginKnown;
    Event.Margin = E.Margin;
    Event.Outcome = TraceOutcome;
    Event.Seconds = E.Seconds;
    Config.Trace(Event);
  }
  return StepResult::Stepped;
}

VerifyResult SearchEngine::finish(SearchState &S,
                                  const RobustnessProperty &Prop) const {
  VerifyResult Result;
  Result.Stats = S.Stats;
  Result.Stats.Seconds += S.Watch.seconds();

  // Decided verdicts certify on request. A resumed run's tree holds only
  // the restored frontier, never the already-verified siblings, so it can
  // certify a falsification (one witness suffices) but not a Verified
  // verdict — that evidence lives in the pre-timeout run.
  auto AttachCertificate = [&](VerifyResult &R) {
    if (!Config.EmitCertificate)
      return;
    if (!S.Resumed) {
      R.Certificate = std::make_shared<ProofCertificate>(
          buildTreeCertificate(Net, Prop, Config, R.Result, S.Tree));
    } else if (R.Result == Outcome::Falsified) {
      R.Certificate = std::make_shared<ProofCertificate>(
          buildFalsifiedCertificate(Net, Prop, Config, R.Counterexample,
                                    R.ObjectiveAtCex));
    }
  };

  if (S.BestFalsified != InvalidNodeId) {
    // A falsification always wins, even on an interrupted run where it is
    // not yet confirmed DFS-earliest: the counterexample is sound either
    // way, only its scheduling-independence needs a clean run.
    Result.Result = Outcome::Falsified;
    Result.Counterexample = std::move(S.BestCex);
    Result.ObjectiveAtCex = S.BestObjective;
    AttachCertificate(Result);
    return Result;
  }
  if (!S.TimedOut || S.OpenSet.empty()) {
    // No falsification and no open node left: the whole region tree is
    // verified, even when the deadline fired after the last expansion. A
    // Timeout verdict therefore always carries a non-empty frontier.
    Result.Result = Outcome::Verified;
    AttachCertificate(Result);
    return Result;
  }
  Result.Result = Outcome::Timeout;
  auto Cp = std::make_shared<SearchCheckpoint>();
  Cp->NetworkFingerprint = fingerprintNetwork(Net);
  Cp->PropertyDigest = digestProperty(Prop);
  Cp->ConfigDigest = digestVerifierConfigSemantics(Config);
  Cp->Stats = Result.Stats;
  Cp->Open.reserve(S.OpenSet.size());
  for (NodeId Id : S.OpenSet) { // DFS-ascending by the set's comparator
    const ProofNode &N = S.Tree.node(Id);
    CheckpointNode Node;
    Node.Path = S.Tree.pathOf(Id);
    Node.Region = N.Region;
    Node.Warm = N.Warm;
    Node.Priority = N.Priority;
    Cp->Open.push_back(std::move(Node));
  }
  Result.Checkpoint = std::move(Cp);
  return Result;
}

VerifyResult SearchEngine::run(const RobustnessProperty &Prop,
                               const SearchCheckpoint *Resume,
                               ThreadPool *Pool) const {
  if (!propertyFitsNetwork(Prop, Net))
    reportFatalError("property does not match network shape, or a bound is "
                     "nan, infinite or inverted");
  if (Pool)
    Net.warmCaches(); // the workers then only read the shared network

  SearchState S(Prop, Config);

  bool Resumed = false;
  if (Resume && Resume->NetworkFingerprint == fingerprintNetwork(Net) &&
      Resume->PropertyDigest == digestProperty(Prop) &&
      Resume->ConfigDigest == digestVerifierConfigSemantics(Config) &&
      !Resume->Open.empty()) {
    // Rebuild the open set; taking its nodes in DFS order replays the
    // interrupted run's exact schedule.
    S.Stats = Resume->Stats;
    for (const CheckpointNode &Node : Resume->Open)
      S.OpenSet.insert(S.Tree.addDetached(Node.Path, Node.Region, Node.Warm,
                                          Node.Priority));
    Resumed = true;
  }
  S.Resumed = Resumed;
  if (!Resumed)
    S.OpenSet.insert(S.Tree.addRoot(Prop.Region));

  if (!Pool) {
    // NoWork is unreachable serially: InFlight is always empty when the
    // single driver thread re-enters runStep.
    while (runStep(S) != StepResult::Finished)
      ;
    return finish(S, Prop);
  }

  unsigned Workers = std::max(1u, Pool->size());
  for (unsigned W = 0; W < Workers; ++W) {
    Pool->submit([this, &S] {
      while (true) {
        switch (runStep(S)) {
        case StepResult::Finished:
          return;
        case StepResult::Stepped:
          break;
        case StepResult::NoWork: {
          std::unique_lock<std::mutex> Lock(S.Mutex);
          S.Work.wait(Lock, [&S] {
            return S.Done || S.InFlight.empty() ||
                   (!S.TimedOut && S.schedulable());
          });
          if (S.Done)
            return;
          break;
        }
        }
      }
    });
  }
  Pool->wait();
  return finish(S, Prop);
}
