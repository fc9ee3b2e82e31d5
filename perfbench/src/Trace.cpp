//===- Trace.cpp - Spans, timing wrappers, serial traced driver -----------===//

#include "Trace.h"

#include "abstract/Analyzer.h"
#include "opt/Pgd.h"
#include "search/ProofTree.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <chrono>
#include <fstream>
#include <limits>
#include <map>

using namespace charon;
using namespace perfbench;

//===----------------------------------------------------------------------===//
// SpanLog
//===----------------------------------------------------------------------===//

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point &epoch() {
  static const Clock::time_point Start = Clock::now();
  return Start;
}

double sinceEpoch() {
  return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

/// An open span on this thread: its slot in the log and its running leaf
/// totals (kept here so leaf timing takes no lock).
struct Frame {
  size_t Index = 0;
  std::array<double, NumLeaves> LeafSeconds{};
  std::array<long, NumLeaves> LeafCalls{};
};

thread_local std::vector<Frame> OpenFrames;

/// Times one leaf call and folds it into the innermost open span.
class LeafTimer {
public:
  explicit LeafTimer(Leaf K) : K(K), Start(Clock::now()) {}
  ~LeafTimer() {
    SpanLog::addLeaf(
        K, std::chrono::duration<double>(Clock::now() - Start).count());
  }
  LeafTimer(const LeafTimer &) = delete;
  LeafTimer &operator=(const LeafTimer &) = delete;

private:
  Leaf K;
  Clock::time_point Start;
};

} // namespace

SpanLog::SpanLog() { (void)epoch(); }

SpanLog &SpanLog::instance() {
  static SpanLog Log;
  return Log;
}

double SpanLog::now() const { return sinceEpoch(); }

void SpanLog::open(const char *Name, long Key, std::string Label) {
  Span S;
  S.Parent = OpenFrames.empty() ? -1 : static_cast<long>(OpenFrames.back().Index);
  S.Name = Name;
  S.Key = Key;
  S.Label = std::move(Label);
  Frame F;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    F.Index = Spans.size();
    S.Start = sinceEpoch();
    Spans.push_back(std::move(S));
  }
  OpenFrames.push_back(F);
}

void SpanLog::close() {
  double End = sinceEpoch();
  Frame F = OpenFrames.back();
  OpenFrames.pop_back();
  std::lock_guard<std::mutex> Lock(Mutex);
  Span &S = Spans[F.Index];
  S.End = End;
  S.LeafSeconds = F.LeafSeconds;
  S.LeafCalls = F.LeafCalls;
}

void SpanLog::record(const char *Name, long Key, double Start, double End) {
  Span S;
  S.Name = Name;
  S.Key = Key;
  S.Start = Start;
  S.End = End;
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(std::move(S));
}

void SpanLog::addLeaf(Leaf K, double Seconds) {
  if (OpenFrames.empty())
    return;
  Frame &F = OpenFrames.back();
  F.LeafSeconds[static_cast<size_t>(K)] += Seconds;
  ++F.LeafCalls[static_cast<size_t>(K)];
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

void SpanLog::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.clear();
}

bool SpanLog::write(const std::string &Path) const {
  static const char *LeafNames[NumLeaves] = {
      "nn.forward", "nn.backward", "abstract.affine", "abstract.activation",
      "abstract.maxpool"};
  std::ofstream Os(Path);
  std::lock_guard<std::mutex> Lock(Mutex);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Os << "{\"id\":" << I << ",\"parent\":" << S.Parent << ",\"name\":\""
       << S.Name << "\",\"key\":" << S.Key << ",\"label\":\"" << S.Label
       << "\",\"start\":" << S.Start << ",\"end\":" << S.End
       << ",\"leaves\":{";
    bool First = true;
    for (size_t L = 0; L < NumLeaves; ++L) {
      if (!S.LeafCalls[L])
        continue;
      Os << (First ? "" : ",") << "\"" << LeafNames[L] << "\":["
         << S.LeafCalls[L] << "," << S.LeafSeconds[L] << "]";
      First = false;
    }
    Os << "}}\n";
  }
  return static_cast<bool>(Os);
}

//===----------------------------------------------------------------------===//
// Timing wrappers
//===----------------------------------------------------------------------===//

namespace {

/// Forwards every Layer call to a layer owned elsewhere, timing the
/// concrete passes.
class TimedLayer final : public Layer {
public:
  explicit TimedLayer(Layer &Inner) : Inner(Inner) {}

  LayerKind kind() const override { return Inner.kind(); }
  size_t inputSize() const override { return Inner.inputSize(); }
  size_t outputSize() const override { return Inner.outputSize(); }
  Vector forward(const Vector &Input) const override {
    LeafTimer T(Leaf::Forward);
    return Inner.forward(Input);
  }
  Vector backward(const Vector &Input, const Vector &GradOut,
                  bool AccumulateParams) override {
    LeafTimer T(Leaf::Backward);
    return Inner.backward(Input, GradOut, AccumulateParams);
  }
  Matrix forwardBatch(const Matrix &X) const override {
    LeafTimer T(Leaf::Forward);
    return Inner.forwardBatch(X);
  }
  Matrix backwardBatch(const Matrix &X, const Matrix &GradOut) const override {
    LeafTimer T(Leaf::Backward);
    return Inner.backwardBatch(X, GradOut);
  }
  void applyGradients(double LearningRate, double BatchSize) override {
    Inner.applyGradients(LearningRate, BatchSize);
  }
  void zeroGradients() override { Inner.zeroGradients(); }
  std::optional<AffineView> affineForm() const override {
    return Inner.affineForm();
  }
  std::optional<ActivationKind> activationKind() const override {
    return Inner.activationKind();
  }
  const PoolSpec *poolSpec() const override { return Inner.poolSpec(); }
  bool isIdentity() const override { return Inner.isIdentity(); }
  const Network *residualBody() const override { return Inner.residualBody(); }
  std::unique_ptr<Layer> clone() const override { return Inner.clone(); }

private:
  Layer &Inner;
};

} // namespace

Network perfbench::wrapLayers(Network &Net) {
  Network Timed;
  Timed.setName(Net.name());
  for (size_t I = 0, E = Net.numLayers(); I < E; ++I) {
    Layer &L = Net.layer(I);
    if (L.kind() == LayerKind::Residual)
      Timed.addLayer(L.clone());
    else
      Timed.addLayer(std::make_unique<TimedLayer>(L));
  }
  return Timed;
}

std::unique_ptr<AbstractElement> TimedElement::clone() const {
  return std::make_unique<TimedElement>(Inner->clone());
}

void TimedElement::applyAffine(const Matrix &W, const Vector &B) {
  LeafTimer T(Leaf::Affine);
  Inner->applyAffine(W, B);
}

void TimedElement::applyActivation(ActivationKind K, size_t Begin,
                                   size_t End) {
  LeafTimer T(Leaf::Activation);
  Inner->applyActivation(K, Begin, End);
}

void TimedElement::applyMaxPool(const PoolSpec &Spec) {
  LeafTimer T(Leaf::MaxPool);
  Inner->applyMaxPool(Spec);
}

//===----------------------------------------------------------------------===//
// Serial traced driver
//===----------------------------------------------------------------------===//

namespace {

/// analyzeRobustness with the element wrapped in a TimedElement.
AnalysisResult analyzeTimed(const Network &Net, const Box &Region, size_t K,
                            const DomainSpec &Spec, const Deadline *Budget,
                            KernelPrecision Precision) {
  TimedElement Elem(makeElement(Region, Spec, Precision));
  AnalysisResult Result;
  if (!propagate(Net, Elem, Budget)) {
    Result.TimedOut = true;
    return Result;
  }
  Result.Margin = std::numeric_limits<double>::infinity();
  for (size_t J = 0, E = Net.outputSize(); J < E; ++J)
    if (J != K)
      Result.Margin = std::min(Result.Margin, Elem.lowerBoundDiff(K, J));
  Result.Verified = Result.Margin > 0.0;
  return Result;
}

struct OpenNode {
  Box Region;
  Vector Warm;
  uint64_t Seed = 0;
  long Depth = 0;
  std::string Path;
};

} // namespace

DriverResult perfbench::tracedVerify(const Network &Timed,
                                     const RobustnessProperty &Prop,
                                     const VerificationPolicy &Policy,
                                     const VerifierConfig &Config, long Key) {
  ScopedSpan PropSpan("property", Key);
  DriverResult Out;
  Deadline Budget(Config.TimeLimitSeconds);
  size_t K = Prop.TargetClass;

  // Depth-first, lower half first: the sequential engine's Lifo order.
  std::vector<OpenNode> Stack;
  Stack.push_back({Prop.Region, Vector(), ProofTree::rootSeed(Config.Seed), 0,
                   "-"});
  while (!Stack.empty()) {
    if (Budget.expired())
      return Out; // Timeout
    OpenNode Node = std::move(Stack.back());
    Stack.pop_back();
    ScopedSpan NodeSpan("node", Key, Node.Path);
    Rng R(Node.Seed);
    RobustnessProperty Sub{Node.Region, K, Prop.Name};

    PgdResult P;
    {
      ScopedSpan Phase("pgd", Key);
      PgdConfig Search = Config.Pgd;
      Search.EarlyStopObjective = Config.Delta;
      P = pgdMinimize(Timed, Node.Region, K, Search, R,
                      Node.Warm.empty() ? nullptr : &Node.Warm);
    }
    ++Out.PgdCalls;
    ++Out.Nodes;
    Out.MaxDepth = std::max(Out.MaxDepth, Node.Depth);
    if (P.Objective <= Config.Delta) {
      ++Out.PgdRefutes;
      Out.Result = Outcome::Falsified;
      Out.Counterexample = std::move(P.X);
      Out.ObjectiveAtCex = P.Objective;
      return Out;
    }

    DomainSpec Spec;
    {
      ScopedSpan Phase("policy", Key);
      Spec = Policy.chooseDomain(Timed, Sub, P.X, P.Objective);
    }
    ++Out.PolicyCalls;
    ++Out.AnalyzeCalls;
    if (Spec.Base != BaseDomainKind::Interval)
      ++Out.ZonotopeChoices;
    Out.DisjunctSum += Spec.Disjuncts;
    AnalysisResult A;
    {
      ScopedSpan Phase("analysis", Key);
      A = analyzeTimed(Timed, Node.Region, K, Spec, &Budget, Config.Precision);
    }
    if (A.TimedOut) {
      --Out.Nodes; // the engine discards an aborted expansion
      return Out;
    }
    if (A.Verified) {
      ++Out.Proved;
      continue;
    }

    SplitChoice Choice;
    {
      ScopedSpan Phase("policy", Key);
      Choice = Policy.choosePartition(Timed, Sub, P.X, P.Objective);
    }
    ++Out.PolicyCalls;
    ++Out.Splits;
    {
      ScopedSpan Phase("split", Key);
      auto [Lower, Upper] = Node.Region.split(Choice.Dim, Choice.Cut);
      if (Node.Depth + 1 > Config.MaxDepth)
        return Out; // the engine's depth cap reports Timeout
      Stack.push_back({std::move(Upper), P.X,
                       ProofTree::childSeed(Node.Seed, 1), Node.Depth + 1,
                       Node.Path == "-" ? "1" : Node.Path + "1"});
      Stack.push_back({std::move(Lower), std::move(P.X),
                       ProofTree::childSeed(Node.Seed, 0), Node.Depth + 1,
                       Node.Path == "-" ? "0" : Node.Path + "0"});
    }
  }
  Out.Result = Outcome::Verified;
  return Out;
}

std::string perfbench::compareWithVerifier(const DriverResult &D,
                                           const VerifyResult &R) {
  const VerifyStats &S = R.Stats;
  std::string Diff;
  auto Check = [&](bool Same, const std::string &What) {
    if (!Same)
      Diff += (Diff.empty() ? "" : ", ") + What;
  };
  Check(D.Result == R.Result, std::string("verdict ") + toString(D.Result) +
                                  " vs " + toString(R.Result));
  Check(D.Nodes == S.NodesExpanded, "nodes " + std::to_string(D.Nodes) +
                                        " vs " +
                                        std::to_string(S.NodesExpanded));
  Check(D.Splits == S.Splits, "splits");
  Check(D.MaxDepth == S.MaxDepth, "max depth");
  Check(D.PgdCalls == S.PgdCalls, "pgd calls");
  Check(D.AnalyzeCalls == S.AnalyzeCalls, "analyze calls");
  Check(D.ZonotopeChoices == S.ZonotopeChoices, "zonotope choices");
  Check(D.DisjunctSum == S.DisjunctSum, "disjunct sum");
  if (D.Result == Outcome::Falsified && R.Result == Outcome::Falsified) {
    bool SameCex = D.Counterexample.size() == R.Counterexample.size();
    for (size_t I = 0; SameCex && I < D.Counterexample.size(); ++I)
      SameCex = D.Counterexample[I] == R.Counterexample[I];
    Check(SameCex && D.ObjectiveAtCex == R.ObjectiveAtCex, "counterexample");
  }
  return Diff;
}

//===----------------------------------------------------------------------===//
// Span totals
//===----------------------------------------------------------------------===//

SpanTotals::Entry SpanTotals::get(const std::string &Name) const {
  for (const auto &[N, E] : ByName)
    if (N == Name)
      return E;
  return Entry();
}

SpanTotals perfbench::totalSpans(const std::vector<Span> &Spans) {
  std::vector<double> ChildTime(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildTime[S.Parent] += S.End - S.Start;

  std::map<std::string, SpanTotals::Entry> Acc;
  SpanTotals T;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Leaves = 0.0;
    for (size_t L = 0; L < NumLeaves; ++L) {
      Leaves += S.LeafSeconds[L];
      T.LeafSeconds[L] += S.LeafSeconds[L];
    }
    SpanTotals::Entry &E = Acc[S.Name];
    E.Duration += S.End - S.Start;
    E.Self += S.End - S.Start - ChildTime[I] - Leaves;
  }
  T.ByName.assign(Acc.begin(), Acc.end());
  return T;
}
