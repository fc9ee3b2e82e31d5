//===- Workloads.cpp - Shared helpers and the closed-loop workloads -------===//
//
// image and acas: set up (several times; setup_s is the median), draw the
// seed's property set, then decide it in whole passes until the run's
// seconds are spent. Each property's time is its fastest over the passes;
// latency percentiles are taken over those per-property times and
// throughput is properties over their sum. Contention from other tenants
// slows whole stretches of seconds on shared hosts; the fastest pass of
// each property is what the program itself costs.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "cert/CertChecker.h"
#include "linalg/Kernels.h"
#include "nn/Residual.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

using namespace charon;
using namespace perfbench;

void RunReport::fail(const std::string &Why) {
  ++Failed;
  if (Failures.size() < 10)
    Failures.push_back(Why);
}

void RunReport::add(const std::string &Name, double Value,
                    const std::string &Unit, const std::string &Samples) {
  Metrics.push_back({Name, Value, Unit, Samples});
}

double perfbench::peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string perfbench::checkVerdict(const Network &Net,
                                    const RobustnessProperty &Prop,
                                    Outcome Expected, Outcome Result,
                                    const Vector &Cex, double Delta) {
  if (Result != Expected)
    return Prop.Name + ": " + toString(Result) + ", pinned " +
           toString(Expected);
  if (Result != Outcome::Falsified)
    return {};
  if (Cex.size() != Prop.Region.dim() || !Prop.Region.contains(Cex))
    return Prop.Name + ": counterexample outside its region";
  double F = Net.objective(Cex, Prop.TargetClass);
  if (!(F <= Delta))
    return Prop.Name + ": counterexample replays at F = " +
           std::to_string(F) + " > delta";
  return {};
}

void perfbench::warmNetwork(const Network &Net) {
  for (size_t I = 0, E = Net.numLayers(); I < E; ++I) {
    const Layer &L = Net.layer(I);
    (void)L.affineForm();
    if (L.kind() == LayerKind::Residual)
      (void)static_cast<const ResidualLayer &>(L).plan();
  }
}

namespace {

/// Applies \p Mask to every thread of this process.
void setProcessAffinity(const cpu_set_t &Mask) {
  DIR *Tasks = opendir("/proc/self/task");
  if (!Tasks) {
    sched_setaffinity(0, sizeof(Mask), &Mask);
    return;
  }
  while (dirent *E = readdir(Tasks))
    if (E->d_name[0] != '.')
      sched_setaffinity(static_cast<pid_t>(std::atoi(E->d_name)),
                        sizeof(Mask), &Mask);
  closedir(Tasks);
}

} // namespace

CpuRotation::CpuRotation(size_t W) : Window(std::max<size_t>(1, W)) {
  cpu_set_t Mask;
  CPU_ZERO(&Mask);
  if (sched_getaffinity(0, sizeof(Mask), &Mask) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Mask))
        Cpus.push_back(C);
}

CpuRotation::~CpuRotation() {
  if (Cpus.size() <= Window)
    return;
  cpu_set_t All;
  CPU_ZERO(&All);
  for (int C : Cpus)
    CPU_SET(C, &All);
  setProcessAffinity(All);
}

void CpuRotation::pin(size_t Pass) {
  if (Cpus.size() <= Window)
    return; // nothing to rotate over
  cpu_set_t Mask;
  CPU_ZERO(&Mask);
  for (size_t J = 0; J < Window; ++J)
    CPU_SET(Cpus[(Pass + J) % Cpus.size()], &Mask);
  setProcessAffinity(Mask);
}

std::string CpuRotation::describe() const {
  if (Cpus.size() <= Window)
    return "no CPU rotation (" + std::to_string(Cpus.size()) + " CPUs)";
  return "rotating over " + std::to_string(Cpus.size()) +
         " CPUs in windows of " + std::to_string(Window);
}

SetupTimes perfbench::medianSetup(const std::vector<SetupTimes> &Reps) {
  std::vector<double> Data, Onnx, Reg;
  for (const SetupTimes &T : Reps) {
    Data.push_back(T.DataLoad);
    Onnx.push_back(T.OnnxImport);
    Reg.push_back(T.Register);
  }
  return {median(Data), median(Onnx), median(Reg)};
}

void DriverTotals::add(const DriverResult &D) {
  Nodes += D.Nodes;
  Splits += D.Splits;
  MaxDepth = std::max(MaxDepth, D.MaxDepth);
  PgdCalls += D.PgdCalls;
  PgdRefutes += D.PgdRefutes;
  PolicyCalls += D.PolicyCalls;
  AnalyzeCalls += D.AnalyzeCalls;
  Proved += D.Proved;
  ZonotopeChoices += D.ZonotopeChoices;
  DisjunctSum += D.DisjunctSum;
}

void perfbench::traceOne(RunReport &R, const Network &Net,
                         const Network &Timed, const RobustnessProperty &Prop,
                         const VerificationPolicy &Policy,
                         const VerifyResult &Reference, long Key,
                         DriverTotals &Totals) {
  VerifierConfig Config = benchConfig();
  DriverResult D = tracedVerify(Timed, Prop, Policy, Config, Key);
  Totals.add(D);
  std::string Diff = compareWithVerifier(D, Reference);
  if (!Diff.empty())
    R.fail(Prop.Name + ": traced driver differs from Verifier::verify: " +
           Diff);

  // The certifying run is untimed and outside every span.
  Config.EmitCertificate = true;
  VerifyResult Certified = Verifier(Net, Policy, Config).verify(Prop);
  if (Certified.Result == Outcome::Timeout)
    return R.fail(Prop.Name + ": certifying run timed out");
  if (!Certified.Certificate)
    return R.fail(Prop.Name + ": decided verdict carries no certificate");
  CertCheckReport Check = checkCertificate(Net, Prop, *Certified.Certificate);
  if (!Check.Accepted)
    R.fail(Prop.Name + ": certificate rejected" +
           (Check.Errors.empty() ? "" : ": " + Check.Errors.front()));
}

void perfbench::addLayerMetrics(RunReport &R, const DriverTotals &D,
                                const ServiceTotals &S,
                                const SetupTimes &Setup, double OverheadFrac) {
  SpanTotals T = totalSpans(SpanLog::instance().spans());
  auto Frac = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  auto Leaf = [&](perfbench::Leaf K) {
    return T.LeafSeconds[static_cast<size_t>(K)];
  };

  R.add("search.nodes", D.Nodes, "count");
  R.add("search.splits", D.Splits, "count");
  R.add("search.max_depth", D.MaxDepth, "count");
  R.add("search.nodes_per_s", Frac(D.Nodes, D.VerifySeconds), "1/s");
  R.add("opt.pgd_calls", D.PgdCalls, "count");
  R.add("opt.pgd_s", T.get("pgd").Self, "s");
  R.add("opt.pgd_refute_frac", Frac(D.PgdRefutes, D.PgdCalls), "fraction");
  R.add("core.policy_calls", D.PolicyCalls, "count");
  R.add("core.policy_s", T.get("policy").Self, "s");
  R.add("abstract.analyze_calls", D.AnalyzeCalls, "count");
  R.add("abstract.analyze_s", T.get("analysis").Self, "s");
  R.add("abstract.proved_frac", Frac(D.Proved, D.AnalyzeCalls), "fraction");
  R.add("abstract.zonotope_frac", Frac(D.ZonotopeChoices, D.AnalyzeCalls),
        "fraction");
  R.add("abstract.disjuncts_mean", Frac(D.DisjunctSum, D.AnalyzeCalls),
        "count");
  R.add("abstract.affine_s", Leaf(Leaf::Affine), "s");
  R.add("abstract.activation_s", Leaf(Leaf::Activation), "s");
  R.add("abstract.maxpool_s", Leaf(Leaf::MaxPool), "s");
  R.add("nn.forward_s", Leaf(Leaf::Forward), "s");
  R.add("nn.backward_s", Leaf(Leaf::Backward), "s");
  R.add("service.parse_us", S.ParseUs, "us");
  R.add("service.queue_ms_p50", S.QueueMsP50, "ms");
  R.add("service.verify_s", S.VerifySeconds, "s");
  R.add("service.overhead_ms_p50", S.OverheadMsP50, "ms");
  R.add("service.exact_hits", S.ExactHits, "count");
  R.add("service.subsumption_hits", S.SubsumptionHits, "count");
  R.add("service.misses", S.Misses, "count");
  R.add("service.hit_frac",
        Frac(S.ExactHits + S.SubsumptionHits, S.Requests), "fraction");
  R.add("service.duplicate_runs", S.DuplicateRuns, "count");
  R.add("service.lookup_us", S.LookupUs, "us");
  R.add("data.load_s", Setup.DataLoad, "s");
  R.add("onnx.import_s", Setup.OnnxImport, "s");
  R.add("service.register_s", Setup.Register, "s");
  R.add("trace.overhead_frac", OverheadFrac, "fraction");

  // Traced verify time that no phase span covers: driver bookkeeping
  // between phases (node pops, span records).
  double Verify = T.get("property").Duration;
  double Phases = T.get("pgd").Duration + T.get("policy").Duration +
                  T.get("analysis").Duration + T.get("split").Duration;
  R.add("trace.unattributed_frac", Frac(Verify - Phases, Verify), "fraction");
}

//===----------------------------------------------------------------------===//
// image / acas
//===----------------------------------------------------------------------===//

namespace {

/// Set up once: load and check the pinned pool, draw the seed's set and
/// build the networks' lazy state.
struct ClosedLoopInputs {
  Corpus Pool;
  std::vector<size_t> Drawn;
};

std::optional<ClosedLoopInputs> setUp(const RunOptions &O, size_t Count,
                                      SetupTimes &Times, std::string &Error) {
  auto Pool = loadPinned(O.Workload, O.Where, Times, Error);
  if (!Pool)
    return std::nullopt;
  ClosedLoopInputs In;
  In.Pool = std::move(*Pool);
  std::vector<double> Cost;
  for (const Case &C : In.Pool.Cases)
    Cost.push_back(C.PinnedMillis);
  In.Drawn = drawStratified(Cost, Count, O.Seed,
                            O.Workload == "image" ? 0x1a : 0xac);
  for (const auto &Net : In.Pool.Nets)
    warmNetwork(Net->Net);
  return In;
}

} // namespace

RunReport perfbench::runClosedLoop(const RunOptions &O) {
  RunReport R;
  size_t Count = O.Count ? O.Count : (O.Workload == "image" ? 120 : 110);

  std::vector<double> SetupSeconds;
  std::vector<SetupTimes> SetupReps;
  std::optional<ClosedLoopInputs> In;
  Stopwatch SetupPhase;
  for (int S = 0; S < MinSetups || (SetupPhase.seconds() < MinSetupSeconds &&
                                    S < MaxSetups);
       ++S) {
    Stopwatch Watch;
    SetupTimes Times;
    std::string Error;
    In = setUp(O, Count, Times, Error);
    if (!In) {
      R.fail("set-up: " + Error);
      return R;
    }
    SetupSeconds.push_back(Watch.seconds());
    SetupReps.push_back(Times);
  }
  const std::vector<size_t> &Drawn = In->Drawn;
  if (Drawn.size() < Count)
    R.Notes.push_back("pool holds only " + std::to_string(Drawn.size()) +
                      " properties");
  VerificationPolicy Policy;
  VerifierConfig Config = benchConfig();
  auto CaseAt = [&](size_t I) -> const Case & {
    return In->Pool.Cases[Drawn[I]];
  };
  auto NetOf = [&](const Case &C) -> const Network & {
    return In->Pool.Nets[C.Net]->Net;
  };
  R.Notes.push_back("properties " + std::to_string(Drawn.size()) +
                    " drawn from a pinned pool of " +
                    std::to_string(In->Pool.Cases.size()));

  if (O.Trace) {
    // One pass: untraced verify, then the traced driver on the same
    // property, then the certifying check (untimed).
    SpanLog::instance().clear();
    std::vector<Network> Timed;
    for (auto &Net : In->Pool.Nets) {
      Timed.push_back(wrapLayers(Net->Net));
      warmNetwork(Timed.back());
    }
    DriverTotals Totals;
    long UntracedNodes = 0, PinnedNodes = 0;
    for (size_t I = 0; I < Drawn.size(); ++I) {
      const Case &C = CaseAt(I);
      Stopwatch Watch;
      VerifyResult Ref = Verifier(NetOf(C), Policy, Config).verify(C.Prop);
      Totals.VerifySeconds += Watch.seconds();
      UntracedNodes += Ref.Stats.NodesExpanded;
      PinnedNodes += C.PinnedNodes;
      ++R.Attempted;
      long Before = R.Failed;
      std::string Why = checkVerdict(NetOf(C), C.Prop, C.Expected, Ref.Result,
                                     Ref.Counterexample, Config.Delta);
      if (!Why.empty())
        R.fail(Why);
      traceOne(R, NetOf(C), Timed[C.Net], C.Prop, Policy, Ref,
               static_cast<long>(I), Totals);
      R.Failed = std::min(R.Failed, Before + 1); // count each property once
    }
    R.Notes.push_back("nodes: traced " + std::to_string(Totals.Nodes) +
                      ", untraced " + std::to_string(UntracedNodes) +
                      ", pinned " + std::to_string(PinnedNodes));
    double Traced = totalSpans(SpanLog::instance().spans()).get("property")
                        .Duration;
    addLayerMetrics(R, Totals, ServiceTotals(), medianSetup(SetupReps),
                    Totals.VerifySeconds > 0
                        ? Traced / Totals.VerifySeconds - 1.0
                        : 0.0);
    if (!O.TraceFile.empty() && !SpanLog::instance().write(O.TraceFile))
      R.Notes.push_back("could not write " + O.TraceFile);
    return R;
  }

  // Untimed warm-up on the first few properties.
  for (size_t I = 0; I < std::min<size_t>(8, Drawn.size()); ++I)
    (void)Verifier(NetOf(CaseAt(I)), Policy, Config).verify(CaseAt(I).Prop);

  std::vector<std::vector<double>> Times(Drawn.size());
  std::string PassLog = "pass seconds:";
  CpuRotation Rotation(kernels::kernelThreads());
  Stopwatch Run;
  int Passes = 0;
  while (Passes < MinPasses || Run.seconds() < O.Seconds) {
    Rotation.pin(Passes);
    Stopwatch PassWatch;
    for (size_t I = 0; I < Drawn.size(); ++I) {
      const Case &C = CaseAt(I);
      Verifier V(NetOf(C), Policy, Config);
      Stopwatch Watch;
      VerifyResult Res = V.verify(C.Prop);
      Times[I].push_back(Watch.seconds());
      ++R.Attempted;
      std::string Why = checkVerdict(NetOf(C), C.Prop, C.Expected, Res.Result,
                                     Res.Counterexample, Config.Delta);
      if (!Why.empty())
        R.fail(Why);
    }
    ++Passes;
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " %.3f", PassWatch.seconds());
    PassLog += Buf;
  }
  R.Notes.push_back(PassLog + " (" + Rotation.describe() + ")");

  std::vector<double> PerProp;
  double Sum = 0.0;
  for (const auto &T : Times) {
    PerProp.push_back(*std::min_element(T.begin(), T.end()));
    Sum += PerProp.back();
  }
  std::string PropSamples = std::to_string(PerProp.size()) +
                            " properties x " + std::to_string(Passes) +
                            " passes";
  PercentileChoice Tail = highestPercentile(PerProp.size());
  R.add("setup_s", median(SetupSeconds), "s",
        std::to_string(SetupSeconds.size()) + " set-ups");
  R.add("props_per_s", PerProp.size() / Sum, "1/s", PropSamples);
  R.add("verdict_p50_ms", 1e3 * percentile(PerProp, 50.0), "ms", PropSamples);
  R.add("verdict_p90_ms", 1e3 * percentile(PerProp, 90.0), "ms",
        PropSamples + ", " + std::to_string(samplesBeyond(PerProp.size(), 90)) +
            " beyond p90" +
            (Tail.Valid && Tail.Percentile >= 90.0 ? ""
                                                    : " (below the floor)"));
  R.add("decided_frac",
        static_cast<double>(R.Attempted - R.Failed) / R.Attempted, "fraction",
        std::to_string(R.Attempted) + " decisions");
  R.add("peak_rss_mb", peakRssMb(), "MB", "getrusage");
  return R;
}
