//===- Harness.cpp - Shared experiment harness for the benches ----------------===//

#include "Harness.h"

#include "abstract/PowersetElement.h"
#include "abstract/ZonotopeElement.h"
#include "baselines/Ai2.h"
#include "baselines/ReluVal.h"
#include "baselines/Reluplex.h"
#include "core/PolicyIo.h"
#include "linalg/SimdDispatch.h"
#include "nn/Activation.h"
#include "nn/Builder.h"
#include "support/Check.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace charon;
using namespace charon::bench;

const char *charon::bench::toolName(ToolKind Tool) {
  switch (Tool) {
  case ToolKind::Charon:
    return "Charon";
  case ToolKind::CharonNoCex:
    return "Charon-NoCex";
  case ToolKind::Ai2Zonotope:
    return "AI2-Zonotope";
  case ToolKind::Ai2Bounded64:
    return "AI2-Bounded64";
  case ToolKind::ReluVal:
    return "ReluVal";
  case ToolKind::Reluplex:
    return "Reluplex";
  case ToolKind::ReluplexBT:
    return "Reluplex-BT";
  }
  return "unknown";
}

const char *charon::bench::toString(Verdict V) {
  switch (V) {
  case Verdict::Verified:
    return "verified";
  case Verdict::Falsified:
    return "falsified";
  case Verdict::Timeout:
    return "timeout";
  case Verdict::Unknown:
    return "unknown";
  }
  return "unknown";
}

HarnessConfig charon::bench::defaultHarnessConfig() {
  HarnessConfig Config;
  if (const char *Props = std::getenv("CHARON_BENCH_PROPS"))
    Config.PropertiesPerSuite = std::max(1, std::atoi(Props));
  if (const char *Budget = std::getenv("CHARON_BENCH_BUDGET"))
    Config.BudgetSeconds = std::max(0.1, std::atof(Budget));
  return Config;
}

void charon::bench::stabilizeAllocator() {
#if defined(__GLIBC__)
  // 128 MiB covers every matrix any tracked case allocates, so all of them
  // stay on the (page-warm) heap and none is ever trimmed back to the OS
  // between repeats. Setting the options also disables glibc's dynamic
  // threshold adjustment, which is the history-dependence being removed.
  mallopt(M_MMAP_THRESHOLD, 128 << 20);
  mallopt(M_TRIM_THRESHOLD, 128 << 20);
#endif
}

VerificationPolicy
charon::bench::loadOrDefaultPolicy(const HarnessConfig &Config) {
  if (auto Learned = loadPolicyFile(Config.PolicyPath))
    return *Learned;
  return VerificationPolicy();
}

std::vector<BenchmarkSuite>
charon::bench::buildAllSuites(const HarnessConfig &Config) {
  std::vector<BenchmarkSuite> Suites;
  for (const SuiteConfig &SC : paperSuiteConfigs(Config.PropertiesPerSuite))
    Suites.push_back(makeImageSuite(SC));
  return Suites;
}

std::vector<BenchmarkSuite>
charon::bench::buildFcSuites(const HarnessConfig &Config) {
  std::vector<BenchmarkSuite> Suites;
  for (const SuiteConfig &SC : paperSuiteConfigs(Config.PropertiesPerSuite)) {
    if (SC.HiddenSizes.empty())
      continue; // Complete tools do not support the convolutional net.
    Suites.push_back(makeImageSuite(SC));
  }
  return Suites;
}

namespace {

Verdict fromOutcome(Outcome O) {
  switch (O) {
  case Outcome::Verified:
    return Verdict::Verified;
  case Outcome::Falsified:
    return Verdict::Falsified;
  case Outcome::Timeout:
    return Verdict::Timeout;
  }
  charon_unreachable("covered outcome switch");
}

} // namespace

RunRecord charon::bench::runTool(ToolKind Tool, const BenchmarkSuite &Suite,
                                 const RobustnessProperty &Prop,
                                 const HarnessConfig &Config,
                                 const VerificationPolicy &Policy) {
  RunRecord Record;
  Record.Suite = Suite.Name;
  Record.Property = Prop.Name;
  Record.Tool = Tool;

  switch (Tool) {
  case ToolKind::Charon:
  case ToolKind::CharonNoCex: {
    VerifierConfig VC;
    VC.TimeLimitSeconds = Config.BudgetSeconds;
    VC.Pgd = Config.Pgd;
    VC.UseCounterexampleSearch = Tool == ToolKind::Charon;
    Verifier V(Suite.Net, Policy, VC);
    VerifyResult R = V.verify(Prop);
    Record.Result = fromOutcome(R.Result);
    Record.Seconds = R.Stats.Seconds;
    break;
  }
  case ToolKind::Ai2Zonotope:
  case ToolKind::Ai2Bounded64: {
    Ai2Config AC = Tool == ToolKind::Ai2Zonotope
                       ? ai2Zonotope(Config.BudgetSeconds)
                       : ai2Bounded64(Config.BudgetSeconds);
    Ai2Result R = ai2Verify(Suite.Net, Prop, AC);
    switch (R.Result) {
    case Ai2Outcome::Verified:
      Record.Result = Verdict::Verified;
      break;
    case Ai2Outcome::Unknown:
      Record.Result = Verdict::Unknown;
      break;
    case Ai2Outcome::Timeout:
      Record.Result = Verdict::Timeout;
      break;
    }
    Record.Seconds = R.Seconds;
    break;
  }
  case ToolKind::ReluVal: {
    ReluValConfig RC;
    RC.TimeLimitSeconds = Config.BudgetSeconds;
    RC.MaxDepth = 200;
    ReluValResult R = reluvalVerify(Suite.Net, Prop, RC);
    Record.Result = fromOutcome(R.Result);
    Record.Seconds = R.Seconds;
    break;
  }
  case ToolKind::Reluplex:
  case ToolKind::ReluplexBT: {
    ReluplexConfig PC;
    PC.TimeLimitSeconds = Config.BudgetSeconds;
    PC.SymbolicBoundTightening = Tool == ToolKind::ReluplexBT;
    ReluplexResult R = reluplexVerify(Suite.Net, Prop, PC);
    Record.Result = fromOutcome(R.Result);
    Record.Seconds = R.Seconds;
    break;
  }
  }
  return Record;
}

std::vector<RunRecord>
charon::bench::runToolOnSuites(ToolKind Tool,
                               const std::vector<BenchmarkSuite> &Suites,
                               const HarnessConfig &Config,
                               const VerificationPolicy &Policy) {
  std::vector<RunRecord> Records;
  for (const BenchmarkSuite &Suite : Suites)
    for (const RobustnessProperty &Prop : Suite.Properties)
      Records.push_back(runTool(Tool, Suite, Prop, Config, Policy));
  return Records;
}

Summary charon::bench::summarize(const std::vector<RunRecord> &Records) {
  Summary S;
  for (const RunRecord &R : Records) {
    switch (R.Result) {
    case Verdict::Verified:
      ++S.Verified;
      break;
    case Verdict::Falsified:
      ++S.Falsified;
      break;
    case Verdict::Timeout:
      ++S.Timeout;
      break;
    case Verdict::Unknown:
      ++S.Unknown;
      break;
    }
    S.TotalSeconds += R.Seconds;
  }
  return S;
}

void charon::bench::printSummaryRow(const char *Label, const Summary &S) {
  double N = std::max(1, S.total());
  std::printf("%-14s verified %5.1f%%  falsified %5.1f%%  timeout %5.1f%%  "
              "unknown %5.1f%%   (%d/%d solved, %.1fs total)\n",
              Label, 100.0 * S.Verified / N, 100.0 * S.Falsified / N,
              100.0 * S.Timeout / N, 100.0 * S.Unknown / N, S.solved(),
              S.total(), S.TotalSeconds);
}

//===----------------------------------------------------------------------===//
// Micro-domain benchmark cases
//===----------------------------------------------------------------------===//

namespace {

/// Seeded fixture shared by every micro case at a given width: weights and
/// region depend only on (Width, HiddenLayers), so timings are comparable
/// across domains and across runs.
struct MicroFixture {
  Network Net;
  Box Region;

  MicroFixture(size_t Width, int HiddenLayers,
               ActivationKind Act = ActivationKind::Relu) {
    Rng R(17);
    Net = makeMlp(Width, std::vector<size_t>(HiddenLayers, Width), 10, R, Act);
    Vector Center(Width);
    for (size_t I = 0; I < Width; ++I)
      Center[I] = R.uniform(0.3, 0.7);
    Region = Box::linfBall(Center, 0.05, 0.0, 1.0);
  }
};

size_t countGenerators(const AbstractElement &Elem) {
  if (const auto *Z = dynamic_cast<const ZonotopeElement *>(&Elem))
    return Z->numGenerators();
  if (const auto *P = dynamic_cast<const PowersetElement *>(&Elem)) {
    size_t Sum = 0;
    for (size_t I = 0, E = P->numDisjuncts(); I < E; ++I)
      Sum += countGenerators(P->disjunct(I));
    return Sum;
  }
  return 0;
}

void appendJsonDouble(std::ostringstream &Os, double X) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", X);
  Os << Buf;
}

} // namespace

std::vector<MicroDomainCase> charon::bench::defaultMicroDomainCases() {
  std::vector<MicroDomainCase> Cases;
  auto Add = [&Cases](const char *Name, size_t Width, BaseDomainKind Base,
                      int Disjuncts,
                      ActivationKind Act = ActivationKind::Relu) {
    MicroDomainCase C;
    C.Name = Name;
    C.Width = Width;
    C.HiddenLayers = 3;
    C.Spec = DomainSpec{Base, Disjuncts};
    C.Act = Act;
    Cases.push_back(std::move(C));
  };
  Add("interval_dense_relu_w256", 256, BaseDomainKind::Interval, 1);
  Add("zonotope_dense_relu_w64", 64, BaseDomainKind::Zonotope, 1);
  Add("zonotope_dense_relu_w128", 128, BaseDomainKind::Zonotope, 1);
  Add("zonotope_dense_relu_w256", 256, BaseDomainKind::Zonotope, 1);
  Add("zonotope_dense_relu_w512", 512, BaseDomainKind::Zonotope, 1);
  Add("zonotope_powerset4_w64", 64, BaseDomainKind::Zonotope, 4);
  // Smooth-activation twins: same seeded weights, sigmoid hidden layers.
  // Tracks the cost of the parallel-line relaxation transformers (every
  // neuron contributes a fresh noise symbol) against the ReLU case split.
  Add("zonotope_dense_sigmoid_w128", 128, BaseDomainKind::Zonotope, 1,
      ActivationKind::Sigmoid);
  return Cases;
}

MicroDomainResult charon::bench::runMicroDomainCase(const MicroDomainCase &Case,
                                                    int Repeats) {
  MicroFixture F(Case.Width, Case.HiddenLayers, Case.Act);
  MicroDomainResult Result;
  Result.Case = Case;
  Result.InputDim = F.Net.inputSize();
  Result.OutputDim = F.Net.outputSize();
  Result.Repeats = std::max(1, Repeats);

  // One untimed run collects the shape/margin metadata (and warms caches).
  {
    std::unique_ptr<AbstractElement> Elem = makeElement(F.Region, Case.Spec);
    propagate(F.Net, *Elem);
    Result.Generators = countGenerators(*Elem);
    double Margin = std::numeric_limits<double>::infinity();
    for (size_t J = 0, E = F.Net.outputSize(); J < E; ++J)
      if (J != 0)
        Margin = std::min(Margin, Elem->lowerBoundDiff(0, J));
    Result.Margin = Margin;
  }

  Result.Seconds = std::numeric_limits<double>::infinity();
  for (int R = 0; R < Result.Repeats; ++R) {
    Stopwatch Watch;
    AnalysisResult A = analyzeRobustness(F.Net, F.Region, 0, Case.Spec);
    double Elapsed = Watch.seconds();
    if (A.Margin != Result.Margin)
      reportFatalError("micro-domain case is nondeterministic");
    Result.Seconds = std::min(Result.Seconds, Elapsed);
  }
  return Result;
}

std::string
charon::bench::microDomainJson(const std::vector<MicroDomainResult> &Results) {
  std::ostringstream Os;
  Os << "{\n  \"schema\": \"charon-bench-micro-domains/3\",\n  \"simd\": \""
     << kernels::simdLevelName(kernels::simdLevel()) << "\",\n  \"cases\": [";
  for (size_t I = 0; I < Results.size(); ++I) {
    const MicroDomainResult &R = Results[I];
    Os << (I == 0 ? "\n" : ",\n");
    Os << "    {\"name\": \"" << R.Case.Name << "\", \"domain\": \""
       << toString(R.Case.Spec) << "\", \"precision\": \""
       << toString(KernelPrecision::Double) << "\", \"act\": \""
       << toString(R.Case.Act) << "\", \"width\": " << R.Case.Width
       << ", \"hidden_layers\": " << R.Case.HiddenLayers
       << ", \"input_dim\": " << R.InputDim
       << ", \"output_dim\": " << R.OutputDim
       << ", \"generators\": " << R.Generators << ", \"margin\": ";
    appendJsonDouble(Os, R.Margin);
    Os << ", \"seconds\": ";
    appendJsonDouble(Os, R.Seconds);
    Os << ", \"repeats\": " << R.Repeats << "}";
  }
  Os << "\n  ]\n}\n";
  return Os.str();
}

bool charon::bench::writeMicroDomainJsonFile(
    const std::string &Path, const std::vector<MicroDomainResult> &Results) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << microDomainJson(Results);
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Counterexample-search benchmark cases
//===----------------------------------------------------------------------===//

std::vector<CexSearchCase> charon::bench::defaultCexSearchCases() {
  std::vector<CexSearchCase> Cases;
  auto Add = [&Cases](const char *Name, size_t Width) {
    CexSearchCase C;
    C.Name = Name;
    C.Width = Width;
    Cases.push_back(std::move(C));
  };
  Add("pgd_w64_multistart", 64);
  Add("pgd_w128_multistart", 128);
  Add("pgd_w256_multistart", 256);
  return Cases;
}

CexSearchResult charon::bench::runCexSearchCase(const CexSearchCase &Case,
                                                int Repeats) {
  MicroFixture F(Case.Width, Case.HiddenLayers);
  CexSearchResult Result;
  Result.Case = Case;
  Result.Repeats = std::max(1, Repeats);

  PgdConfig Config;
  Config.Restarts = Case.Restarts;
  Config.Steps = Case.Steps;
  // Time the full search, as it behaves on robust regions where the
  // refutation bound never trips; with the default bound the seeded random
  // fixture falsifies on the very first evaluation and the measurement
  // degenerates to a single forward pass.
  Config.EarlyStopObjective = -std::numeric_limits<double>::infinity();

  auto Run = [&](PgdEngine Engine) {
    Config.Engine = Engine;
    Rng R(23);
    return pgdMinimize(F.Net, F.Region, 0, Config, R);
  };

  // One untimed pass per engine warms caches and pins the equivalence
  // contract: both engines must return the exact same search result.
  PgdResult Scalar = Run(PgdEngine::Scalar);
  PgdResult Batched = Run(PgdEngine::Batched);
  if (Scalar.Objective != Batched.Objective ||
      !approxEqual(Scalar.X, Batched.X, 0.0))
    reportFatalError(("cex-search engines disagree on " + Case.Name).c_str());
  Result.Objective = Batched.Objective;

  Result.ScalarSeconds = std::numeric_limits<double>::infinity();
  Result.BatchedSeconds = std::numeric_limits<double>::infinity();
  for (int R = 0; R < Result.Repeats; ++R) {
    Stopwatch SW;
    PgdResult P = Run(PgdEngine::Scalar);
    Result.ScalarSeconds = std::min(Result.ScalarSeconds, SW.seconds());
    if (P.Objective != Result.Objective)
      reportFatalError("scalar cex search is nondeterministic");
    Stopwatch BW;
    P = Run(PgdEngine::Batched);
    Result.BatchedSeconds = std::min(Result.BatchedSeconds, BW.seconds());
    if (P.Objective != Result.Objective)
      reportFatalError("batched cex search is nondeterministic");
  }
  return Result;
}

namespace {

/// One "    {"name": ...}" case line of the cex-search document.
std::string cexSearchCaseLine(const CexSearchResult &R) {
  std::ostringstream Os;
  Os << "    {\"name\": \"" << R.Case.Name << "\", \"kind\": \"" << R.Case.Kind
     << "\", \"width\": " << R.Case.Width
     << ", \"hidden_layers\": " << R.Case.HiddenLayers
     << ", \"restarts\": " << R.Case.Restarts
     << ", \"steps\": " << R.Case.Steps << ", \"objective\": ";
  appendJsonDouble(Os, R.Objective);
  Os << ", \"scalar_seconds\": ";
  appendJsonDouble(Os, R.ScalarSeconds);
  Os << ", \"batched_seconds\": ";
  appendJsonDouble(Os, R.BatchedSeconds);
  Os << ", \"speedup\": ";
  appendJsonDouble(Os, R.BatchedSeconds > 0.0
                           ? R.ScalarSeconds / R.BatchedSeconds
                           : 0.0);
  Os << ", \"repeats\": " << R.Repeats
     << ", \"falsified_scalar\": " << R.FalsifiedScalar
     << ", \"falsified_batched\": " << R.FalsifiedBatched << "}";
  return Os.str();
}

std::string cexSearchDocument(const std::vector<std::string> &CaseLines) {
  std::ostringstream Os;
  Os << "{\n  \"schema\": \"charon-bench-cex-search/1\",\n  \"cases\": [";
  for (size_t I = 0; I < CaseLines.size(); ++I)
    Os << (I == 0 ? "\n" : ",\n") << CaseLines[I];
  Os << "\n  ]\n}\n";
  return Os.str();
}

/// Extracts the case name from a cexSearchCaseLine-shaped line, or "".
std::string caseLineName(const std::string &Line) {
  const std::string Prefix = "    {\"name\": \"";
  if (Line.compare(0, Prefix.size(), Prefix) != 0)
    return "";
  size_t End = Line.find('"', Prefix.size());
  return End == std::string::npos ? "" : Line.substr(Prefix.size(),
                                                     End - Prefix.size());
}

} // namespace

std::string
charon::bench::cexSearchJson(const std::vector<CexSearchResult> &Results) {
  std::vector<std::string> Lines;
  Lines.reserve(Results.size());
  for (const CexSearchResult &R : Results)
    Lines.push_back(cexSearchCaseLine(R));
  return cexSearchDocument(Lines);
}

bool charon::bench::updateCexSearchJsonFile(
    const std::string &Path, const std::vector<CexSearchResult> &Results) {
  // The document is line-structured (one case per line), so the merge is a
  // line-level replace-or-append over the existing file.
  std::vector<std::string> Names;
  std::vector<std::string> Lines;
  {
    std::ifstream In(Path);
    std::string Line;
    bool SchemaOk = false;
    while (In && std::getline(In, Line)) {
      if (Line.find("\"schema\": \"charon-bench-cex-search/1\"") !=
          std::string::npos)
        SchemaOk = true;
      std::string Name = caseLineName(Line);
      if (SchemaOk && !Name.empty()) {
        if (!Line.empty() && Line.back() == ',')
          Line.pop_back();
        Names.push_back(std::move(Name));
        Lines.push_back(std::move(Line));
      }
    }
  }
  for (const CexSearchResult &R : Results) {
    std::string Line = cexSearchCaseLine(R);
    auto It = std::find(Names.begin(), Names.end(), R.Case.Name);
    if (It != Names.end()) {
      Lines[static_cast<size_t>(It - Names.begin())] = std::move(Line);
    } else {
      Names.push_back(R.Case.Name);
      Lines.push_back(std::move(Line));
    }
  }
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << cexSearchDocument(Lines);
  return static_cast<bool>(Out);
}

std::string charon::bench::scalingJson(
    const std::vector<std::string> &Instances, double SerialSeconds,
    long SerialNodes, const std::vector<ScalingPoint> &Points) {
  std::ostringstream Os;
  Os << "{\n  \"schema\": \"charon-bench-scaling/2\",\n  \"host_cores\": "
     << std::thread::hardware_concurrency()
     << ",\n  \"instances\": [";
  for (size_t I = 0; I < Instances.size(); ++I)
    Os << (I == 0 ? "" : ", ") << "\"" << Instances[I] << "\"";
  Os << "],\n  \"serial_seconds\": ";
  appendJsonDouble(Os, SerialSeconds);
  Os << ",\n  \"serial_nodes_expanded\": " << SerialNodes
     << ",\n  \"points\": [";
  for (size_t I = 0; I < Points.size(); ++I) {
    const ScalingPoint &P = Points[I];
    Os << (I == 0 ? "\n" : ",\n");
    Os << "    {\"workers\": " << P.Workers << ", \"wall_seconds\": ";
    appendJsonDouble(Os, P.WallSeconds);
    Os << ", \"speedup\": ";
    appendJsonDouble(Os, P.Speedup);
    Os << ", \"nodes_expanded\": " << P.NodesExpanded
       << ", \"per_worker_expanded\": [";
    for (size_t J = 0; J < P.PerWorkerExpanded.size(); ++J)
      Os << (J == 0 ? "" : ", ") << P.PerWorkerExpanded[J];
    Os << "], \"verdicts_identical\": "
       << (P.VerdictsIdentical ? "true" : "false") << "}";
  }
  Os << "\n  ]\n}\n";
  return Os.str();
}

bool charon::bench::writeScalingJsonFile(
    const std::string &Path, const std::vector<std::string> &Instances,
    double SerialSeconds, long SerialNodes,
    const std::vector<ScalingPoint> &Points) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << scalingJson(Instances, SerialSeconds, SerialNodes, Points);
  return static_cast<bool>(Out);
}

void charon::bench::printCactus(const char *Label,
                                const std::vector<RunRecord> &Records) {
  std::vector<double> SolvedTimes;
  for (const RunRecord &R : Records)
    if (R.Result == Verdict::Verified || R.Result == Verdict::Falsified)
      SolvedTimes.push_back(R.Seconds);
  std::sort(SolvedTimes.begin(), SolvedTimes.end());
  std::printf("  %-14s solved=%zu series:", Label, SolvedTimes.size());
  double Cumulative = 0.0;
  for (size_t I = 0; I < SolvedTimes.size(); ++I) {
    Cumulative += SolvedTimes[I];
    std::printf(" (%zu,%.2fs)", I + 1, Cumulative);
  }
  std::printf("\n");
}
