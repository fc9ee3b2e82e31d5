//===- bench_parallel_scaling.cpp - Sec. 6: parallelization of Analyze --------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// The paper parallelizes independent calls to the abstract interpreter
// across threads ("utilizes as many threads as the host machine can
// provide", Sec. 6) and reports CPU time precisely because of this. This
// harness measures the wall-clock speedup of verifyParallel() over the
// sequential verifier on refinement-heavy properties, across thread
// counts, and emits a "charon-bench-scaling/2" JSON document.
//
//   --scaling-out=PATH   output JSON path (default BENCH_parallel_scaling.json)
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "search/Trace.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace charon;
using namespace charon::bench;

int main(int argc, char **argv) {
  std::string OutPath = "BENCH_parallel_scaling.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--scaling-out=", 14) == 0)
      OutPath = argv[I] + 14;
    else {
      std::fprintf(stderr, "usage: %s [--scaling-out=P]\n", argv[0]);
      return 2;
    }
  }

  HarnessConfig Config = defaultHarnessConfig();
  VerificationPolicy Policy = loadOrDefaultPolicy(Config);

  std::printf("== Parallelization of independent Analyze calls (Sec. 6) ==\n");
  std::printf("(budget %.1fs/property, %u hardware threads)\n\n",
              Config.BudgetSeconds, std::thread::hardware_concurrency());

  // Pick refinement-heavy properties: verified sequentially, with many
  // splits (those are the ones with parallelizable subproblem trees).
  std::vector<BenchmarkSuite> Suites = buildFcSuites(Config);
  struct HardProp {
    const BenchmarkSuite *Suite;
    const RobustnessProperty *Prop;
  };
  std::vector<HardProp> HardProps;
  for (const BenchmarkSuite &Suite : Suites) {
    for (const RobustnessProperty &Prop : Suite.Properties) {
      VerifierConfig VC;
      VC.TimeLimitSeconds = Config.BudgetSeconds;
      Verifier V(Suite.Net, Policy, VC);
      VerifyResult R = V.verify(Prop);
      if (R.Result == Outcome::Verified && R.Stats.Splits >= 16)
        HardProps.push_back({&Suite, &Prop});
      if (HardProps.size() >= 6)
        break;
    }
    if (HardProps.size() >= 6)
      break;
  }
  if (HardProps.empty()) {
    std::printf("no refinement-heavy verified properties under the current "
                "budget;\nraise CHARON_BENCH_BUDGET to exercise this bench\n");
    return 0;
  }
  // The serial baseline is a second, warm pass over the selected
  // properties, timed like the thread points below: the selection pass
  // pays first-touch costs that later runs do not, so timing it would
  // overstate every speedup.
  long SerialNodes = 0;
  std::vector<std::string> Names;
  Stopwatch SerialWatch;
  for (const HardProp &H : HardProps) {
    VerifierConfig VC;
    VC.TimeLimitSeconds = 4.0 * Config.BudgetSeconds;
    Verifier V(H.Suite->Net, Policy, VC);
    SerialNodes += V.verify(*H.Prop).Stats.NodesExpanded;
    Names.push_back(H.Prop->Name); // already qualified "<suite>/p<N>"
  }
  double SerialSeconds = SerialWatch.seconds();
  std::printf("%zu refinement-heavy properties selected (serial %.3f s, "
              "%ld nodes)\n\n",
              HardProps.size(), SerialSeconds, SerialNodes);

  std::printf("%-10s %-14s %-8s %-12s %s\n", "threads", "wall-seconds",
              "speedup", "nodes/sec", "trace-events");
  std::vector<ScalingPoint> Points;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    ThreadPool Pool(Threads);
    Stopwatch Watch;
    int Verified = 0;
    VerifyStats Aggregate;
    // Count every node expansion through the trace sink (the structured
    // observability channel) and cross-check against NodesExpanded — the
    // engine must emit exactly one event per expansion, from any thread.
    // Attributing committed expansions to the emitting thread shows how
    // the work spread over the pool.
    std::mutex CountMutex;
    std::map<std::thread::id, long> CommittedByThread;
    long SplitEvents = 0, AbortedEvents = 0, OtherEvents = 0;
    TraceSink Counting = [&](const TraceEvent &Event) {
      std::lock_guard<std::mutex> Lock(CountMutex);
      if (!std::strcmp(Event.Outcome, "split"))
        ++SplitEvents;
      else if (!std::strcmp(Event.Outcome, "aborted"))
        ++AbortedEvents;
      else
        ++OtherEvents;
      if (std::strcmp(Event.Outcome, "aborted"))
        ++CommittedByThread[std::this_thread::get_id()];
    };
    for (const HardProp &H : HardProps) {
      VerifierConfig VC;
      VC.TimeLimitSeconds = 4.0 * Config.BudgetSeconds;
      VC.Trace = Counting;
      Verifier V(H.Suite->Net, Policy, VC);
      VerifyResult R = V.verifyParallel(*H.Prop, Pool);
      if (R.Result == Outcome::Verified)
        ++Verified;
      Aggregate += R.Stats;
    }
    double Elapsed = Watch.seconds();
    // Aborted events are emitted but not counted as expansions (their node
    // stays open), so the committed-expansion identity excludes them.
    long Committed = SplitEvents + OtherEvents;
    std::printf("%-10u %-14.3f %-8.2f %-12.0f %ld (%ld splits)%s   "
                "(%d/%zu verified)\n",
                Threads, Elapsed,
                Elapsed > 0.0 ? SerialSeconds / Elapsed : 1.0,
                Elapsed > 0.0 ? Aggregate.NodesExpanded / Elapsed : 0.0,
                Committed + AbortedEvents, SplitEvents,
                Committed == Aggregate.NodesExpanded ? "" : " MISMATCH",
                Verified, HardProps.size());

    ScalingPoint P;
    P.Workers = static_cast<int>(Threads);
    P.WallSeconds = Elapsed;
    P.Speedup = Elapsed > 0.0 ? SerialSeconds / Elapsed : 1.0;
    P.NodesExpanded = Aggregate.NodesExpanded;
    for (const auto &Entry : CommittedByThread)
      P.PerWorkerExpanded.push_back(Entry.second);
    // Verified at every thread count and the per-event identity held.
    P.VerdictsIdentical = Verified == static_cast<int>(HardProps.size()) &&
                          Committed == Aggregate.NodesExpanded;
    Points.push_back(std::move(P));
  }
  if (!writeScalingJsonFile(OutPath, Names, SerialSeconds, SerialNodes,
                            Points)) {
    std::fprintf(stderr, "failed to write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu points)\n", OutPath.c_str(), Points.size());
  std::printf("\nVerdicts must not depend on the thread count; wall-clock "
              "time should\nshrink with threads on refinement-heavy "
              "instances (flat scaling is\nexpected on single-core "
              "hosts).\n");
  return 0;
}
