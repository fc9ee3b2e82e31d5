//===- bench_parallel_scaling.cpp - Sec. 6: parallelization of Analyze --------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// The paper parallelizes independent calls to the abstract interpreter
// across threads ("utilizes as many threads as the host machine can
// provide", Sec. 6) and reports CPU time precisely because of this. This
// harness measures the wall-clock speedup of verifyParallel() over the
// sequential verifier on refinement-heavy properties, across thread
// counts, and writes a charon-bench/1 document: one case for the serial
// baseline and one per thread count. Every instance must reach its serial
// verdict and node count at every thread count; the bench exits 1 if one
// does not.
//
//   --out=PATH   output path (default BENCH_parallel_scaling.json)
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
    if (std::strncmp(argv[I], "--out=", 6) == 0)
      OutPath = argv[I] + 6;
    else {
      std::fprintf(stderr, "usage: %s [--out=PATH]\n", argv[0]);
      return 2;
    }
  }

  HarnessConfig Config = defaultHarnessConfig();
  VerificationPolicy Policy;

  std::printf("== Parallelization of independent Analyze calls (Sec. 6) ==\n");
  std::printf("(budget %.1fs/property, %u hardware threads, built-in "
              "policy)\n\n",
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
  std::vector<VerifyResult> Serial;
  long SerialNodes = 0;
  std::string Names;
  Stopwatch SerialWatch;
  for (const HardProp &H : HardProps) {
    VerifierConfig VC;
    VC.TimeLimitSeconds = 4.0 * Config.BudgetSeconds;
    Verifier V(H.Suite->Net, Policy, VC);
    Serial.push_back(V.verify(*H.Prop));
    SerialNodes += Serial.back().Stats.NodesExpanded;
    // Already qualified "<suite>/p<N>".
    Names += (Names.empty() ? "" : " ") + H.Prop->Name;
  }
  double SerialSeconds = SerialWatch.seconds();
  std::printf("%zu refinement-heavy properties selected (serial %.3f s, "
              "%ld nodes)\n\n",
              HardProps.size(), SerialSeconds, SerialNodes);

  std::vector<BenchCase> Cases;
  Cases.push_back(BenchCase("serial")
                      .text("instances", Names)
                      .number("wall_seconds", SerialSeconds)
                      .number("search.nodes", SerialNodes));
  std::printf("%-10s %-14s %-8s %-12s %s\n", "threads", "wall-seconds",
              "speedup", "nodes/sec", "trace-events");
  bool Mismatch = false;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    ThreadPool Pool(Threads);
    Stopwatch Watch;
    int Verified = 0;
    // Each instance's verdict and node count must equal its serial run's.
    bool Identical = true;
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
    for (size_t I = 0; I < HardProps.size(); ++I) {
      const HardProp &H = HardProps[I];
      VerifierConfig VC;
      VC.TimeLimitSeconds = 4.0 * Config.BudgetSeconds;
      VC.Trace = Counting;
      Verifier V(H.Suite->Net, Policy, VC);
      VerifyResult R = V.verifyParallel(*H.Prop, Pool);
      if (R.Result == Outcome::Verified)
        ++Verified;
      Identical &= R.Result == Serial[I].Result &&
                   R.Stats.NodesExpanded == Serial[I].Stats.NodesExpanded;
      Aggregate += R.Stats;
    }
    double Elapsed = Watch.seconds();
    // Aborted events are emitted but not counted as expansions (their node
    // stays open), so the committed-expansion identity excludes them.
    long Committed = SplitEvents + OtherEvents;
    bool EventsMatch = Committed == Aggregate.NodesExpanded;
    double Speedup = Elapsed > 0.0 ? SerialSeconds / Elapsed : 1.0;
    std::printf("%-10u %-14.3f %-8.2f %-12.0f %ld (%ld splits)%s   "
                "(%d/%zu verified)%s\n",
                Threads, Elapsed, Speedup,
                Elapsed > 0.0 ? Aggregate.NodesExpanded / Elapsed : 0.0,
                Committed + AbortedEvents, SplitEvents,
                EventsMatch ? "" : " MISMATCH", Verified, HardProps.size(),
                Identical ? "" : "  DIFFERS FROM SERIAL");
    Mismatch |= !Identical || !EventsMatch;

    std::vector<double> ByThread;
    for (const auto &Entry : CommittedByThread)
      ByThread.push_back(Entry.second);
    Cases.push_back(BenchCase("threads_" + std::to_string(Threads))
                        .number("threads", Threads)
                        .number("wall_seconds", Elapsed)
                        .number("speedup", Speedup)
                        .number("search.nodes", Aggregate.NodesExpanded)
                        .numbers("search.nodes_by_thread", ByThread)
                        .flag("verdicts_identical", Identical));
  }
  if (!writeBenchFile(OutPath, "bench_parallel_scaling", Cases)) {
    std::fprintf(stderr, "failed to write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu cases)\n", OutPath.c_str(), Cases.size());
  if (Mismatch) {
    std::fprintf(stderr, "a parallel run's verdict, node count or trace "
                         "event count differs from the serial run\n");
    return 1;
  }
  std::printf("\nVerdicts must not depend on the thread count; wall-clock "
              "time should\nshrink with threads on refinement-heavy "
              "instances (flat scaling is\nexpected on single-core "
              "hosts).\n");
  return 0;
}
