//===- bench_service_throughput.cpp - Service scaling + cache speedup ---------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// The service layer's two scaling claims, measured on the ACAS suite:
//
//  1. Worker scaling: independent jobs are embarrassingly parallel (the
//     Sec. 6 observation applied across properties instead of within one),
//     so jobs/sec should grow with the worker count.
//  2. Cache speedup: re-deciding an identical batch is answered from the
//     result cache with identical verdicts at a fraction of the cost.
//
// Budgets follow the harness conventions (CHARON_BENCH_BUDGET /
// CHARON_BENCH_PROPS env overrides). Exits 1 when a decided verdict changes
// with the worker count or from the cold to the warm batch; a Timeout on
// either side is reported, not failed.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "service/VerificationService.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

using namespace charon;
using namespace charon::bench;

namespace {

std::vector<JobRequest> makeJobs(NetworkId Net, const BenchmarkSuite &Suite,
                                 double BudgetSeconds) {
  std::vector<JobRequest> Jobs;
  for (const RobustnessProperty &Prop : Suite.Properties) {
    JobRequest Job;
    Job.Net = Net;
    Job.Prop = Prop;
    Job.Config.TimeLimitSeconds = BudgetSeconds;
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

} // namespace

int main() {
  HarnessConfig Config = defaultHarnessConfig();
  VerificationPolicy Policy;
  int NumProps = std::max(12, 3 * Config.PropertiesPerSuite);
  BenchmarkSuite Suite = makeAcasSuite(NumProps, 99, "networks");

  std::printf("== Verification service throughput (ACAS suite) ==\n");
  std::printf("(%d jobs, budget %.1fs/job, %u hardware threads, built-in "
              "policy)\n\n",
              NumProps, Config.BudgetSeconds,
              std::thread::hardware_concurrency());

  // -- 1. Worker scaling, cache off so every job really executes. --------
  std::printf("%-10s %-14s %-12s %s\n", "workers", "wall-seconds", "jobs/sec",
              "speedup");
  double Baseline = 0.0;
  std::vector<Outcome> BaseVerdicts;
  bool ScalingDrift = false;
  for (unsigned Workers : {1u, 2u, 4u, 8u}) {
    ServiceConfig SC;
    SC.Workers = Workers;
    SC.EnableCache = false;
    VerificationService Service(Policy, SC);
    NetworkId Net = Service.registry().add(Suite.Net.clone());
    BatchReport Report =
        Service.runBatch(makeJobs(Net, Suite, Config.BudgetSeconds));
    if (Workers == 1) {
      Baseline = Report.WallSeconds;
      for (const JobOutcome &Out : Report.Outcomes)
        BaseVerdicts.push_back(Out.Result.Result);
    } else {
      // Scheduling must never change a decided verdict. A job may time out
      // at one worker count and not at another, since the cache is off and
      // each run spends its own budget under its own load: report that,
      // but it is deadline behaviour, not drift.
      for (size_t I = 0; I < Report.Outcomes.size(); ++I) {
        Outcome Got = Report.Outcomes[I].Result.Result;
        if (Got == BaseVerdicts[I])
          continue;
        bool TimedOut =
            Got == Outcome::Timeout || BaseVerdicts[I] == Outcome::Timeout;
        std::printf("  %s on job %zu at %u workers: %s here, %s at 1\n",
                    TimedOut ? "timeout" : "VERDICT DRIFT (bug!)", I, Workers,
                    toString(Got), toString(BaseVerdicts[I]));
        ScalingDrift |= !TimedOut;
      }
    }
    std::printf("%-10u %-14.3f %-12.1f %.2fx\n", Workers, Report.WallSeconds,
                Report.jobsPerSecond(),
                Baseline > 0.0 ? Baseline / Report.WallSeconds : 1.0);
  }

  // -- 2. Cache speedup: identical batch twice. --------------------------
  std::printf("\n%-10s %-14s %-12s %s\n", "batch", "wall-seconds", "jobs/sec",
              "cache-hits");
  ServiceConfig SC;
  SC.Workers = 4;
  VerificationService Service(Policy, SC);
  NetworkId Net = Service.registry().add(Suite.Net.clone());
  std::vector<JobRequest> Jobs = makeJobs(Net, Suite, Config.BudgetSeconds);

  BatchReport Cold = Service.runBatch(Jobs);
  BatchReport Warm = Service.runBatch(Jobs);
  std::printf("%-10s %-14.3f %-12.1f %d/%zu\n", "cold", Cold.WallSeconds,
              Cold.jobsPerSecond(), Cold.CacheHits, Cold.Outcomes.size());
  std::printf("%-10s %-14.3f %-12.1f %d/%zu\n", "warm", Warm.WallSeconds,
              Warm.jobsPerSecond(), Warm.CacheHits, Warm.Outcomes.size());

  // A cold Timeout may legitimately become a decided warm verdict: the
  // service resumes cached Timeout checkpoints, spending a fresh budget on
  // the saved frontier. Any other verdict change is a soundness bug.
  bool VerdictsMatch = true;
  int ResumedDecided = 0;
  for (size_t I = 0; I < Cold.Outcomes.size(); ++I) {
    Outcome C = Cold.Outcomes[I].Result.Result;
    Outcome W = Warm.Outcomes[I].Result.Result;
    if (C == W)
      continue;
    if (C == Outcome::Timeout && Warm.Outcomes[I].Resumed)
      ++ResumedDecided;
    else
      VerdictsMatch = false;
  }
  double Speedup =
      Warm.WallSeconds > 0.0 ? Cold.WallSeconds / Warm.WallSeconds : 0.0;
  std::printf("\ncache speedup %.1fx, verdicts %s", Speedup,
              VerdictsMatch ? "identical" : "DIFFER (bug!)");
  if (ResumedDecided > 0)
    std::printf(" (%d cold timeouts resumed to a verdict)", ResumedDecided);
  std::printf("\n");

  CacheStats CS = Service.cache().stats();
  std::printf("cache: %ld exact hits, %ld subsumption hits, %ld misses, "
              "%ld evictions\n",
              CS.ExactHits, CS.SubsumptionHits, CS.Misses, CS.Evictions);
  if (ScalingDrift)
    std::fprintf(stderr, "a decided verdict changed with the worker count\n");
  return VerdictsMatch && !ScalingDrift ? 0 : 1;
}
