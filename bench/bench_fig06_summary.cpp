//===- bench_fig06_summary.cpp - Figure 6: AI2 vs Charon summary ---------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Reproduces Figure 6: the percentage of benchmarks each tool verifies,
// falsifies, times out on, or reports unknown, over all seven networks.
// Also prints the Sec. 7.1 headline aggregates: how many more benchmarks
// Charon solves than each AI2 variant, and the speedup on the benchmarks
// both solve.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Stats.h"

#include <cstdio>
#include <map>

using namespace charon;
using namespace charon::bench;

int main() {
  HarnessConfig Config = defaultHarnessConfig();
  VerificationPolicy Policy;

  std::printf("== Figure 6: summary of results for AI2 and Charon ==\n");
  std::printf("(budget %.1fs/property, %d properties/network, built-in "
              "policy; paper used 1000s on GCE)\n\n",
              Config.BudgetSeconds, Config.PropertiesPerSuite);

  std::vector<BenchmarkSuite> Suites = buildAllSuites(Config);
  size_t Total = 0;
  for (const auto &S : Suites)
    Total += S.Properties.size();
  std::printf("%zu networks, %zu benchmarks\n\n", Suites.size(), Total);

  std::vector<RunRecord> Charon =
      runToolOnSuites(ToolKind::Charon, Suites, Config, Policy);
  std::vector<RunRecord> Ai2Z =
      runToolOnSuites(ToolKind::Ai2Zonotope, Suites, Config, Policy);
  std::vector<RunRecord> Ai2B64 =
      runToolOnSuites(ToolKind::Ai2Bounded64, Suites, Config, Policy);

  printSummaryRow("Charon", summarize(Charon));
  printSummaryRow("AI2-Zonotope", summarize(Ai2Z));
  printSummaryRow("AI2-Bounded64", summarize(Ai2B64));

  // Headline aggregates (paper: Charon solves 59.7% more than AI2-B64 and
  // 84.7% more than AI2-Z; 6.15x / 1.12x faster on commonly solved).
  auto Headline = [&](const char *Name, const std::vector<RunRecord> &Ai2) {
    Summary C = summarize(Charon);
    Summary A = summarize(Ai2);
    double MorePct = A.solved() > 0
                         ? 100.0 * (C.solved() - A.solved()) / A.solved()
                         : 0.0;
    // Speedup on commonly solved benchmarks (geometric mean of ratios).
    std::map<std::string, const RunRecord *> ByName;
    for (const RunRecord &R : Charon)
      if (R.Result == Verdict::Verified || R.Result == Verdict::Falsified)
        ByName[R.Property] = &R;
    std::vector<double> Ratios;
    for (const RunRecord &R : Ai2) {
      if (R.Result != Verdict::Verified)
        continue;
      auto It = ByName.find(R.Property);
      if (It == ByName.end())
        continue;
      double CharonTime = std::max(It->second->Seconds, 1e-4);
      double Ai2Time = std::max(R.Seconds, 1e-4);
      Ratios.push_back(Ai2Time / CharonTime);
    }
    std::printf("Charon solves %+.1f%% more benchmarks than %s; on the %zu "
                "commonly solved it is %.2fx faster (geomean)\n",
                MorePct, Name, Ratios.size(), geometricMean(Ratios));
  };
  std::printf("\n");
  Headline("AI2-Bounded64", Ai2B64);
  Headline("AI2-Zonotope", Ai2Z);

  std::printf("\nShape check vs the paper: Charon should solve the most "
              "benchmarks; AI2\nnever falsifies; AI2-Bounded64 should time "
              "out on the convolutional net.\n");
  return 0;
}
