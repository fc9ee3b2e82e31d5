//===- bench_fig15_reluval_verified.cpp - Figure 15: RQ3 vs ReluVal -----------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Reproduces Figure 15 (Sec. 7.4): restrict attention to the benchmarks
// where the robustness property holds and Charon proves it, then measure
// what fraction of them ReluVal — whose refinement strategy is static and
// hand-crafted rather than learned — can also solve. The paper reports
// 35-70% per network, evidencing the value of the learned policy.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>

using namespace charon;
using namespace charon::bench;

int main() {
  HarnessConfig Config = defaultHarnessConfig();
  VerificationPolicy Policy;

  std::printf("== Figure 15: ReluVal on the Charon-verified benchmarks ==\n");
  std::printf("(budget %.1fs/property, %d properties/network, built-in "
              "policy)\n\n",
              Config.BudgetSeconds, Config.PropertiesPerSuite);

  std::vector<BenchmarkSuite> Suites = buildFcSuites(Config);
  std::printf("%-14s %-18s %-18s %s\n", "network", "charon-verified",
              "reluval-solves", "fraction");

  for (const BenchmarkSuite &Suite : Suites) {
    int CharonVerified = 0, ReluValAlso = 0;
    for (const RobustnessProperty &Prop : Suite.Properties) {
      RunRecord C = runTool(ToolKind::Charon, Suite, Prop, Config, Policy);
      if (C.Result != Verdict::Verified)
        continue;
      ++CharonVerified;
      RunRecord V = runTool(ToolKind::ReluVal, Suite, Prop, Config, Policy);
      if (V.Result == Verdict::Verified)
        ++ReluValAlso;
    }
    double Pct = CharonVerified > 0
                     ? 100.0 * ReluValAlso / CharonVerified
                     : 0.0;
    std::printf("%-14s %-18d %-18d %5.1f%%\n", Suite.Name.c_str(),
                CharonVerified, ReluValAlso, Pct);
  }
  std::printf("\nShape check vs the paper: ReluVal should solve only part "
              "(the paper's\nband is 35-70%%) of what Charon verifies, on "
              "every network.\n");
  return 0;
}
