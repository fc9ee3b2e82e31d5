//===- bench_rq2_falsification.cpp - Sec. 7.3: impact of counterexample search =//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Reproduces the Sec. 7.3 falsification counts (RQ2): of the fully
// connected benchmarks, how many can each tool refute with a concrete
// counterexample? The paper reports Charon 123, Reluplex 1, ReluVal 0 of
// 585 — optimization-based counterexample search is what makes
// falsification work. Includes the Charon-without-PGD ablation to isolate
// the mechanism.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>

using namespace charon;
using namespace charon::bench;

int main() {
  HarnessConfig Config = defaultHarnessConfig();
  VerificationPolicy Policy;

  std::printf("== Sec. 7.3 (RQ2): falsification counts ==\n");
  std::printf("(budget %.1fs/property, %d properties/network, built-in "
              "policy)\n\n",
              Config.BudgetSeconds, Config.PropertiesPerSuite);

  std::vector<BenchmarkSuite> Suites = buildFcSuites(Config);
  size_t Total = 0;
  for (const auto &S : Suites)
    Total += S.Properties.size();

  std::printf("%-14s %s\n", "tool", "benchmarks falsified");
  for (ToolKind Tool : {ToolKind::Charon, ToolKind::Reluplex,
                        ToolKind::ReluVal, ToolKind::CharonNoCex}) {
    Summary S = summarize(runToolOnSuites(Tool, Suites, Config, Policy));
    std::printf("%-14s %d / %zu\n", toolName(Tool), S.Falsified, Total);
  }

  std::printf("\nShape check vs the paper (123 / 1 / 0 of 585): Charon "
              "falsifies by far\nthe most; Reluplex a handful at best; "
              "ReluVal essentially none; and the\nno-counterexample-search "
              "ablation can falsify nothing by construction.\n");
  return 0;
}
