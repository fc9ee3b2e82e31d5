//===- bench_micro_domains.cpp - Micro cases of the core kernels ---------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// The kernels every experiment rests on, timed on seeded random MLPs: one
// abstract propagation per domain (the cost model behind the
// precision/scalability trade-off the domain policy navigates), and PGD
// counterexample searches (8 restarts, and the verifier's 2) under the
// scalar and the batched engine. Aborts if any case is nondeterministic or
// the two engines disagree; otherwise writes the cases as a charon-bench/1
// document.
//
//   --filter=SUBSTR   only run cases whose name contains SUBSTR
//   --out=PATH        output path (default BENCH_micro_domains.json)
//   --repeats=N       timed repetitions per case, fastest kept (default 3)
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "nn/Activation.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

using namespace charon;
using namespace charon::bench;

int main(int argc, char **argv) {
  // Timed cases must not depend on which cases ran before them in this
  // process (see the Harness.h doc).
  stabilizeAllocator();

  std::string Filter;
  std::string OutPath = "BENCH_micro_domains.json";
  int Repeats = 3;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--filter=", 0) == 0) {
      Filter = Arg.substr(9);
      continue;
    }
    if (Arg.rfind("--out=", 0) == 0) {
      OutPath = Arg.substr(6);
      continue;
    }
    char *End = nullptr;
    long N = Arg.rfind("--repeats=", 0) == 0
                 ? std::strtol(Arg.c_str() + 10, &End, 10)
                 : 0;
    if (N >= 1 && N <= std::numeric_limits<int>::max() && *End == '\0') {
      Repeats = static_cast<int>(N);
      continue;
    }
    std::fprintf(stderr,
                 "usage: %s [--filter=SUBSTR] [--out=PATH] [--repeats=N]\n",
                 argv[0]);
    return 2;
  }
  auto Selected = [&Filter](const std::string &Name) {
    return Name.find(Filter) != std::string::npos;
  };

  std::vector<BenchCase> Cases;
  for (const MicroDomainCase &Case : defaultMicroDomainCases()) {
    if (!Selected(Case.Name))
      continue;
    MicroDomainResult R = runMicroDomainCase(Case, Repeats);
    std::printf("%-34s %10.6f s  gens=%-5zu margin=%.6g\n",
                R.Case.Name.c_str(), R.Seconds, R.Generators, R.Margin);
    Cases.push_back(BenchCase(R.Case.Name)
                        .text("kind", "domain")
                        .text("domain", toString(R.Case.Spec))
                        .text("act", toString(R.Case.Act))
                        .number("width", R.Case.Width)
                        .number("hidden_layers", R.Case.HiddenLayers)
                        .number("input_dim", R.InputDim)
                        .number("output_dim", R.OutputDim)
                        .number("generators", R.Generators)
                        .number("margin", R.Margin)
                        .number("seconds", R.Seconds)
                        .number("repeats", R.Repeats));
  }
  for (const CexSearchCase &Case : defaultCexSearchCases()) {
    if (!Selected(Case.Name))
      continue;
    CexSearchResult R = runCexSearchCase(Case, Repeats);
    std::printf("%-34s %10.6f s  scalar %.6f s  objective=%.6g\n",
                R.Case.Name.c_str(), R.BatchedSeconds, R.ScalarSeconds,
                R.Objective);
    Cases.push_back(BenchCase(R.Case.Name)
                        .text("kind", "pgd")
                        .number("width", R.Case.Width)
                        .number("hidden_layers", R.Case.HiddenLayers)
                        .number("restarts", R.Case.Restarts)
                        .number("steps", R.Case.Steps)
                        .number("objective", R.Objective)
                        .number("scalar_seconds", R.ScalarSeconds)
                        .number("batched_seconds", R.BatchedSeconds)
                        .number("repeats", R.Repeats));
  }
  if (Cases.empty()) {
    std::fprintf(stderr, "no case matches filter '%s'\n", Filter.c_str());
    return 1;
  }
  if (!writeBenchFile(OutPath, "bench_micro_domains", Cases)) {
    std::fprintf(stderr, "failed to write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu cases)\n", OutPath.c_str(), Cases.size());
  return 0;
}
