//===- Harness.h - Shared experiment harness for the benches -----*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common machinery for the figure-reproduction benches: building the seven
/// evaluation suites (Sec. 7), dispatching properties to each tool with a
/// uniform budget, and printing the summary/cactus series the paper's
/// figures show. Budgets are laptop-scale stand-ins for the paper's 1000 s
/// limit; override with CHARON_BENCH_BUDGET (seconds per property) and
/// CHARON_BENCH_PROPS (properties per network).
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_BENCH_HARNESS_H
#define CHARON_BENCH_HARNESS_H

#include "core/Policy.h"
#include "core/Verifier.h"
#include "data/Benchmarks.h"

#include <string>
#include <vector>

namespace charon {
namespace bench {

/// The tools compared in the evaluation.
enum class ToolKind {
  Charon,       ///< full Algorithm 1 (counterexample search + refinement)
  CharonNoCex,  ///< ablation: proof search only
  Ai2Zonotope,  ///< AI2 with the plain zonotope domain
  Ai2Bounded64, ///< AI2 with bounded powerset of 64 zonotopes
  ReluVal,      ///< symbolic intervals + smear bisection
  Reluplex,     ///< complete LP branch-and-bound (paper-faithful, no
                ///< bound tightening)
  ReluplexBT    ///< Reluplex upgraded with symbolic bound tightening (the
                ///< modern-MILP ablation; Sec. 9 future work)
};

/// Printable tool name as used in the paper's figures.
const char *toolName(ToolKind Tool);

/// Verdict vocabulary across all tools.
enum class Verdict { Verified, Falsified, Timeout, Unknown };

const char *toString(Verdict V);

/// One (tool, property) measurement.
struct RunRecord {
  std::string Suite;
  std::string Property;
  ToolKind Tool;
  Verdict Result = Verdict::Timeout;
  double Seconds = 0.0;
};

/// Harness-wide knobs (env-overridable).
struct HarnessConfig {
  int PropertiesPerSuite = 9;
  double BudgetSeconds = 2.0;
  std::string PolicyPath = "networks/policy.txt";
  /// PGD settings handed to the Charon tools (the RQ2 bench flips the
  /// engine here to time the scalar-vs-batched end-to-end ablation).
  PgdConfig Pgd;
};

/// Reads CHARON_BENCH_PROPS / CHARON_BENCH_BUDGET overrides.
HarnessConfig defaultHarnessConfig();

/// Pins glibc's dynamic malloc thresholds (mmap and trim) so timed cases
/// are independent of the allocation history of whatever ran before them
/// in the same process. Without this, an early case that frees a
/// medium-sized mmap'd block trains the allocator into serving a later
/// case's larger-than-threshold matrices from fresh mmap regions — and
/// that case then pays a page fault per touched page on *every* timed
/// repeat (measured: +25% on zonotope_dense_relu_w256 when run after the
/// smaller cases vs. alone). No-op on non-glibc platforms. Call once at
/// the top of a bench main, before any measurement.
void stabilizeAllocator();

/// The learned policy if examples/acas_policy_training has produced one,
/// otherwise the hand-tuned default.
VerificationPolicy loadOrDefaultPolicy(const HarnessConfig &Config);

/// Builds all seven evaluation suites (trains networks on first run; they
/// are cached under networks/).
std::vector<BenchmarkSuite> buildAllSuites(const HarnessConfig &Config);

/// The six fully connected suites (complete tools skip the conv net, as in
/// the paper's Sec. 7.2).
std::vector<BenchmarkSuite> buildFcSuites(const HarnessConfig &Config);

/// Runs one tool on one property under the harness budget.
RunRecord runTool(ToolKind Tool, const BenchmarkSuite &Suite,
                  const RobustnessProperty &Prop, const HarnessConfig &Config,
                  const VerificationPolicy &Policy);

/// Runs \p Tool over every property of every suite.
std::vector<RunRecord> runToolOnSuites(ToolKind Tool,
                                       const std::vector<BenchmarkSuite> &Suites,
                                       const HarnessConfig &Config,
                                       const VerificationPolicy &Policy);

/// Aggregate counts in the Figure 6 vocabulary.
struct Summary {
  int Verified = 0;
  int Falsified = 0;
  int Timeout = 0;
  int Unknown = 0;
  double TotalSeconds = 0.0;

  int total() const { return Verified + Falsified + Timeout + Unknown; }
  int solved() const { return Verified + Falsified; }
};

Summary summarize(const std::vector<RunRecord> &Records);

/// Prints a Figure 6 style row: percentages of each verdict.
void printSummaryRow(const char *Label, const Summary &S);

/// Prints a cactus series (Figures 7-14): for the solved benchmarks in
/// time order, "n-th solved, cumulative seconds" pairs.
void printCactus(const char *Label, const std::vector<RunRecord> &Records);

//===----------------------------------------------------------------------===//
// Micro-domain benchmark cases (machine-readable perf trajectory)
//===----------------------------------------------------------------------===//

/// One micro-domain propagation case: a seeded random dense stack of the
/// given width and hidden activation pushed through one abstract domain.
/// The case set is the perf trajectory tracked in BENCH_micro_domains.json
/// from PR 3 onward.
struct MicroDomainCase {
  std::string Name;  ///< stable identifier, e.g. "zonotope_dense_relu_w256"
  size_t Width = 25; ///< input and hidden width of the MLP
  int HiddenLayers = 3;
  DomainSpec Spec;
  /// Hidden activation: smooth kinds route the propagation through the
  /// parallel-line relaxation transformers instead of the ReLU case split.
  ActivationKind Act = ActivationKind::Relu;
};

/// Measurement of one micro-domain case.
struct MicroDomainResult {
  MicroDomainCase Case;
  size_t InputDim = 0;
  size_t OutputDim = 0;
  /// Noise symbols tracked by the final abstract element (zonotope-family
  /// domains; 0 for domains without generators). For powersets this is the
  /// sum over disjuncts.
  size_t Generators = 0;
  double Margin = 0.0;
  /// Best-of-repeats wall time of one full abstract propagation + margin
  /// computation, in seconds.
  double Seconds = 0.0;
  int Repeats = 0;
};

/// The default tracked case set: zonotope / interval / powerset propagation
/// through Dense+ReLU stacks at widths from ACAS-scale up to 512 units.
std::vector<MicroDomainCase> defaultMicroDomainCases();

/// Runs one case: builds the seeded network, times \p Repeats propagations
/// (keeping the fastest), and collects dims / generator counts / margin.
MicroDomainResult runMicroDomainCase(const MicroDomainCase &Case, int Repeats);

/// Serializes results as the BENCH_micro_domains.json document
/// (schema "charon-bench-micro-domains/3": adds a per-case "act" field
/// naming the hidden activation; /2 added the top-level "simd" field and
/// the per-case "precision" field, which now always reads "double").
std::string microDomainJson(const std::vector<MicroDomainResult> &Results);

/// Writes microDomainJson to \p Path; returns false on I/O failure.
bool writeMicroDomainJsonFile(const std::string &Path,
                              const std::vector<MicroDomainResult> &Results);

//===----------------------------------------------------------------------===//
// Counterexample-search benchmark cases (BENCH_cex_search.json)
//===----------------------------------------------------------------------===//

/// One tracked counterexample-search case. "pgd_micro" cases time one
/// multi-restart pgdMinimize call per engine on a seeded random MLP (the
/// same fixture family as the micro-domain cases); "falsification_e2e"
/// entries come from bench_rq2_falsification and time whole Charon runs.
struct CexSearchCase {
  std::string Name;               ///< stable id, e.g. "pgd_w256_multistart"
  std::string Kind = "pgd_micro"; ///< "pgd_micro" or "falsification_e2e"
  size_t Width = 64;              ///< input and hidden width of the MLP
  int HiddenLayers = 3;
  int Restarts = 8;
  int Steps = 25;
};

/// Measurement of one case: the same search timed under both PGD engines.
struct CexSearchResult {
  CexSearchCase Case;
  /// Best objective found (identical across engines by construction; the
  /// runner aborts if they disagree). 0 for end-to-end entries.
  double Objective = 0.0;
  double ScalarSeconds = 0.0;  ///< best-of-repeats, Engine = Scalar
  double BatchedSeconds = 0.0; ///< best-of-repeats, Engine = Batched
  int Repeats = 0;
  /// End-to-end entries only: properties falsified under each engine (the
  /// counts can differ under a wall-clock budget because the slower engine
  /// times out more). -1 for micro cases.
  long FalsifiedScalar = -1;
  long FalsifiedBatched = -1;
};

/// The tracked case set: multi-restart PGD at widths 64/128/256.
std::vector<CexSearchCase> defaultCexSearchCases();

/// Runs one micro case: times \p Repeats searches per engine (keeping the
/// fastest), checks the engines return bit-identical objectives.
CexSearchResult runCexSearchCase(const CexSearchCase &Case, int Repeats);

/// Serializes results as the BENCH_cex_search.json document
/// (schema "charon-bench-cex-search/1").
std::string cexSearchJson(const std::vector<CexSearchResult> &Results);

/// Merges \p Results into the document at \p Path: cases with matching
/// names are replaced in place, new ones appended, existing others kept —
/// so bench_ablation_cex_search and bench_rq2_falsification can share one
/// tracked file. Returns false on I/O failure.
bool updateCexSearchJsonFile(const std::string &Path,
                             const std::vector<CexSearchResult> &Results);

//===----------------------------------------------------------------------===//
// Thread scaling series (bench_parallel_scaling)
//===----------------------------------------------------------------------===//

/// One point of a scaling series: the same instance set decided by
/// verifyParallel on a pool of the given size.
struct ScalingPoint {
  int Workers = 0;
  double WallSeconds = 0.0;
  double Speedup = 1.0;   ///< serial-baseline seconds / WallSeconds
  long NodesExpanded = 0; ///< committed expansions, summed over instances
  /// Committed expansions by thread — the work-distribution picture behind
  /// the wall-clock number.
  std::vector<long> PerWorkerExpanded;
  /// Verdict/counterexample/objective bit-identical to the serial baseline
  /// on every instance. The runners abort on a mismatch, so a false here
  /// can only mean a Timeout race was tolerated.
  bool VerdictsIdentical = true;
};

/// Serializes a scaling document (schema "charon-bench-scaling/2",
/// written by bench_parallel_scaling): the host core count — the reader
/// needs it to judge wall-clock numbers, since a 1-core host cannot show
/// wall speedup however well the work is distributed — the serial
/// baseline, and one entry per thread count.
std::string scalingJson(const std::vector<std::string> &Instances,
                        double SerialSeconds, long SerialNodes,
                        const std::vector<ScalingPoint> &Points);

/// Writes scalingJson to \p Path; returns false on I/O failure.
bool writeScalingJsonFile(const std::string &Path,
                          const std::vector<std::string> &Instances,
                          double SerialSeconds, long SerialNodes,
                          const std::vector<ScalingPoint> &Points);

} // namespace bench
} // namespace charon

#endif // CHARON_BENCH_HARNESS_H
