//===- Harness.h - Shared experiment harness for the benches -----*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common machinery for the benches: building the seven evaluation suites
/// (Sec. 7), dispatching properties to each tool with a uniform budget,
/// printing the summary/cactus series the paper's figures show, and
/// writing the one machine-readable document shape, charon-bench/1. Every
/// bench but bench_rq3_policy_ablation, which compares policies, runs the
/// built-in VerificationPolicy(), as perfbench does. Budgets are
/// laptop-scale stand-ins for the paper's 1000 s limit; override with
/// CHARON_BENCH_BUDGET (seconds per property) and CHARON_BENCH_PROPS
/// (properties per network).
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_BENCH_HARNESS_H
#define CHARON_BENCH_HARNESS_H

#include "core/Policy.h"
#include "core/Verifier.h"
#include "data/Benchmarks.h"
#include "support/JsonLine.h"

#include <string>
#include <utility>
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
// The bench document (charon-bench/1)
//===----------------------------------------------------------------------===//

/// One case of a bench document: a flat object in the support/JsonLine
/// dialect whose fields print in the order they were added. The first
/// field is always "name".
struct BenchCase {
  std::vector<std::pair<std::string, json::Value>> Fields;

  explicit BenchCase(std::string Name);
  BenchCase &text(std::string Field, std::string S);
  BenchCase &number(std::string Field, double X);
  BenchCase &flag(std::string Field, bool B);
  BenchCase &numbers(std::string Field, std::vector<double> A);
};

/// Serializes the one document shape the benches write: a header line
/// {"schema": "charon-bench/1", "bench": Bench, "simd": <active SIMD
/// level>, "host_cores": <at least 1>}, then one case object per line.
/// Field names and case names follow perfbench's metric-name rule (1-64
/// letters, digits, '_', '.' or '-', starting with a letter or digit), and
/// a field counting what a BENCHMARK.json per-layer metric counts takes
/// that metric's name. Returns "" instead of a document a reader would
/// reject: a name outside the rule, a repeated field or case name, or a
/// number that is not finite.
std::string benchDocument(const std::string &Bench,
                          const std::vector<BenchCase> &Cases);

/// Writes benchDocument to \p Path; false when the document is refused or
/// the write fails.
bool writeBenchFile(const std::string &Path, const std::string &Bench,
                    const std::vector<BenchCase> &Cases);

//===----------------------------------------------------------------------===//
// Micro cases (bench_micro_domains)
//===----------------------------------------------------------------------===//

/// One micro-domain propagation case: a seeded random dense stack of the
/// given width and hidden activation pushed through one abstract domain.
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

/// The tracked domain cases: every base domain through Dense+ReLU stacks,
/// at widths from ACAS scale up to 512 units, plus powersets and a sigmoid
/// stack.
std::vector<MicroDomainCase> defaultMicroDomainCases();

/// Runs one case: builds the seeded network, times \p Repeats propagations
/// (keeping the fastest), and collects dims / generator counts / margin.
/// Aborts if two propagations disagree.
MicroDomainResult runMicroDomainCase(const MicroDomainCase &Case, int Repeats);

/// One tracked counterexample-search case: one multi-restart pgdMinimize
/// call per engine on the seeded MLP the domain cases of the same width
/// use.
struct CexSearchCase {
  std::string Name;  ///< stable id, e.g. "pgd_w256_multistart"
  size_t Width = 64; ///< input and hidden width of the MLP
  int HiddenLayers = 3;
  int Restarts = 8;
  int Steps = 25;
};

/// Measurement of one case: the same search timed under both PGD engines.
struct CexSearchResult {
  CexSearchCase Case;
  /// Best objective found, bit-identical across engines (the runner aborts
  /// if they disagree).
  double Objective = 0.0;
  double ScalarSeconds = 0.0;  ///< best-of-repeats, Engine = Scalar
  double BatchedSeconds = 0.0; ///< best-of-repeats, Engine = Batched
  int Repeats = 0;
};

/// The tracked PGD cases: 8-restart search at widths 64/128/256, and the
/// verifier's 2-restart population at w64 and at 6 hidden layers of 50.
std::vector<CexSearchCase> defaultCexSearchCases();

/// Runs one case: times \p Repeats searches per engine (keeping the
/// fastest). Aborts unless both engines return the same search result on
/// every run.
CexSearchResult runCexSearchCase(const CexSearchCase &Case, int Repeats);

} // namespace bench
} // namespace charon

#endif // CHARON_BENCH_HARNESS_H
