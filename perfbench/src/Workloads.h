//===- Workloads.h - The image, acas and serve workloads ---------*- C++ -*-===//
//
// Part of the Charon end-to-end benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Inputs.h"
#include "Metrics.h"
#include "Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Set-up repeats at least MinSetups times and, when set-up is cheap,
/// until MinSetupSeconds are spent (at most MaxSetups times); setup_s is
/// the median. Timed runs decide their set at least MinPasses times.
inline constexpr int MinSetups = 5;
inline constexpr double MinSetupSeconds = 0.5;
inline constexpr int MaxSetups = 41;
inline constexpr int MinPasses = 3;

/// One invocation of `perfbench run`.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  size_t Count = 0; ///< properties or requests per run; 0 = workload default
  Paths Where;
  std::string TraceFile; ///< span dump of a traced run
};

/// What a run produced: the metrics plus the correctness tally.
struct RunReport {
  std::vector<Metric> Metrics;
  long Attempted = 0;
  long Failed = 0;
  std::vector<std::string> Failures; ///< first few, for the log
  std::vector<std::string> Notes;    ///< settings and counts for the log

  void fail(const std::string &Why);
  void add(const std::string &Name, double Value, const std::string &Unit,
           const std::string &Samples = {});
};

/// image and acas: one caller deciding one property at a time.
RunReport runClosedLoop(const RunOptions &O);

/// serve: JSON-lines requests through the verification service.
RunReport runServe(const RunOptions &O);

/// Moves every thread of the process onto a different window of CPUs for
/// each pass. On a shared host each CPU's speed depends on what its
/// neighbours run, for stretches longer than a run, and the scheduler keeps
/// a busy thread on one CPU; rotating lets every property meet every CPU,
/// so its fastest pass does not hinge on where the run happened to land.
/// The window is as wide as the threads a pass keeps busy. Restores the
/// original affinity when destroyed.
class CpuRotation {
public:
  explicit CpuRotation(size_t Window);
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  /// Confines the process to the window of \p Pass.
  void pin(size_t Pass);
  /// A note for the log: which CPUs rotate, in windows of how many.
  std::string describe() const;

private:
  std::vector<int> Cpus;
  size_t Window;
};

/// Peak resident set of this process in MB.
double peakRssMb();

/// Verdict check shared by the workloads: empty when \p Result is the
/// expected verdict and, for Falsified, \p Cex lies in the region and
/// replays through Network::objective at <= \p Delta.
std::string checkVerdict(const charon::Network &Net,
                         const charon::RobustnessProperty &Prop,
                         charon::Outcome Expected, charon::Outcome Result,
                         const charon::Vector &Cex, double Delta);

/// Builds the lazily cached per-network state the verifier would otherwise
/// build inside the first timed property (lowered affine forms, residual
/// plans).
void warmNetwork(const charon::Network &Net);

/// Counters of the serial traced driver over a run's verify work.
struct DriverTotals {
  long Nodes = 0, Splits = 0, MaxDepth = 0, PgdCalls = 0, PgdRefutes = 0,
       PolicyCalls = 0, AnalyzeCalls = 0, Proved = 0, ZonotopeChoices = 0,
       DisjunctSum = 0;
  double VerifySeconds = 0.0; ///< untraced Verifier::verify time, same work

  void add(const DriverResult &D);
};

/// Service-layer measurements of a traced serve run.
struct ServiceTotals {
  double ParseUs = 0.0, QueueMsP50 = 0.0, VerifySeconds = 0.0,
         OverheadMsP50 = 0.0, LookupUs = 0.0;
  long ExactHits = 0, SubsumptionHits = 0, Misses = 0, Requests = 0,
       DuplicateRuns = 0;
};

/// Adds every per-layer metric, in one fixed order, from the driver
/// counters, the span log, the service and set-up measurements. Layers a
/// workload does not exercise read 0. \p OverheadFrac is traced time over
/// untraced time of the same work, minus one.
void addLayerMetrics(RunReport &R, const DriverTotals &D,
                     const ServiceTotals &S, const SetupTimes &Setup,
                     double OverheadFrac);

/// Runs the serial traced driver on \p Prop and cross-checks it against
/// \p Reference (an untraced Verifier::verify result of the same query)
/// and the certificate of a fresh certifying run; failures go to \p R.
void traceOne(RunReport &R, const charon::Network &Net,
              const charon::Network &Timed,
              const charon::RobustnessProperty &Prop,
              const charon::VerificationPolicy &Policy,
              const charon::VerifyResult &Reference, long Key,
              DriverTotals &Totals);

/// Median of the set-up repetitions, field by field.
SetupTimes medianSetup(const std::vector<SetupTimes> &Reps);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
