//===- Trace.h - Spans, timing wrappers, serial traced driver ---*- C++ -*-===//
//
// Part of the Charon end-to-end benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the traced run measures, from outside the program:
///
///  - SpanLog: an in-memory span tree (property or request -> proof-tree
///    node -> phase), written out when the run ends. The innermost calls
///    (one per layer or transformer, millions on refinement-heavy runs) are
///    not kept as spans; each is folded into its enclosing span as a
///    per-kind call count and total time.
///  - TimedLayer / TimedElement: forwarding wrappers that time the concrete
///    layer passes and the abstract transformers.
///  - tracedVerify: a serial walk of Algorithm 1's proof tree through the
///    public entry points (pgdMinimize, the policy, propagate, Box::split),
///    seeded exactly like the search engine, so verdicts and node counts
///    match Verifier::verify.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "abstract/AbstractElement.h"
#include "core/Verifier.h"
#include "nn/Network.h"

#include <array>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Innermost calls folded into their enclosing span.
enum class Leaf : unsigned {
  Forward,    ///< Layer::forward / forwardBatch
  Backward,   ///< Layer::backward / backwardBatch
  Affine,     ///< AbstractElement::applyAffine
  Activation, ///< AbstractElement::applyActivation
  MaxPool,    ///< AbstractElement::applyMaxPool
};
inline constexpr size_t NumLeaves = 5;

/// One closed span. Times are seconds since the log was created.
struct Span {
  long Parent = -1; ///< index of the enclosing span, -1 at the top
  std::string Name;
  long Key = -1;     ///< property or request index
  std::string Label; ///< proof-tree node path, "-" for the root
  double Start = 0.0, End = 0.0;
  std::array<double, NumLeaves> LeafSeconds{};
  std::array<long, NumLeaves> LeafCalls{};
};

/// Process-wide span store. Spans nest per thread; leaf timings attach to
/// the calling thread's innermost open span and are dropped when none is
/// open, so the wrappers cost only a clock read outside traced regions.
class SpanLog {
public:
  static SpanLog &instance();

  void open(const char *Name, long Key, std::string Label);
  void close();
  /// Records a finished top-level span: for work that overlaps on one
  /// thread, like a client's outstanding requests.
  void record(const char *Name, long Key, double Start, double End);
  static void addLeaf(Leaf K, double Seconds);

  /// Seconds since the log was created (the span clock).
  double now() const;

  std::vector<Span> spans() const;
  void clear();
  /// Writes one JSON object per span; returns false on I/O failure.
  bool write(const std::string &Path) const;

private:
  SpanLog();
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

/// RAII span.
class ScopedSpan {
public:
  ScopedSpan(const char *Name, long Key = -1, std::string Label = {}) {
    SpanLog::instance().open(Name, Key, std::move(Label));
  }
  ~ScopedSpan() { SpanLog::instance().close(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
};

/// Builds a network whose layers forward to \p Net's and time every
/// concrete pass. Residual blocks are copied unwrapped: the analyzer
/// downcasts them by kind. \p Net must outlive the result.
charon::Network wrapLayers(charon::Network &Net);

/// Forwarding abstract element that times the three transformers.
class TimedElement final : public charon::AbstractElement {
public:
  explicit TimedElement(std::unique_ptr<charon::AbstractElement> Inner)
      : Inner(std::move(Inner)) {}

  std::unique_ptr<charon::AbstractElement> clone() const override;
  size_t dim() const override { return Inner->dim(); }
  void applyAffine(const charon::Matrix &W, const charon::Vector &B) override;
  void applyActivation(charon::ActivationKind K, size_t Begin,
                       size_t End) override;
  void applyMaxPool(const charon::PoolSpec &Spec) override;
  double lowerBound(size_t I) const override { return Inner->lowerBound(I); }
  double upperBound(size_t I) const override { return Inner->upperBound(I); }
  double lowerBoundDiff(size_t K, size_t J) const override {
    return Inner->lowerBoundDiff(K, J);
  }
  std::unique_ptr<charon::AbstractElement>
  meetHalfspaceAtZero(size_t D, bool NonNegative) const override {
    return Inner->meetHalfspaceAtZero(D, NonNegative);
  }

private:
  std::unique_ptr<charon::AbstractElement> Inner;
};

/// What the serial driver decided, with the counters the engine keeps.
struct DriverResult {
  charon::Outcome Result = charon::Outcome::Timeout;
  charon::Vector Counterexample;
  double ObjectiveAtCex = 0.0;
  long Nodes = 0;
  long Splits = 0;
  long MaxDepth = 0;
  long PgdCalls = 0;
  long PgdRefutes = 0; ///< PGD calls reaching F <= delta
  long PolicyCalls = 0;
  long AnalyzeCalls = 0;
  long Proved = 0;
  long ZonotopeChoices = 0;
  long DisjunctSum = 0;
};

/// Decides \p Prop on \p Timed (a wrapLayers network) by walking the proof
/// tree depth-first, lower half first, exactly as the sequential search
/// engine schedules it. Records a "property" span keyed by \p Key with
/// node / phase spans below it. Supports the default direct search only
/// (no CEGAR, no complete fallback, PGD optimizer).
DriverResult tracedVerify(const charon::Network &Timed,
                          const charon::RobustnessProperty &Prop,
                          const charon::VerificationPolicy &Policy,
                          const charon::VerifierConfig &Config, long Key);

/// Empty when \p D reproduces \p R (verdict, counterexample, objective and
/// the counters both sides keep), else what differs.
std::string compareWithVerifier(const DriverResult &D,
                                const charon::VerifyResult &R);

/// Totals of a span set: per-name self time and duration, and the folded
/// leaf times.
struct SpanTotals {
  struct Entry {
    double Self = 0.0;
    double Duration = 0.0;
  };
  std::vector<std::pair<std::string, Entry>> ByName;
  std::array<double, NumLeaves> LeafSeconds{};

  Entry get(const std::string &Name) const;
};

SpanTotals totalSpans(const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
