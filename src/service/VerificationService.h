//===- VerificationService.h - Multi-tenant verification front-end -*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns the single-property Verifier (Algorithm 1) into a service that
/// decides many properties against many networks: a priority job queue
/// executed on a ThreadPool, fronted by the deduplicating NetworkRegistry
/// and the LRU ResultCache. Each job runs the *sequential* verifier, so a
/// cache-miss job returns bit-identical results to a direct
/// Verifier::verify() call — parallelism comes from running independent
/// jobs concurrently (the Sec. 6 observation that whole benchmark suites
/// are embarrassingly parallel), never from changing a job's execution.
///
/// Jobs support priorities (higher first), per-job deadlines (via
/// VerifierConfig::TimeLimitSeconds), and cooperative cancellation wired
/// through VerifierConfig::CancelRequested. shutdown() stops accepting
/// work and drains everything already submitted.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SERVICE_VERIFICATIONSERVICE_H
#define CHARON_SERVICE_VERIFICATIONSERVICE_H

#include "core/Policy.h"
#include "core/Verifier.h"
#include "service/NetworkRegistry.h"
#include "service/ResultCache.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <queue>
#include <vector>

namespace charon {

/// One verification request: which network (by registry ID), which
/// property, how to verify it, and how urgent it is.
struct JobRequest {
  NetworkId Net = 0;
  RobustnessProperty Prop;
  VerifierConfig Config; ///< per-job; TimeLimitSeconds is the job deadline
  int Priority = 0;      ///< higher-priority jobs are scheduled first
};

/// What a finished job produced. Result.Certificate rides along both on
/// fresh runs (when the job's config set EmitCertificate) and on cache
/// hits whose stored result carried one.
struct JobOutcome {
  VerifyResult Result;   ///< bit-identical to Verifier::verify on a miss
  bool CacheHit = false; ///< answered from the ResultCache
  bool CertifiedHit = false; ///< answered by re-checking another config's
                             ///< certificate instead of trusting or rerunning
  bool Resumed = false;  ///< continued a cached Timeout's checkpoint
  bool Cancelled = false; ///< cancelled before or during execution
  /// Never run: the request named no registered network, or its property
  /// does not fit the network. The verdict is Timeout and nothing is cached.
  bool Refused = false;
  double QueueSeconds = 0.0; ///< submit-to-start latency
  double RunSeconds = 0.0;   ///< execution time (0 for pre-run cancels)
};

namespace detail {
struct JobState;
} // namespace detail

/// Future-like handle to a submitted job.
class JobHandle {
public:
  JobHandle() = default;

  /// True once the job has finished (completed or cancelled).
  bool done() const;

  /// Blocks until the job finishes.
  void wait() const;

  /// Blocks, then returns the outcome. Returned by value so the result
  /// stays valid even when called on a temporary handle
  /// (`service.submit(req).outcome()`).
  JobOutcome outcome() const;

  /// Requests cancellation: a queued job is dropped when it reaches the
  /// front; a running job stops at its next deadline poll. Either way the
  /// outcome reports Cancelled and the verdict is Timeout (never a
  /// fabricated Verified/Falsified).
  void cancel();

private:
  friend class VerificationService;
  explicit JobHandle(std::shared_ptr<detail::JobState> S) : State(std::move(S)) {}
  std::shared_ptr<detail::JobState> State;
};

/// Aggregate report for a batch of jobs.
struct BatchReport {
  std::vector<JobOutcome> Outcomes; ///< one per request, in request order
  VerifyStats Aggregate;            ///< summed stats of executed jobs
  int Verified = 0;
  int Falsified = 0;
  int Timeout = 0;
  int CacheHits = 0;
  double WallSeconds = 0.0;
  double jobsPerSecond() const {
    return WallSeconds > 0.0 ? Outcomes.size() / WallSeconds : 0.0;
  }
};

/// Service configuration.
struct ServiceConfig {
  unsigned Workers = 0;       ///< thread-pool size (0 = hardware concurrency)
  size_t CacheCapacity = 4096; ///< ResultCache entries
  /// Disable to force every job to execute. With the cache on, Timeout
  /// results are cached too (the key includes the time budget, so the same
  /// query and budget replay the same timeout); a hit on a cached Timeout
  /// resumes its checkpoint instead of replaying it (the outcome reports
  /// Resumed); and a miss first re-checks, never trusts, a certificate
  /// cached under another config (the outcome reports CertifiedHit).
  bool EnableCache = true;
  /// Optional replacement for the in-process Verifier: when set, cache-miss
  /// jobs call this instead of Verifier::verify. The callable must honor
  /// the same contract (bit-identical verdict/counterexample/objective,
  /// cooperative cancellation via the config's CancelRequested, resumable
  /// Timeout checkpoints). perfbench's traced serve workload sets it to
  /// time each cache-miss job. An embedder that wants one job spread over
  /// cores sets it to a verifyParallel call on a pool of its own (a task
  /// may not block on the pool it runs on), with Workers = 1 so that no
  /// two jobs wait on that pool at once:
  /// \code
  ///   SC.Executor = [&Policy, &Pool](const Network &Net,
  ///                                  const RobustnessProperty &Prop,
  ///                                  const VerifierConfig &Config,
  ///                                  const SearchCheckpoint *Resume) {
  ///     return Verifier(Net, Policy, Config).verifyParallel(Prop, Pool,
  ///                                                         Resume);
  ///   };
  /// \endcode
  /// Cache lookups, certificate re-checks, and cache fills stay in this
  /// service either way.
  std::function<VerifyResult(const Network &, const RobustnessProperty &,
                             const VerifierConfig &, const SearchCheckpoint *)>
      Executor;
};

/// Multi-tenant verification service over one shared policy.
class VerificationService {
public:
  explicit VerificationService(VerificationPolicy Policy,
                               ServiceConfig Config = ServiceConfig());
  ~VerificationService();

  VerificationService(const VerificationService &) = delete;
  VerificationService &operator=(const VerificationService &) = delete;

  /// The network store; register networks here before submitting jobs.
  NetworkRegistry &registry() { return Registry; }

  /// The result cache (for stats inspection and tests).
  ResultCache &cache() { return Cache; }

  /// Enqueues \p Request. Returns a handle whose outcome becomes available
  /// once a worker finishes the job. A request the service cannot run (an
  /// unregistered network, or a property that does not fit it) finishes at
  /// once as Refused. Must not be called after shutdown().
  JobHandle submit(JobRequest Request);

  /// Submits every request, waits for all of them, and aggregates. Safe to
  /// interleave with other submit() traffic.
  BatchReport runBatch(const std::vector<JobRequest> &Requests);

  /// Stops accepting new jobs and blocks until every already-submitted job
  /// has drained (cancelled jobs drain immediately). Idempotent; also run
  /// by the destructor.
  void shutdown();

  /// Worker count actually in use.
  unsigned workers() const { return Pool.size(); }

private:
  /// Pops and executes the best pending job (called on a pool thread).
  void runOne();

  /// Executes \p Job: cache lookup, verify, cache fill, notify.
  void execute(detail::JobState &Job);

  VerificationPolicy Policy;
  ServiceConfig Config;
  NetworkRegistry Registry;
  ResultCache Cache;
  ThreadPool Pool;

  std::mutex QueueMutex;
  /// Max-heap on (Priority, FIFO within a priority level).
  struct QueueOrder {
    bool operator()(const std::shared_ptr<detail::JobState> &A,
                    const std::shared_ptr<detail::JobState> &B) const;
  };
  std::priority_queue<std::shared_ptr<detail::JobState>,
                      std::vector<std::shared_ptr<detail::JobState>>,
                      QueueOrder>
      Pending;
  uint64_t NextSequence = 0;
  std::atomic<bool> Accepting{true};
};

} // namespace charon

#endif // CHARON_SERVICE_VERIFICATIONSERVICE_H
