//===- VerificationService.cpp - Multi-tenant verification front-end ----------===//

#include "service/VerificationService.h"

#include "cert/CertChecker.h"
#include "core/Digest.h"
#include "search/Checkpoint.h"
#include "support/Timer.h"

#include <cassert>

using namespace charon;

//===----------------------------------------------------------------------===//
// Job state
//===----------------------------------------------------------------------===//

namespace charon {
namespace detail {

struct JobState {
  JobRequest Request;
  int Priority = 0;
  uint64_t Sequence = 0; ///< FIFO tiebreak within a priority level

  std::atomic<bool> CancelFlag{false};
  Stopwatch SinceSubmit;

  mutable std::mutex Mutex;
  mutable std::condition_variable Finished;
  bool Done = false;
  JobOutcome Out;

  void finish(JobOutcome Outcome) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Out = std::move(Outcome);
      Done = true;
    }
    Finished.notify_all();
  }
};

} // namespace detail
} // namespace charon

//===----------------------------------------------------------------------===//
// JobHandle
//===----------------------------------------------------------------------===//

bool JobHandle::done() const {
  assert(State && "empty job handle");
  std::lock_guard<std::mutex> Lock(State->Mutex);
  return State->Done;
}

void JobHandle::wait() const {
  assert(State && "empty job handle");
  std::unique_lock<std::mutex> Lock(State->Mutex);
  State->Finished.wait(Lock, [&] { return State->Done; });
}

JobOutcome JobHandle::outcome() const {
  wait();
  std::lock_guard<std::mutex> Lock(State->Mutex);
  return State->Out;
}

void JobHandle::cancel() {
  assert(State && "empty job handle");
  State->CancelFlag.store(true, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// VerificationService
//===----------------------------------------------------------------------===//

bool VerificationService::QueueOrder::operator()(
    const std::shared_ptr<detail::JobState> &A,
    const std::shared_ptr<detail::JobState> &B) const {
  // priority_queue pops the *largest* element: higher priority wins, then
  // lower sequence (earlier submission).
  if (A->Priority != B->Priority)
    return A->Priority < B->Priority;
  return A->Sequence > B->Sequence;
}

VerificationService::VerificationService(VerificationPolicy P, ServiceConfig C)
    : Policy(std::move(P)), Config(C), Cache(C.CacheCapacity),
      Pool(C.Workers) {}

VerificationService::~VerificationService() { shutdown(); }

JobHandle VerificationService::submit(JobRequest Request) {
  assert(Accepting.load() && "submit after shutdown");
  auto State = std::make_shared<detail::JobState>();
  // Refuse what cannot run: such a job would read past the registry or stop
  // the whole process where its search starts, with every other job.
  if (Request.Net >= Registry.size() ||
      !propertyFitsNetwork(Request.Prop, Registry.network(Request.Net))) {
    JobOutcome Out;
    Out.Refused = true;
    State->finish(std::move(Out));
    return JobHandle(State);
  }
  State->Priority = Request.Priority;
  State->Request = std::move(Request);
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    State->Sequence = NextSequence++;
    Pending.push(State);
  }
  // One pool task per job: each task pops whatever is the most urgent
  // pending job at the moment it runs, which is what gives priorities
  // effect over the FIFO ThreadPool underneath.
  Pool.submit([this] { runOne(); });
  return JobHandle(State);
}

void VerificationService::runOne() {
  std::shared_ptr<detail::JobState> Job;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Pending.empty())
      return; // every pending job was already claimed
    Job = Pending.top();
    Pending.pop();
  }
  execute(*Job);
}

void VerificationService::execute(detail::JobState &Job) {
  JobOutcome Out;
  Out.QueueSeconds = Job.SinceSubmit.seconds();

  if (Job.CancelFlag.load(std::memory_order_relaxed)) {
    Out.Cancelled = true;
    Job.finish(std::move(Out));
    return;
  }

  const JobRequest &Req = Job.Request;
  const Network &Net = Registry.network(Req.Net);

  CacheKey Key;
  Key.NetworkFingerprint = Registry.fingerprint(Req.Net);
  Key.PropertyDigest = digestProperty(Req.Prop);
  Key.ConfigDigest = digestVerifierConfig(Req.Config);

  // A cached Timeout that carries a checkpoint is not a final answer but a
  // partially explored search; the job continues it instead of replaying
  // (or restarting) the query.
  std::shared_ptr<const SearchCheckpoint> Resume;
  if (Config.EnableCache) {
    if (auto Hit = Cache.lookup(Key, Req.Prop.Region, Req.Prop.TargetClass)) {
      if (Hit->Result == Outcome::Timeout && Hit->Checkpoint) {
        Resume = Hit->Checkpoint;
      } else {
        Out.Result = std::move(*Hit);
        Out.CacheHit = true;
        Job.finish(std::move(Out));
        return;
      }
    }
  }

  // Cache miss (or resumable timeout). Before re-running the search, see
  // whether another config's entry left a proof certificate for the same
  // query: a re-checked proof answers this job for the cost of replaying
  // its leaves, with no trust extended across config digests.
  if (Config.EnableCache && !Resume) {
    auto Cand = Cache.lookupCertified(Key.NetworkFingerprint,
                                      Key.PropertyDigest, Key.ConfigDigest);
    // A Falsified entry must additionally meet *this* job's refutation
    // threshold (Eq. 4 is config-dependent; Verified is not).
    if (Cand && (Cand->Result == Outcome::Verified ||
                 (Cand->Result == Outcome::Falsified &&
                  Cand->ObjectiveAtCex <= Req.Config.Delta))) {
      Stopwatch CheckWatch;
      CertCheckReport Rep = checkCertificate(Net, Req.Prop, *Cand->Certificate);
      if (Rep.Accepted) {
        Cache.noteCertifiedHit();
        Cache.insert(Key, Req.Prop.Region, Req.Prop.TargetClass, *Cand);
        Out.Result = std::move(*Cand);
        Out.CacheHit = true;
        Out.CertifiedHit = true;
        Out.RunSeconds = CheckWatch.seconds();
        Job.finish(std::move(Out));
        return;
      }
    }
  }

  Stopwatch RunWatch;
  VerifierConfig VC = Req.Config;
  // Compose the job's cancel flag with any caller-supplied hook instead of
  // replacing it.
  VC.CancelRequested = [&Job, UserHook = std::move(VC.CancelRequested)] {
    return Job.CancelFlag.load(std::memory_order_relaxed) ||
           (UserHook && UserHook());
  };
  if (Config.Executor) {
    Out.Result = Config.Executor(Net, Req.Prop, VC, Resume.get());
  } else {
    Verifier V(Net, Policy, VC);
    Out.Result = V.verify(Req.Prop, Resume.get());
  }
  Out.Resumed = Resume != nullptr;
  Out.RunSeconds = RunWatch.seconds();

  if (Job.CancelFlag.load(std::memory_order_relaxed)) {
    // The cancel hook forced an early Timeout; report it as a cancel and
    // keep the cache clean of aborted runs.
    Out.Cancelled = true;
  } else if (Config.EnableCache) {
    Cache.insert(Key, Req.Prop.Region, Req.Prop.TargetClass, Out.Result);
  }
  Job.finish(std::move(Out));
}

BatchReport VerificationService::runBatch(
    const std::vector<JobRequest> &Requests) {
  Stopwatch Watch;
  std::vector<JobHandle> Handles;
  Handles.reserve(Requests.size());
  for (const JobRequest &Req : Requests)
    Handles.push_back(submit(Req));

  BatchReport Report;
  Report.Outcomes.reserve(Handles.size());
  for (JobHandle &H : Handles) {
    const JobOutcome &Out = H.outcome();
    Report.Outcomes.push_back(Out);
    switch (Out.Result.Result) {
    case Outcome::Verified:
      ++Report.Verified;
      break;
    case Outcome::Falsified:
      ++Report.Falsified;
      break;
    case Outcome::Timeout:
      ++Report.Timeout;
      break;
    }
    if (Out.CacheHit)
      ++Report.CacheHits;
    Report.Aggregate += Out.Result.Stats;
  }
  Report.WallSeconds = Watch.seconds();
  return Report;
}

void VerificationService::shutdown() {
  Accepting.store(false);
  // Every submitted job has exactly one pool task; draining the pool
  // drains the queue (cancelled jobs finish immediately inside execute()).
  Pool.wait();
}
