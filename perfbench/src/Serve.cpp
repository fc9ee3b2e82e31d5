//===- Serve.cpp - The serve workload ---------------------------------------===//
//
// JSON-lines requests through RequestIo -> NetworkRegistry ->
// VerificationService (2 workers, ResultCache on). One client thread keeps
// two requests outstanding (a closed loop) and times each request from the
// moment its line is handed to the parser to its formatted response line.
// The client polls its outstanding jobs without sleeping, so with one
// kernel thread per worker three threads are busy.
//
// The stream mixes fresh queries (cache inserts), exact repeats and
// sub-region re-asks of earlier Verified queries (exact and subsumption
// lookups). Like a client that only re-asks about answers it has received,
// the client holds a repeat or re-ask until its origin is answered, and no
// fresh query lies inside an earlier Verified region, so every run hits
// and misses the cache identically.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/Digest.h"
#include "service/RequestIo.h"
#include "service/VerificationService.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

using namespace charon;
using namespace perfbench;

namespace {

constexpr unsigned Workers = 2;
constexpr size_t Window = 2; ///< requests the client keeps outstanding
constexpr size_t DefaultRequests = 240;

enum class Kind { Fresh, Repeat, Reask };

struct Request {
  std::string Line;
  Kind K = Kind::Fresh;
  Outcome Expected = Outcome::Timeout;
  const NetEntry *Net = nullptr;
  RobustnessProperty Prop;
  size_t Origin = 0; ///< fresh request it repeats or re-asks (itself if fresh)
};

/// What the traced run's executor saw: each verify call's time and result
/// by property digest.
struct ExecutorLog {
  std::atomic<bool> Tracing{false};
  std::map<uint64_t, long> KeyByDigest; ///< fixed before a traced pass
  std::mutex Mutex;
  struct Run {
    double Seconds = 0.0;
    VerifyResult Result;
  };
  std::map<uint64_t, Run> Runs;
  long Duplicates = 0;
};

struct ServeInputs {
  Corpus Image, Acas;
  std::vector<Request> Stream;
  std::unique_ptr<ExecutorLog> Log; // outlives Service, whose executor uses it
  std::unique_ptr<VerificationService> Service;
};

ServiceRequest toRequest(const Request &Q, size_t Index) {
  ServiceRequest Req;
  Req.Network = Q.Net->Path;
  Req.Name = "r" + std::to_string(Index);
  Req.Label = Q.Prop.TargetClass;
  Req.Lower = Q.Prop.Region.lower();
  Req.Upper = Q.Prop.Region.upper();
  Req.BudgetSeconds = BudgetSeconds;
  Req.Delta = benchConfig().Delta;
  return Req;
}

/// A box inside \p B: every side shrunk toward the center by \p F < 1.
Box shrink(const Box &B, double F) {
  Vector Lo = B.lower(), Hi = B.upper();
  for (size_t I = 0; I < Lo.size(); ++I) {
    double C = 0.5 * (Lo[I] + Hi[I]);
    Lo[I] = std::max(B.lower()[I], C - F * (C - Lo[I]));
    Hi[I] = std::min(B.upper()[I], C + F * (Hi[I] - C));
  }
  return Box(std::move(Lo), std::move(Hi));
}

/// The request stream: fixed shares of fresh queries, exact repeats and
/// sub-region re-asks, mixed by the seed. Fresh queries are a cost-
/// stratified draw from both pools, so every seed's stream costs the same.
std::vector<Request> buildStream(const Corpus &Image, const Corpus &Acas,
                                 uint64_t Seed, size_t Count) {
  std::vector<std::pair<const Corpus *, size_t>> Pool;
  std::vector<double> Cost;
  for (const Corpus *C : {&Image, &Acas})
    for (size_t I = 0; I < C->Cases.size(); ++I) {
      Pool.emplace_back(C, I);
      Cost.push_back(C->Cases[I].PinnedMillis);
    }
  size_t Quota[3] = {Count * 3 / 4, Count * 3 / 20, 0};
  Quota[2] = Count - Quota[0] - Quota[1];
  // The stratified picks first, then the rest of the pool as spares for
  // picks skipped below.
  std::vector<size_t> Order = drawStratified(Cost, Quota[0], Seed, 0x5e);
  std::vector<char> Picked(Pool.size(), 0);
  for (size_t I : Order)
    Picked[I] = 1;
  for (size_t I : drawStratified(Cost, Pool.size(), Seed, 0x5f))
    if (!Picked[I])
      Order.push_back(I);
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 0x60);

  std::vector<Request> S;
  std::vector<size_t> FreshAt, VerifiedAt; // positions, increasing
  size_t NextFresh = 0;
  // Origins a request at \p I may refer to: at least two places back, so
  // the client seldom has to hold it.
  auto Eligible = [](const std::vector<size_t> &At, size_t I) {
    size_t N = 0;
    while (N < At.size() && At[N] + 2 <= I)
      ++N;
    return N;
  };
  auto Subsumed = [&](const Request &Q) {
    for (size_t P : VerifiedAt)
      if (S[P].Net == Q.Net && S[P].Prop.TargetClass == Q.Prop.TargetClass &&
          S[P].Prop.Region.contains(Q.Prop.Region))
        return true;
    return false;
  };

  while (S.size() < Count && NextFresh < Order.size()) {
    size_t I = S.size();
    // Draw the kind in proportion to the quotas left among those that can
    // be served here (repeats and re-asks need an eligible origin).
    size_t Weight[3] = {Quota[0], Eligible(FreshAt, I) ? Quota[1] : 0,
                        Eligible(VerifiedAt, I) ? Quota[2] : 0};
    size_t Total = Weight[0] + Weight[1] + Weight[2];
    Kind K = Kind::Fresh;
    if (Total > 0) {
      uint64_t Pick = R.uniformInt(Total);
      K = Pick < Weight[0]               ? Kind::Fresh
          : Pick < Weight[0] + Weight[1] ? Kind::Repeat
                                         : Kind::Reask;
    }

    Request Q;
    if (K == Kind::Fresh) {
      // Fresh queries are cache misses: skip any a cached Verified region
      // would answer by subsumption.
      do {
        const auto &[C, Idx] = Pool[Order[NextFresh++]];
        const Case &Src = C->Cases[Idx];
        Q.Net = C->Nets[Src.Net].get();
        Q.Prop = Src.Prop;
        Q.Expected = Src.Expected;
      } while (Subsumed(Q) && NextFresh < Order.size());
      if (Subsumed(Q))
        break;
      Q.Origin = I;
      FreshAt.push_back(I);
      if (Q.Expected == Outcome::Verified)
        VerifiedAt.push_back(I);
    } else if (K == Kind::Repeat) {
      Q = S[FreshAt[R.uniformInt(Eligible(FreshAt, I))]];
    } else {
      Q = S[VerifiedAt[R.uniformInt(Eligible(VerifiedAt, I))]];
      Q.Prop.Region = shrink(Q.Prop.Region, R.uniform(0.3, 0.9));
      Q.Expected = Outcome::Verified;
    }
    if (Quota[static_cast<int>(K)] > 0)
      --Quota[static_cast<int>(K)];
    Q.K = K;
    Q.Line = formatRequestLine(toRequest(Q, I));
    S.push_back(std::move(Q));
  }
  return S;
}

std::optional<ServeInputs> setUp(const RunOptions &O, size_t Count,
                                 SetupTimes &Times, std::string &Error) {
  ServeInputs In;
  auto Image = loadPinned("image", O.Where, Times, Error);
  if (!Image)
    return std::nullopt;
  auto Acas = loadPinned("acas", O.Where, Times, Error);
  if (!Acas)
    return std::nullopt;
  In.Image = std::move(*Image);
  In.Acas = std::move(*Acas);
  In.Stream = buildStream(In.Image, In.Acas, O.Seed, Count);

  ServiceConfig SC;
  SC.Workers = Workers;
  SC.CacheCapacity = 4096;
  In.Log = std::make_unique<ExecutorLog>();
  if (O.Trace) {
    // Wraps Verifier::verify to time each cache-miss job on its worker.
    ExecutorLog *Log = In.Log.get();
    SC.Executor = [Log](const Network &Net, const RobustnessProperty &Prop,
                        const VerifierConfig &Config,
                        const SearchCheckpoint *Resume) {
      uint64_t Digest = digestProperty(Prop);
      bool Tracing = Log->Tracing.load();
      auto Key = Log->KeyByDigest.find(Digest);
      double Start = SpanLog::instance().now();
      VerifyResult Result;
      {
        std::optional<ScopedSpan> Span;
        if (Tracing)
          Span.emplace("verify",
                       Key == Log->KeyByDigest.end() ? -1 : Key->second);
        Result = Verifier(Net, VerificationPolicy(), Config).verify(Prop,
                                                                    Resume);
      }
      double Seconds = SpanLog::instance().now() - Start;
      std::lock_guard<std::mutex> Lock(Log->Mutex);
      if (Tracing && Log->Runs.count(Digest))
        ++Log->Duplicates;
      Log->Runs[Digest] = {Seconds, Result};
      return Result;
    };
  }
  In.Service = std::make_unique<VerificationService>(VerificationPolicy(), SC);

  Stopwatch Register;
  std::vector<NetworkId> Ids;
  for (const Corpus *C : {&In.Image, &In.Acas})
    for (const auto &Net : C->Nets) {
      auto Id = In.Service->registry().addFromFile(Net->Path);
      if (!Id || In.Service->registry().fingerprint(*Id) != Net->Fingerprint) {
        Error = "registry copy of " + Net->Path + " does not match the pool";
        return std::nullopt;
      }
      Ids.push_back(*Id);
    }
  Times.Register += Register.seconds();
  for (NetworkId Id : Ids)
    warmNetwork(In.Service->registry().network(Id));
  for (const Corpus *C : {&In.Image, &In.Acas})
    for (const auto &Net : C->Nets)
      warmNetwork(Net->Net);
  return In;
}

/// One closed-loop pass over (a prefix of) the stream.
struct Pass {
  std::vector<double> Latency, Queue;
  std::vector<char> Hit;
  std::vector<std::string> Responses;
  double Wall = 0.0;
  CacheStats Cache; ///< counter deltas over the pass
};

Pass runPass(ServeInputs &In, size_t Limit, bool RecordSpans) {
  VerificationService &Svc = *In.Service;
  SpanLog &Clock = SpanLog::instance();
  Svc.cache().clear();
  CacheStats Before = Svc.cache().stats();
  size_t N = std::min(Limit, In.Stream.size());
  Pass P;
  P.Latency.assign(N, 0.0);
  P.Queue.assign(N, 0.0);
  P.Hit.assign(N, 0);
  P.Responses.assign(N, std::string());

  struct Outstanding {
    size_t Index;
    JobHandle Handle;
    double Start;
    std::string Name, Network;
  };
  std::vector<Outstanding> Out;
  std::vector<char> Answered(N, 0);
  size_t Next = 0;
  double Begin = Clock.now();
  while (Next < N || !Out.empty()) {
    while (Out.size() < Window && Next < N &&
           (In.Stream[Next].Origin == Next ||
            Answered[In.Stream[Next].Origin])) {
      double Start = Clock.now();
      std::string Error;
      auto Req = parseRequestLine(In.Stream[Next].Line, &Error);
      std::optional<RobustnessProperty> Prop;
      std::optional<NetworkId> Id;
      if (Req) {
        Prop = requestProperty(*Req);
        Id = Svc.registry().addFromFile(Req->Network);
      }
      if (!Req || !Prop || !Id) {
        ServiceResponse Failed;
        Failed.Name = Req ? Req->Name : std::string();
        Failed.Error = Error.empty() ? "unusable request" : Error;
        P.Responses[Next] = formatResponseLine(Failed);
        P.Latency[Next] = Clock.now() - Start;
        Answered[Next++] = 1;
        continue;
      }
      JobRequest Job;
      Job.Net = *Id;
      Job.Prop = std::move(*Prop);
      Job.Config = benchConfig();
      Job.Config.TimeLimitSeconds = Req->BudgetSeconds;
      Job.Config.Delta = Req->Delta;
      Job.Priority = Req->Priority;
      Out.push_back({Next, Svc.submit(std::move(Job)), Start, Req->Name,
                     Req->Network});
      ++Next;
    }
    bool Progress = false;
    for (size_t K = 0; K < Out.size();) {
      if (!Out[K].Handle.done()) {
        ++K;
        continue;
      }
      JobOutcome O = Out[K].Handle.outcome();
      ServiceResponse Resp;
      Resp.Name = Out[K].Name;
      Resp.Network = Out[K].Network;
      Resp.Result = O.Result.Result;
      Resp.CacheHit = O.CacheHit;
      Resp.Cancelled = O.Cancelled;
      Resp.Seconds = O.QueueSeconds + O.RunSeconds;
      if (O.Result.Result == Outcome::Falsified)
        Resp.Counterexample = O.Result.Counterexample;
      size_t I = Out[K].Index;
      P.Responses[I] = formatResponseLine(Resp);
      double End = Clock.now();
      P.Latency[I] = End - Out[K].Start;
      P.Queue[I] = O.QueueSeconds;
      P.Hit[I] = O.CacheHit;
      Answered[I] = 1;
      if (RecordSpans)
        Clock.record("request", static_cast<long>(I), Out[K].Start, End);
      Out.erase(Out.begin() + K);
      Progress = true;
    }
    if (!Progress)
      std::this_thread::yield(); // spin: a sleeping client adds wake-ups
  }
  P.Wall = Clock.now() - Begin;
  CacheStats After = Svc.cache().stats();
  P.Cache.ExactHits = After.ExactHits - Before.ExactHits;
  P.Cache.SubsumptionHits = After.SubsumptionHits - Before.SubsumptionHits;
  P.Cache.Misses = After.Misses - Before.Misses;
  return P;
}

/// Every response must carry the direct verdict (Verified for re-asks).
void checkPass(RunReport &R, const ServeInputs &In, const Pass &P) {
  for (size_t I = 0; I < P.Responses.size(); ++I) {
    const Request &Q = In.Stream[I];
    ++R.Attempted;
    std::string Error;
    auto Resp = parseResponseLine(P.Responses[I], &Error);
    if (!Resp) {
      R.fail("r" + std::to_string(I) + ": unparsable response: " + Error);
      continue;
    }
    if (!Resp->Error.empty() || Resp->Cancelled) {
      R.fail("r" + std::to_string(I) + ": refused: " + Resp->Error);
      continue;
    }
    std::string Why = checkVerdict(Q.Net->Net, Q.Prop, Q.Expected,
                                   Resp->Result, Resp->Counterexample,
                                   benchConfig().Delta);
    if (!Why.empty())
      R.fail("r" + std::to_string(I) + " " + Why);
  }
}

/// Mean seconds per request line of parsing it into a property, over a
/// replay of the stream; median of \p Reps replays.
double replayParse(const ServeInputs &In, int Reps) {
  std::vector<double> PerLine;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    Stopwatch Watch;
    size_t Parsed = 0;
    for (const Request &Q : In.Stream) {
      auto Req = parseRequestLine(Q.Line);
      Parsed += Req && requestProperty(*Req) ? 1 : 0;
    }
    PerLine.push_back(Watch.seconds() / std::max<size_t>(1, Parsed));
  }
  return median(PerLine);
}

/// Mean seconds per ResultCache::lookup over a replay of the pass's cache
/// traffic (lookup every request, insert each miss with the result the
/// service computed); median of \p Reps replays.
double replayLookups(const ServeInputs &In, const ExecutorLog &Log, int Reps) {
  std::vector<double> PerLookup;
  uint64_t ConfigDigest = 0;
  {
    VerifierConfig Config = benchConfig();
    ConfigDigest = digestVerifierConfig(Config);
  }
  for (int Rep = 0; Rep < Reps; ++Rep) {
    ResultCache Cache(4096);
    double Seconds = 0.0;
    for (const Request &Q : In.Stream) {
      CacheKey Key{Q.Net->Fingerprint, digestProperty(Q.Prop), ConfigDigest};
      Stopwatch Watch;
      auto Hit = Cache.lookup(Key, Q.Prop.Region, Q.Prop.TargetClass);
      Seconds += Watch.seconds();
      if (!Hit) {
        auto Run = Log.Runs.find(Key.PropertyDigest);
        if (Run != Log.Runs.end())
          Cache.insert(Key, Q.Prop.Region, Q.Prop.TargetClass,
                       Run->second.Result);
      }
    }
    PerLookup.push_back(Seconds / std::max<size_t>(1, In.Stream.size()));
  }
  return median(PerLookup);
}

} // namespace

RunReport perfbench::runServe(const RunOptions &O) {
  RunReport R;
  size_t Count = O.Count ? O.Count : DefaultRequests;

  std::vector<double> SetupSeconds;
  std::vector<SetupTimes> SetupReps;
  std::optional<ServeInputs> In;
  Stopwatch SetupPhase;
  for (int S = 0; S < MinSetups || (SetupPhase.seconds() < MinSetupSeconds &&
                                    S < MaxSetups);
       ++S) {
    In.reset(); // one service at a time
    Stopwatch Watch;
    SetupTimes Times;
    std::string Error;
    In = setUp(O, Count, Times, Error);
    if (!In) {
      R.fail("set-up: " + Error);
      return R;
    }
    SetupSeconds.push_back(Watch.seconds());
    SetupReps.push_back(Times);
  }
  size_t N = In->Stream.size();
  long Kinds[3] = {0, 0, 0};
  for (const Request &Q : In->Stream)
    ++Kinds[static_cast<int>(Q.K)];
  R.Notes.push_back("requests " + std::to_string(N) + ": " +
                    std::to_string(Kinds[0]) + " fresh, " +
                    std::to_string(Kinds[1]) + " exact repeats, " +
                    std::to_string(Kinds[2]) + " sub-region re-asks; " +
                    std::to_string(Workers) + " workers, " +
                    std::to_string(Window) + " outstanding");

  if (O.Trace) {
    // Untraced and traced passes alternate twice; the overhead compares
    // the faster of each, and the second traced pass is the one reported.
    ExecutorLog &Log = *In->Log;
    for (size_t I = 0; I < N; ++I)
      if (In->Stream[I].K == Kind::Fresh)
        Log.KeyByDigest.emplace(digestProperty(In->Stream[I].Prop), I);
    double PlainWall = 1e30, TracedWall = 1e30;
    Pass Traced;
    for (int Round = 0; Round < 2; ++Round) {
      Pass Plain = runPass(*In, N, /*RecordSpans=*/false);
      checkPass(R, *In, Plain);
      PlainWall = std::min(PlainWall, Plain.Wall);
      SpanLog::instance().clear();
      Log.Runs.clear();
      Log.Duplicates = 0;
      Log.Tracing = true;
      Traced = runPass(*In, N, /*RecordSpans=*/true);
      Log.Tracing = false;
      checkPass(R, *In, Traced);
      TracedWall = std::min(TracedWall, Traced.Wall);
    }

    ServiceTotals S;
    S.Requests = static_cast<long>(N);
    S.ExactHits = Traced.Cache.ExactHits;
    S.SubsumptionHits = Traced.Cache.SubsumptionHits;
    S.Misses = Traced.Cache.Misses;
    S.DuplicateRuns = Log.Duplicates;
    S.QueueMsP50 = 1e3 * median(Traced.Queue);
    std::vector<double> Overhead;
    for (size_t I = 0; I < N; ++I) {
      double Verify = 0.0;
      auto Run = Log.Runs.find(digestProperty(In->Stream[I].Prop));
      if (!Traced.Hit[I] && Run != Log.Runs.end())
        Verify = Run->second.Seconds;
      Overhead.push_back(Traced.Latency[I] - Traced.Queue[I] - Verify);
    }
    S.OverheadMsP50 = 1e3 * median(Overhead);
    for (const auto &[Digest, Run] : Log.Runs)
      S.VerifySeconds += Run.Seconds;
    S.ParseUs = 1e6 * replayParse(*In, 5);
    S.LookupUs = 1e6 * replayLookups(*In, Log, 5);

    // The serial driver over the verify work the service executed.
    std::map<const NetEntry *, Network> Timed;
    for (Corpus *C : {&In->Image, &In->Acas})
      for (auto &Net : C->Nets) {
        Timed.emplace(Net.get(), wrapLayers(Net->Net));
        warmNetwork(Timed.at(Net.get()));
      }
    DriverTotals Totals;
    long UntracedNodes = 0;
    VerificationPolicy Policy;
    for (size_t I = 0; I < N; ++I) {
      const Request &Q = In->Stream[I];
      auto Run = Log.Runs.find(digestProperty(Q.Prop));
      if (Q.K != Kind::Fresh || Run == Log.Runs.end())
        continue;
      Totals.VerifySeconds += Run->second.Seconds;
      UntracedNodes += Run->second.Result.Stats.NodesExpanded;
      traceOne(R, Q.Net->Net, Timed.at(Q.Net), Q.Prop, Policy,
               Run->second.Result, static_cast<long>(I), Totals);
    }
    R.Notes.push_back("nodes: traced " + std::to_string(Totals.Nodes) +
                      ", untraced " + std::to_string(UntracedNodes) +
                      " (service executions of the fresh queries)");
    addLayerMetrics(R, Totals, S, medianSetup(SetupReps),
                    TracedWall / PlainWall - 1.0);
    if (!O.TraceFile.empty() && !SpanLog::instance().write(O.TraceFile))
      R.Notes.push_back("could not write " + O.TraceFile);
    return R;
  }

  (void)runPass(*In, std::min<size_t>(24, N), /*RecordSpans=*/false);
  std::vector<std::vector<double>> Latency(N);
  std::string PassLog = "pass seconds:";
  CpuRotation Rotation(Workers + 1); // the workers and the client
  Stopwatch Run;
  int Passes = 0;
  while (Passes < MinPasses || Run.seconds() < O.Seconds) {
    Rotation.pin(Passes++);
    Pass P = runPass(*In, N, /*RecordSpans=*/false);
    checkPass(R, *In, P);
    for (size_t I = 0; I < N; ++I)
      Latency[I].push_back(P.Latency[I]);
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " %.3f", P.Wall);
    PassLog += Buf;
  }
  R.Notes.push_back(PassLog + " (" + Rotation.describe() + ")");
  // As in the closed-loop workloads, each request's fastest pass. With
  // Window requests outstanding, throughput is Window over the mean
  // latency (Little's law).
  std::vector<double> PerRequest;
  double Sum = 0.0;
  for (const auto &L : Latency) {
    PerRequest.push_back(*std::min_element(L.begin(), L.end()));
    Sum += PerRequest.back();
  }
  std::string Samples = std::to_string(N) + " requests x " +
                        std::to_string(Passes) + " passes";
  R.add("setup_s", median(SetupSeconds), "s",
        std::to_string(SetupSeconds.size()) + " set-ups");
  R.add("props_per_s", Window * N / Sum, "1/s", Samples);
  R.add("verdict_p50_ms", 1e3 * percentile(PerRequest, 50.0), "ms", Samples);
  R.add("verdict_p90_ms", 1e3 * percentile(PerRequest, 90.0), "ms",
        Samples + ", " + std::to_string(samplesBeyond(N, 90.0)) +
            " beyond p90");
  R.add("decided_frac",
        static_cast<double>(R.Attempted - R.Failed) / R.Attempted, "fraction",
        std::to_string(R.Attempted) + " responses");
  R.add("peak_rss_mb", peakRssMb(), "MB", "getrusage");
  return R;
}
