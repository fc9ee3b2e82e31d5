//===- charon_serve.cpp - Batch verification service driver -------------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Drives the verification service from a JSON-lines request file (or stdin):
// each input line names a network file and a robustness query; each output
// line reports the verdict, timing, cache-hit flag, and counterexample. A
// malformed or unusable request line produces an error *response* line in
// its place (same input order) and the rest of the batch still runs.
// Networks repeated across requests are loaded once (registry dedup) and
// repeated or subsumed queries are answered from the result cache.
//
//   charon_serve [requests.jsonl] [options]
//
// Options:
//   --workers <n>        worker threads, 0 to 256 (default 0: hardware
//                        concurrency)
//   --cache <n>          result-cache capacity in entries (default 4096)
//   --no-cache           disable the result cache
//   --cache-file <f>     persist the result cache to <f>: entries (verdicts,
//                        certificates, checkpoints) survive restarts, so a
//                        relaunched server answers repeats and re-checkable
//                        queries from disk
//   --certify            emit proof certificates with decided verdicts (what
//                        makes cross-config CertifiedHits possible)
//   --policy <file>      learned policy (default: built-in policy)
//   --quiet              suppress the stderr summary
//
// A count that is not a whole decimal in range prints the usage text and
// exits 2 before any worker starts. Each job runs on one worker thread; to
// spread one heavy query over every core, run it with charon_cli
// --parallel.
//
//===----------------------------------------------------------------------===//

#include "core/PolicyIo.h"
#include "service/RequestIo.h"
#include "service/VerificationService.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

using namespace charon;

namespace {

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [requests.jsonl] [--workers N] [--cache N] "
               "[--no-cache] [--cache-file F] [--certify] [--policy F] "
               "[--quiet]\n",
               Argv0);
  std::exit(2);
}

/// The most worker threads --workers may ask for.
constexpr unsigned long long MaxWorkers = 256;

/// Reads the count after flag \p I: a whole decimal from 0 to \p Max,
/// digits only, with no sign, space or overflow. Anything else prints the
/// usage text and exits 2.
unsigned long long countArg(int Argc, char **Argv, int &I,
                            unsigned long long Max) {
  const char *S = I + 1 < Argc ? Argv[++I] : "";
  if (!*S)
    usage(Argv[0]);
  unsigned long long V = 0;
  for (; *S; ++S) {
    if (*S < '0' || *S > '9')
      usage(Argv[0]);
    unsigned long long D = static_cast<unsigned long long>(*S - '0');
    if (D > Max || V > (Max - D) / 10)
      usage(Argv[0]);
    V = V * 10 + D;
  }
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string RequestPath;
  std::string PolicyPath;
  std::string CacheFile;
  ServiceConfig SC;
  bool Certify = false;
  bool Quiet = false;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--workers"))
      SC.Workers = static_cast<unsigned>(countArg(Argc, Argv, I, MaxWorkers));
    else if (!std::strcmp(Argv[I], "--cache"))
      SC.CacheCapacity = static_cast<size_t>(
          countArg(Argc, Argv, I, std::numeric_limits<size_t>::max()));
    else if (!std::strcmp(Argv[I], "--no-cache"))
      SC.EnableCache = false;
    else if (!std::strcmp(Argv[I], "--cache-file") && I + 1 < Argc)
      CacheFile = Argv[++I];
    else if (!std::strcmp(Argv[I], "--certify"))
      Certify = true;
    else if (!std::strcmp(Argv[I], "--policy") && I + 1 < Argc)
      PolicyPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--quiet"))
      Quiet = true;
    else if (Argv[I][0] != '-' && RequestPath.empty())
      RequestPath = Argv[I];
    else
      usage(Argv[0]);
  }

  VerificationPolicy Policy;
  if (!PolicyPath.empty()) {
    if (auto P = loadPolicyFile(PolicyPath))
      Policy = *P;
    else
      std::fprintf(stderr, "warning: bad policy file %s, using default\n",
                   PolicyPath.c_str());
  }

  std::ifstream File;
  std::istream *In = &std::cin;
  if (!RequestPath.empty()) {
    File.open(RequestPath);
    if (!File) {
      std::fprintf(stderr, "error: cannot open %s\n", RequestPath.c_str());
      return 2;
    }
    In = &File;
  }

  VerificationService Service(Policy, SC);
  if (!CacheFile.empty() &&
      !Service.cache().attachFile(CacheFile))
    std::fprintf(stderr,
                 "warning: cannot attach cache file %s (bad file or another "
                 "writer holds it); running memory-only\n",
                 CacheFile.c_str());

  // Parse the whole file up front. A bad line is reported as an error
  // response (in input order) and the remaining requests still run.
  std::vector<BatchLine> Lines = parseRequestBatch(*In);
  struct Entry {
    int LineNo = 0;
    std::string Error;
    int JobIndex = -1; ///< into Jobs/Requests when Error is empty
  };
  std::vector<Entry> Entries;
  std::vector<JobRequest> Jobs;
  std::vector<ServiceRequest> Requests;
  int BadLines = 0;
  for (BatchLine &BL : Lines) {
    Entry E;
    E.LineNo = BL.LineNo;
    if (!BL.Error.empty()) {
      E.Error = BL.Error;
      Entries.push_back(std::move(E));
      ++BadLines;
      continue;
    }
    ServiceRequest &Req = *BL.Request;
    auto Net = Service.registry().addFromFile(Req.Network);
    if (!Net) {
      E.Error = "cannot load network " + Req.Network;
      Entries.push_back(std::move(E));
      ++BadLines;
      continue;
    }
    auto Prop = requestProperty(Req);
    if (!Prop) {
      E.Error = "bad region";
      Entries.push_back(std::move(E));
      ++BadLines;
      continue;
    }
    if (Prop->Region.dim() != Service.registry().network(*Net).inputSize() ||
        Req.Label >= Service.registry().network(*Net).outputSize()) {
      E.Error = "query does not match network";
      Entries.push_back(std::move(E));
      ++BadLines;
      continue;
    }
    JobRequest Job;
    Job.Net = *Net;
    Job.Prop = std::move(*Prop);
    Job.Config.TimeLimitSeconds = Req.BudgetSeconds;
    Job.Config.Delta = Req.Delta;
    Job.Config.EmitCertificate = Certify;
    Job.Priority = Req.Priority;
    E.JobIndex = static_cast<int>(Jobs.size());
    Jobs.push_back(std::move(Job));
    Requests.push_back(std::move(Req));
    Entries.push_back(std::move(E));
  }

  BatchReport Report = Service.runBatch(Jobs);

  for (const Entry &E : Entries) {
    ServiceResponse Resp;
    if (E.JobIndex < 0) {
      Resp.Error = "line " + std::to_string(E.LineNo) + ": " + E.Error;
      std::fprintf(stderr, "error: %s\n", Resp.Error.c_str());
    } else {
      const JobOutcome &Out = Report.Outcomes[E.JobIndex];
      Resp.Name = Jobs[E.JobIndex].Prop.Name;
      Resp.Network = Requests[E.JobIndex].Network;
      Resp.Result = Out.Result.Result;
      Resp.CacheHit = Out.CacheHit;
      Resp.Cancelled = Out.Cancelled;
      Resp.Seconds = Out.RunSeconds;
      if (Out.Result.Result == Outcome::Falsified)
        Resp.Counterexample = Out.Result.Counterexample;
    }
    std::printf("%s\n", formatResponseLine(Resp).c_str());
  }

  if (!Quiet) {
    CacheStats CS = Service.cache().stats();
    std::fprintf(stderr,
                 "%zu jobs in %.3fs (%.1f jobs/s, %u workers): "
                 "%d verified, %d falsified, %d timeout; "
                 "cache %ld hits (%ld exact, %ld subsumed, %ld certified), "
                 "%ld misses, %ld loaded from disk\n",
                 Report.Outcomes.size(), Report.WallSeconds,
                 Report.jobsPerSecond(), Service.workers(), Report.Verified,
                 Report.Falsified, Report.Timeout, CS.hits(), CS.ExactHits,
                 CS.SubsumptionHits, CS.CertifiedHits, CS.Misses, CS.Loaded);
  }
  return BadLines ? 2 : (Report.Timeout ? 1 : 0);
}
