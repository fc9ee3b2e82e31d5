//===- ResultCache.cpp - LRU verification-result cache ------------------------===//

#include "service/ResultCache.h"

#include "cert/Certificate.h"
#include "search/Checkpoint.h"
#include "support/TextFormat.h"

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace charon;

namespace {

bool writeAll(int Fd, std::string_view Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

ResultCache::ResultCache(size_t Capacity) : Cap(std::max<size_t>(1, Capacity)) {}

ResultCache::~ResultCache() {
  if (StoreFd >= 0)
    ::close(StoreFd); // releases the flock
}

void ResultCache::touch(EntryList::iterator It) {
  Entries.splice(Entries.begin(), Entries, It);
}

std::optional<VerifyResult> ResultCache::lookup(const CacheKey &Key,
                                                const Box &Region,
                                                size_t TargetClass) {
  std::lock_guard<std::mutex> Lock(Mutex);

  auto It = Index.find(Key);
  if (It != Index.end()) {
    touch(It->second);
    ++Counters.ExactHits;
    return It->second->Result;
  }

  // Subsumption scan: any Verified entry for the same network/config whose
  // region contains the query answers Verified for the subregion. Linear in
  // the cache size, but each entry check is a cheap bounds comparison and
  // the scan only runs on exact misses.
  for (auto EIt = Entries.begin(); EIt != Entries.end(); ++EIt) {
    if (EIt->Result.Result != Outcome::Verified)
      continue;
    if (EIt->Key.NetworkFingerprint != Key.NetworkFingerprint ||
        EIt->Key.ConfigDigest != Key.ConfigDigest)
      continue;
    if (EIt->TargetClass != TargetClass ||
        EIt->Region.dim() != Region.dim() || !EIt->Region.contains(Region))
      continue;
    touch(EIt);
    ++Counters.SubsumptionHits;
    // Report the covering proof's verdict without its counters: this query
    // cost nothing, and the covering region's stats would misattribute
    // work to it.
    VerifyResult R;
    R.Result = Outcome::Verified;
    return R;
  }

  ++Counters.Misses;
  return std::nullopt;
}

void ResultCache::insertLocked(CacheRecord Rec, bool FromDisk) {
  auto It = Index.find(Rec.Key);
  if (It != Index.end()) {
    *It->second = std::move(Rec);
    touch(It->second);
  } else {
    Entries.push_front(std::move(Rec));
    Index.emplace(Entries.front().Key, Entries.begin());
    while (Entries.size() > Cap) {
      Index.erase(Entries.back().Key);
      Entries.pop_back();
      ++Counters.Evictions;
    }
  }
  if (FromDisk) {
    ++Counters.Loaded;
    return;
  }
  ++Counters.Inserts;
  if (StoreFd >= 0) {
    // Best-effort: a full disk degrades to a memory-only cache for this
    // record; soundness never depends on the store being complete.
    std::ostringstream Os;
    writeCacheRecord(Os, Entries.front());
    writeAll(StoreFd, Os.str());
  }
}

void ResultCache::insert(const CacheKey &Key, const Box &Region,
                         size_t TargetClass, const VerifyResult &Result) {
  std::lock_guard<std::mutex> Lock(Mutex);
  insertLocked({Key, Region, TargetClass, Result}, /*FromDisk=*/false);
}

std::optional<VerifyResult>
ResultCache::lookupCertified(uint64_t NetworkFingerprint,
                             uint64_t PropertyDigest,
                             uint64_t ExcludeConfigDigest) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto EIt = Entries.begin(); EIt != Entries.end(); ++EIt) {
    if (!EIt->Result.Certificate)
      continue;
    if (EIt->Result.Result == Outcome::Timeout)
      continue;
    if (EIt->Key.NetworkFingerprint != NetworkFingerprint ||
        EIt->Key.PropertyDigest != PropertyDigest ||
        EIt->Key.ConfigDigest == ExcludeConfigDigest)
      continue;
    touch(EIt);
    return EIt->Result;
  }
  return std::nullopt;
}

void ResultCache::noteCertifiedHit() {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Counters.CertifiedHits;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.clear();
  Index.clear();
}

//===----------------------------------------------------------------------===//
// Persistence
//
// Record grammar, in the shared text conventions (support/TextFormat.h);
// the nested certificate and checkpoint are byte-counted blocks, so they
// need no escaping:
//
//   entry <netfp> <propdigest> <configdigest> <class>
//   region <dim>
//   lower <dim values>
//   upper <dim values>
//   result <outcome> <objective>
//   cex <m> [<m values>]
//   stats <12 counters> <seconds>   (counters 9-12 always 0: the columns
//                                     of the removed CEGAR counters)
//   cert <bytes>\n<raw certificate text>
//   checkpoint <bytes>\n<raw checkpoint text>
//   end
//
// The file opens with "charon-cache 1". Records are replayed in file
// order on attach, so a later record for the same key wins — re-inserts
// append rather than rewrite, keeping the writer a single O_APPEND
// syscall with no index maintenance. Appends are flushed but not fsynced:
// the store survives process exits, and a crash mid-append costs exactly
// the torn record (truncated on the next attach), never the file.
//===----------------------------------------------------------------------===//

void charon::writeCacheRecord(std::ostream &Os, const CacheRecord &Rec) {
  const VerifyResult &R = Rec.Result;
  Os.precision(17);
  Os << "entry " << Rec.Key.NetworkFingerprint << " " << Rec.Key.PropertyDigest
     << " " << Rec.Key.ConfigDigest << " " << Rec.TargetClass << "\n";
  Os << "region " << Rec.Region.dim() << "\n";
  writeBox(Os, Rec.Region);
  Os << "result " << toString(R.Result) << " " << R.ObjectiveAtCex << "\n";
  Os << "cex " << R.Counterexample.size();
  writeValues(Os, R.Counterexample.data(), R.Counterexample.size());
  Os << "\nstats";
  writeStatsCounters(Os, R.Stats);
  Os << " 0 0 0 0 " << R.Stats.Seconds << "\n";
  Os << "cert ";
  writeBlock(Os, R.Certificate ? serializeCertificate(*R.Certificate) : "");
  Os << "checkpoint ";
  writeBlock(Os, R.Checkpoint ? serializeCheckpoint(*R.Checkpoint) : "");
  Os << "end\n";
}

std::optional<CacheRecord> charon::readCacheRecord(TextReader &R) {
  CacheRecord Rec;
  VerifyResult &Res = Rec.Result;
  size_t Dim = 0, CexSize = 0;
  if (!R.keyword("entry") || !R.integer(Rec.Key.NetworkFingerprint) ||
      !R.integer(Rec.Key.PropertyDigest) || !R.integer(Rec.Key.ConfigDigest) ||
      !R.integer(Rec.TargetClass) || !R.keyword("region") || !R.count(Dim) ||
      !R.box(Dim, Rec.Region) || !R.keyword("result") ||
      !R.oneOf({Outcome::Verified, Outcome::Falsified, Outcome::Timeout},
               Res.Result) ||
      !R.number(Res.ObjectiveAtCex) || !R.keyword("cex") || !R.count(CexSize))
    return std::nullopt;
  Res.Counterexample = Vector(CexSize);
  long Unused = 0; // the removed CEGAR counters' columns, read and dropped
  std::string Cert, Cp;
  if (!R.numbers(Res.Counterexample.data(), CexSize) ||
      !R.keyword("stats") || !readStatsCounters(R, Res.Stats) ||
      !R.integer(Unused) || !R.integer(Unused) || !R.integer(Unused) ||
      !R.integer(Unused) || !R.number(Res.Stats.Seconds) ||
      !R.keyword("cert") || !R.block(Cert) ||
      !R.keyword("checkpoint") || !R.block(Cp) || !R.keyword("end") ||
      !R.endLine())
    return std::nullopt;
  // An empty block holds nothing; a damaged one spoils the record.
  auto Nested = [](const std::string &Text, auto Parse, auto &Out) {
    if (Text.empty())
      return true;
    auto Parsed = Parse(Text);
    if (Parsed)
      Out = std::make_shared<typename decltype(Parsed)::value_type>(
          std::move(*Parsed));
    return Parsed.has_value();
  };
  if (!Nested(Cert, deserializeCertificate, Res.Certificate) ||
      !Nested(Cp, deserializeCheckpoint, Res.Checkpoint))
    return std::nullopt;
  return Rec;
}

bool ResultCache::attachFile(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (StoreFd >= 0)
    return false; // already attached

  int Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (Fd < 0)
    return false;
  if (::flock(Fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(Fd);
    return false;
  }

  // Stream the existing records (the lock is held, nobody else writes).
  std::ifstream Is(Path);
  if (!Is) {
    ::close(Fd);
    return false;
  }
  TextReader R(Is);
  if (R.atEnd()) {
    if (!writeAll(Fd, "charon-cache 1\n")) {
      ::close(Fd);
      return false;
    }
  } else if (!R.header("charon-cache", 1) || !R.endLine()) {
    // Not our file: refuse rather than clobber it.
    ::close(Fd);
    return false;
  } else {
    uint64_t GoodEnd = R.offset();
    while (!R.atEnd()) {
      std::optional<CacheRecord> Rec = readCacheRecord(R);
      if (!Rec) {
        // Torn or foreign tail — drop it so future appends start clean.
        if (::ftruncate(Fd, static_cast<off_t>(GoodEnd)) != 0) {
          ::close(Fd);
          return false;
        }
        break;
      }
      insertLocked(std::move(*Rec), /*FromDisk=*/true);
      GoodEnd = R.offset();
    }
  }

  StoreFd = Fd;
  return true;
}

bool ResultCache::persistent() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return StoreFd >= 0;
}
