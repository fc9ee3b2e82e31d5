//===- ResultCache.cpp - LRU verification-result cache ------------------------===//

#include "service/ResultCache.h"

#include "cert/Certificate.h"
#include "search/Checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <sstream>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace charon;

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

void ResultCache::insertLocked(const CacheKey &Key, const Box &Region,
                               size_t TargetClass, const VerifyResult &Result,
                               bool FromDisk) {
  auto It = Index.find(Key);
  if (It != Index.end()) {
    It->second->Region = Region;
    It->second->TargetClass = TargetClass;
    It->second->Result = Result;
    touch(It->second);
  } else {
    Entries.push_front({Key, Region, TargetClass, Result});
    Index.emplace(Key, Entries.begin());
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
  if (StoreFd >= 0)
    persistLocked({Key, Region, TargetClass, Result});
}

void ResultCache::insert(const CacheKey &Key, const Box &Region,
                         size_t TargetClass, const VerifyResult &Result) {
  std::lock_guard<std::mutex> Lock(Mutex);
  insertLocked(Key, Region, TargetClass, Result, /*FromDisk=*/false);
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
// Record grammar (text; doubles at 17 significant digits, outer blocks
// byte-counted so nested serialized forms need no line-level escaping):
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

namespace {

constexpr const char *CacheMagic = "charon-cache 1\n";

void appendRecord(std::string &Out, const CacheKey &Key, const Box &Region,
                  size_t TargetClass, const VerifyResult &R) {
  std::ostringstream Os;
  Os << std::setprecision(17);
  Os << "entry " << Key.NetworkFingerprint << " " << Key.PropertyDigest << " "
     << Key.ConfigDigest << " " << TargetClass << "\n";
  Os << "region " << Region.dim() << "\n";
  Os << "lower";
  for (size_t I = 0; I < Region.dim(); ++I)
    Os << " " << Region.lower()[I];
  Os << "\nupper";
  for (size_t I = 0; I < Region.dim(); ++I)
    Os << " " << Region.upper()[I];
  Os << "\nresult " << toString(R.Result) << " " << R.ObjectiveAtCex << "\n";
  Os << "cex " << R.Counterexample.size();
  for (size_t I = 0; I < R.Counterexample.size(); ++I)
    Os << " " << R.Counterexample[I];
  const VerifyStats &S = R.Stats;
  Os << "\nstats " << S.PgdCalls << " " << S.AnalyzeCalls << " " << S.Splits
     << " " << S.MaxDepth << " " << S.IntervalChoices << " "
     << S.ZonotopeChoices << " " << S.DisjunctSum << " " << S.NodesExpanded
     << " 0 0 0 0 " << S.Seconds << "\n";
  std::string Cert = R.Certificate ? serializeCertificate(*R.Certificate) : "";
  Os << "cert " << Cert.size() << "\n" << Cert;
  std::string Cp = R.Checkpoint ? serializeCheckpoint(*R.Checkpoint) : "";
  Os << "checkpoint " << Cp.size() << "\n" << Cp;
  Os << "end\n";
  Out += Os.str();
}

/// Cursor over the raw file contents; every reader consumes exactly the
/// bytes of well-formed input so At marks the end of the last good record.
struct StoreCursor {
  const std::string &Text;
  size_t At = 0;

  explicit StoreCursor(const std::string &T) : Text(T) {}

  bool atEnd() const { return At >= Text.size(); }

  /// True when \p Count values could still follow: each takes at least one
  /// byte, so a larger count is damage and must not size an allocation.
  bool fits(uint64_t Count) const { return Count <= Text.size() - At; }

  /// Reads one whitespace-separated token on the current line.
  bool token(std::string &Out) {
    while (At < Text.size() && (Text[At] == ' ' || Text[At] == '\t'))
      ++At;
    size_t Start = At;
    while (At < Text.size() && Text[At] != ' ' && Text[At] != '\t' &&
           Text[At] != '\n')
      ++At;
    if (At == Start)
      return false;
    Out.assign(Text, Start, At - Start);
    return true;
  }

  bool expect(const char *Keyword) {
    std::string T;
    return token(T) && T == Keyword;
  }

  bool number(double &Out) {
    std::string T;
    if (!token(T))
      return false;
    char *End = nullptr;
    Out = std::strtod(T.c_str(), &End);
    return End == T.c_str() + T.size();
  }

  bool u64(uint64_t &Out) {
    std::string T;
    if (!token(T))
      return false;
    char *End = nullptr;
    unsigned long long V = std::strtoull(T.c_str(), &End, 10);
    if (End != T.c_str() + T.size() || T.empty() || T[0] == '-')
      return false;
    Out = static_cast<uint64_t>(V);
    return true;
  }

  bool integer(long &Out) {
    std::string T;
    if (!token(T))
      return false;
    char *End = nullptr;
    Out = std::strtol(T.c_str(), &End, 10);
    return End == T.c_str() + T.size();
  }

  bool newline() {
    if (At < Text.size() && Text[At] == '\n') {
      ++At;
      return true;
    }
    return false;
  }

  /// Consumes a byte-counted block followed by its terminating newline.
  bool block(size_t Bytes, std::string &Out) {
    if (At + Bytes > Text.size())
      return false;
    Out.assign(Text, At, Bytes);
    At += Bytes;
    return true;
  }
};

struct StoreRecord {
  CacheKey Key;
  Box Region;
  size_t TargetClass = 0;
  VerifyResult Result;
};

/// Parses one record at the cursor; false leaves the cursor past an
/// unusable tail (caller truncates to the last good offset).
bool parseRecord(StoreCursor &C, StoreRecord &Rec) {
  if (!C.expect("entry") || !C.u64(Rec.Key.NetworkFingerprint) ||
      !C.u64(Rec.Key.PropertyDigest) || !C.u64(Rec.Key.ConfigDigest))
    return false;
  uint64_t Class = 0;
  if (!C.u64(Class) || !C.newline())
    return false;
  Rec.TargetClass = static_cast<size_t>(Class);

  uint64_t Dim = 0;
  if (!C.expect("region") || !C.u64(Dim) || !C.newline() || !C.fits(Dim))
    return false;
  Vector Lo(Dim), Hi(Dim);
  if (!C.expect("lower"))
    return false;
  for (size_t I = 0; I < Dim; ++I)
    if (!C.number(Lo[I]))
      return false;
  if (!C.newline() || !C.expect("upper"))
    return false;
  for (size_t I = 0; I < Dim; ++I)
    if (!C.number(Hi[I]))
      return false;
  if (!C.newline())
    return false;
  for (size_t I = 0; I < Dim; ++I)
    if (Lo[I] > Hi[I])
      return false;
  Rec.Region = Box(std::move(Lo), std::move(Hi));

  std::string OutcomeName;
  if (!C.expect("result") || !C.token(OutcomeName))
    return false;
  if (OutcomeName == "verified")
    Rec.Result.Result = Outcome::Verified;
  else if (OutcomeName == "falsified")
    Rec.Result.Result = Outcome::Falsified;
  else if (OutcomeName == "timeout")
    Rec.Result.Result = Outcome::Timeout;
  else
    return false;
  if (!C.number(Rec.Result.ObjectiveAtCex) || !C.newline())
    return false;

  uint64_t CexSize = 0;
  if (!C.expect("cex") || !C.u64(CexSize) || !C.fits(CexSize))
    return false;
  Rec.Result.Counterexample = Vector(CexSize);
  for (size_t I = 0; I < CexSize; ++I)
    if (!C.number(Rec.Result.Counterexample[I]))
      return false;
  if (!C.newline())
    return false;

  VerifyStats &S = Rec.Result.Stats;
  long Unused = 0; // the removed CEGAR counters' columns, read and dropped
  if (!C.expect("stats") || !C.integer(S.PgdCalls) ||
      !C.integer(S.AnalyzeCalls) || !C.integer(S.Splits) ||
      !C.integer(S.MaxDepth) || !C.integer(S.IntervalChoices) ||
      !C.integer(S.ZonotopeChoices) || !C.integer(S.DisjunctSum) ||
      !C.integer(S.NodesExpanded) || !C.integer(Unused) ||
      !C.integer(Unused) || !C.integer(Unused) || !C.integer(Unused) ||
      !C.number(S.Seconds) || !C.newline())
    return false;

  uint64_t CertBytes = 0;
  std::string CertText;
  if (!C.expect("cert") || !C.u64(CertBytes) || !C.newline() ||
      !C.block(CertBytes, CertText))
    return false;
  if (!CertText.empty()) {
    auto Cert = deserializeCertificate(CertText);
    if (!Cert)
      return false;
    Rec.Result.Certificate =
        std::make_shared<const ProofCertificate>(std::move(*Cert));
  }

  uint64_t CpBytes = 0;
  std::string CpText;
  if (!C.expect("checkpoint") || !C.u64(CpBytes) || !C.newline() ||
      !C.block(CpBytes, CpText))
    return false;
  if (!CpText.empty()) {
    auto Cp = deserializeCheckpoint(CpText);
    if (!Cp)
      return false;
    Rec.Result.Checkpoint =
        std::make_shared<const SearchCheckpoint>(std::move(*Cp));
  }

  return C.expect("end") && C.newline();
}

bool writeAll(int Fd, const std::string &Data) {
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

  // Slurp the existing contents (the lock is held, nobody else writes).
  std::string Text;
  char Buf[1 << 16];
  ::lseek(Fd, 0, SEEK_SET);
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ::close(Fd);
      return false;
    }
    if (N == 0)
      break;
    Text.append(Buf, static_cast<size_t>(N));
  }

  size_t MagicLen = std::strlen(CacheMagic);
  if (Text.empty()) {
    if (!writeAll(Fd, CacheMagic)) {
      ::close(Fd);
      return false;
    }
  } else if (Text.compare(0, MagicLen, CacheMagic) != 0) {
    // Not our file: refuse rather than clobber it.
    ::close(Fd);
    return false;
  } else {
    StoreCursor C(Text);
    C.At = MagicLen;
    size_t GoodEnd = C.At;
    StoreRecord Rec;
    while (!C.atEnd() && parseRecord(C, Rec)) {
      insertLocked(Rec.Key, Rec.Region, Rec.TargetClass, Rec.Result,
                   /*FromDisk=*/true);
      GoodEnd = C.At;
      Rec = StoreRecord();
    }
    if (GoodEnd < Text.size()) {
      // Torn or foreign tail — drop it so future appends start clean.
      if (::ftruncate(Fd, static_cast<off_t>(GoodEnd)) != 0) {
        ::close(Fd);
        return false;
      }
    }
  }

  StoreFd = Fd;
  return true;
}

bool ResultCache::persistent() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return StoreFd >= 0;
}

void ResultCache::persistLocked(const Entry &E) {
  std::string Rec;
  appendRecord(Rec, E.Key, E.Region, E.TargetClass, E.Result);
  // Best-effort: a full disk degrades to a memory-only cache for this
  // record; soundness never depends on the store being complete.
  writeAll(StoreFd, Rec);
}
