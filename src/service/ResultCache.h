//===- ResultCache.h - LRU verification-result cache --------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe LRU cache of verification results keyed by (network
/// fingerprint, property digest, config digest). Two lookup rules:
///
///  1. Exact: the same network, region, class, and config returns the
///     stored result verbatim. Sound because verify() is deterministic for
///     a fixed config (fixed seed).
///  2. Subsumption: a cached *Verified* verdict on a region that contains
///     the queried region (same network, class, and config) answers
///     Verified immediately. Sound by Theorem 5.2: Verified is only
///     returned for truly robust regions, and robustness on I extends to
///     every I' subseteq I by definition (forall x in I covers x in I').
///
/// Timeout entries are replayed only on an exact key match: the config
/// digest includes the time budget, so "same query, same budget" returns
/// the same timeout instead of burning the budget again. They never
/// participate in subsumption (a timeout proves nothing about any
/// region). Callers who want fresh attempts after transient load spikes
/// can disable timeout caching at the service level.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SERVICE_RESULTCACHE_H
#define CHARON_SERVICE_RESULTCACHE_H

#include "core/Verifier.h"
#include "linalg/Box.h"

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace charon {

/// Identifies one verification query: which network, which property,
/// which verifier configuration.
struct CacheKey {
  uint64_t NetworkFingerprint = 0;
  uint64_t PropertyDigest = 0;
  uint64_t ConfigDigest = 0;

  bool operator==(const CacheKey &O) const {
    return NetworkFingerprint == O.NetworkFingerprint &&
           PropertyDigest == O.PropertyDigest &&
           ConfigDigest == O.ConfigDigest;
  }
};

/// Monotonically increasing hit/miss/eviction counters. hits() splits into
/// exact hits and subsumption hits so benchmarks can tell them apart.
/// CertifiedHits counts answers recovered from a different config's entry
/// by re-checking its proof certificate (see VerificationService); they
/// are counted on top of the Misses the exact/subsumption lookup recorded.
struct CacheStats {
  long ExactHits = 0;
  long SubsumptionHits = 0;
  long CertifiedHits = 0;
  long Misses = 0;
  long Evictions = 0;
  long Inserts = 0;
  long Loaded = 0; ///< entries replayed from disk by attachFile()

  long hits() const { return ExactHits + SubsumptionHits + CertifiedHits; }
};

/// Thread-safe LRU cache mapping verification queries to results.
///
/// Optionally file-backed (attachFile): every insert is also appended to
/// an on-disk store, and attaching an existing store replays its records
/// (later records win, capacity bounds apply) and rebuilds the in-memory
/// index — including the subsumption scan set and the certificates that
/// lookupCertified serves — so verified facts survive process restarts.
/// The store is a plain append-only text file guarded by an exclusive
/// flock (one writer per file; a second attach fails cleanly). A torn
/// final record (crash mid-append) is truncated away on attach; anything
/// before it is kept.
class ResultCache {
public:
  /// Creates a cache holding at most \p Capacity entries (at least 1).
  explicit ResultCache(size_t Capacity = 4096);

  ~ResultCache();

  ResultCache(const ResultCache &) = delete;
  ResultCache &operator=(const ResultCache &) = delete;

  /// Exact-or-subsumption lookup for the query (\p Key, \p Region,
  /// \p TargetClass). On a hit the entry is refreshed to most recent.
  std::optional<VerifyResult> lookup(const CacheKey &Key, const Box &Region,
                                     size_t TargetClass);

  /// Stores \p Result for the query. Re-inserting an existing key
  /// refreshes its recency and overwrites the value.
  void insert(const CacheKey &Key, const Box &Region, size_t TargetClass,
              const VerifyResult &Result);

  /// Certificate recovery scan: a decided entry for the same network and
  /// property but a *different* config digest whose result carries a
  /// ProofCertificate. Unlike lookup(), the entry is returned untrusted —
  /// the caller must re-check the certificate (and, for Falsified, its own
  /// delta) before treating it as an answer, then record the success with
  /// noteCertifiedHit(). Linear in the cache size; runs only after an
  /// exact/subsumption miss.
  std::optional<VerifyResult> lookupCertified(uint64_t NetworkFingerprint,
                                              uint64_t PropertyDigest,
                                              uint64_t ExcludeConfigDigest);

  /// Records one successful certificate re-check (see lookupCertified).
  void noteCertifiedHit();

  /// Counter snapshot.
  CacheStats stats() const;

  /// Entries currently held.
  size_t size() const;

  /// Maximum entries held.
  size_t capacity() const { return Cap; }

  /// Drops every entry (counters are preserved). Does not touch an
  /// attached file: re-attaching (or a later process) still sees every
  /// persisted record.
  void clear();

  /// Attaches the append-only store at \p Path: takes the file's writer
  /// lock, replays existing records into the cache (counted in
  /// stats().Loaded, not Inserts), truncates a torn final record, and
  /// appends every subsequent insert. Returns false — and leaves the cache
  /// memory-only — when the file cannot be opened, another process holds
  /// the lock, or the header is not a charon-cache file. Call at most once
  /// per cache.
  bool attachFile(const std::string &Path);

  /// True when inserts are being persisted to an attached file.
  bool persistent() const;

private:
  struct KeyHash {
    size_t operator()(const CacheKey &K) const {
      // The components are already FNV-1a digests; mixing with odd
      // multipliers is enough for table placement.
      uint64_t H = K.NetworkFingerprint;
      H = H * 0x9e3779b97f4a7c15ull + K.PropertyDigest;
      H = H * 0x9e3779b97f4a7c15ull + K.ConfigDigest;
      return static_cast<size_t>(H);
    }
  };

  struct Entry {
    CacheKey Key;
    Box Region;
    size_t TargetClass = 0;
    VerifyResult Result;
  };

  using EntryList = std::list<Entry>;

  /// Moves \p It to the front (most recently used). Caller holds the lock.
  void touch(EntryList::iterator It);

  /// Shared insert path. Caller holds the lock. Loaded replays set
  /// \p FromDisk so they count as Loaded, not Inserts, and skip the
  /// append-back to the file they came from.
  void insertLocked(const CacheKey &Key, const Box &Region,
                    size_t TargetClass, const VerifyResult &Result,
                    bool FromDisk);

  /// Appends one record to the attached file. Caller holds the lock.
  void persistLocked(const Entry &E);

  mutable std::mutex Mutex;
  size_t Cap;
  EntryList Entries; ///< front = most recently used
  std::unordered_map<CacheKey, EntryList::iterator, KeyHash> Index;
  CacheStats Counters;
  int StoreFd = -1; ///< attached append-only store (-1 = memory-only)
};

} // namespace charon

#endif // CHARON_SERVICE_RESULTCACHE_H
