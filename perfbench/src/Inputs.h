//===- Inputs.h - Pinned pools, networks and seeded draws --------*- C++ -*-===//
//
// Part of the Charon end-to-end benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Where every workload input comes from and how it is pinned.
///
/// A pool file (perfbench/pinned/<pool>.txt) lists the network fingerprints
/// and, per candidate property, its content digest, the verdict and node
/// count the verifier gave it when the pool was pinned, and its cost. Only
/// properties decided far inside the per-property budget were admitted, so
/// every run decides the same set with the same node counts. A seed then
/// draws the run's property set (image, acas) or request stream (serve)
/// from the pool. Image-suite and ONNX properties are regenerated from the
/// data layer and checked against their digests; ACAS boxes are stored in
/// the pool because regenerating them would re-run the suite's screening.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "core/Verifier.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Per-property (and per-request) verifier budget, and the pool admission
/// limit: a candidate joins only if it is decided within this share of it.
inline constexpr double BudgetSeconds = 2.0;
inline constexpr double AdmitShare = 1.0 / 20.0;
/// Candidates per Fig. 6 suite, seeded balls on the ONNX fixture, and the
/// size of the ACAS candidate suite.
inline constexpr int ImagePropsPerSuite = 30;
inline constexpr int OnnxBalls = 40;
inline constexpr int AcasCandidates = 200;
inline constexpr uint64_t AcasSuiteSeed = 2019;
inline constexpr uint64_t OnnxBallSeed = 0x6f6e6e78;

/// Locations, all relative to the checkout root the benchmark runs in.
struct Paths {
  std::string Root = ".";
  std::string Networks; ///< trained-network cache
  std::string Pinned;   ///< directory of the pool files
  std::string onnxFixture() const;
};

/// A network a workload uses, with the file its serve requests name.
struct NetEntry {
  std::string Name;
  std::string Path;
  charon::Network Net;
  uint64_t Fingerprint = 0;
};

/// One pinned pool entry.
struct PinnedProp {
  std::string Net;
  std::string Name;
  uint64_t Digest = 0;
  charon::Outcome Verdict = charon::Outcome::Timeout;
  long Nodes = 0;
  double Millis = 0.0;
  size_t Label = 0;
  charon::Box Region; ///< stored boxes only (ACAS); empty otherwise
};

struct PinnedPool {
  std::vector<std::pair<std::string, uint64_t>> Fingerprints;
  std::vector<PinnedProp> Props;
};

std::optional<PinnedPool> readPool(const std::string &Path,
                                   std::string &Error);
bool writePool(const std::string &Path, const PinnedPool &Pool);

/// A property to decide on one of the loaded networks.
struct Case {
  size_t Net = 0; ///< index into Corpus::Nets
  charon::RobustnessProperty Prop;
  charon::Outcome Expected = charon::Outcome::Timeout;
  long PinnedNodes = 0;
  double PinnedMillis = 0.0;
};

/// Networks plus candidate properties (Expected unset until matched with
/// a pool).
struct Corpus {
  std::vector<std::unique_ptr<NetEntry>> Nets;
  std::vector<Case> Cases;
};

/// Set-up time split by layer, in seconds.
struct SetupTimes {
  double DataLoad = 0.0;
  double OnnxImport = 0.0;
  double Register = 0.0;
};

/// Trains (on first use) and loads every network, and generates the
/// candidate properties: the Fig. 6 suites plus the ONNX balls ("image"),
/// or the ACAS candidate suite ("acas"). Used by pinning and preparing.
std::optional<Corpus> generateCorpus(const std::string &Pool, const Paths &P,
                                     std::string &Error);

/// Loads the networks and the pinned entries of \p Pool ("image" or
/// "acas"), checks every network fingerprint and property digest, and
/// returns the corpus with Expected filled from the pool.
std::optional<Corpus> loadPinned(const std::string &Pool, const Paths &P,
                                 SetupTimes &Times, std::string &Error);

/// Seeded draw of \p Count pool indices, stratified by pinned cost: the
/// pool is sorted by \p Cost and cut into \p Count consecutive strata, and
/// the seed picks one member of each and shuffles the picks. Every seed's
/// set thus has the same cost profile, so the seed changes which properties
/// run without moving the figures. With \p Count equal to the pool size it
/// is a seeded shuffle.
std::vector<size_t> drawStratified(const std::vector<double> &Cost,
                                   size_t Count, uint64_t Seed, uint64_t Salt);

/// The verifier configuration every workload uses.
charon::VerifierConfig benchConfig();

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
