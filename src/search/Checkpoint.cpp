//===- Checkpoint.cpp - Resumable proof-search checkpoints --------------------===//

#include "search/Checkpoint.h"

#include "support/TextFormat.h"

#include <set>
#include <sstream>

using namespace charon;

void charon::writeStatsCounters(std::ostream &Os, const VerifyStats &S) {
  Os << " " << S.PgdCalls << " " << S.AnalyzeCalls << " " << S.Splits << " "
     << S.MaxDepth << " " << S.IntervalChoices << " " << S.ZonotopeChoices
     << " " << S.DisjunctSum << " " << S.NodesExpanded;
}

bool charon::readStatsCounters(TextReader &R, VerifyStats &S) {
  return R.integer(S.PgdCalls) && R.integer(S.AnalyzeCalls) &&
         R.integer(S.Splits) && R.integer(S.MaxDepth) &&
         R.integer(S.IntervalChoices) && R.integer(S.ZonotopeChoices) &&
         R.integer(S.DisjunctSum) && R.integer(S.NodesExpanded);
}

void charon::saveCheckpoint(const SearchCheckpoint &Cp, std::ostream &Os) {
  writeHeader(Os, "charon-checkpoint", 1);
  Os << "\norder lifo\n";
  Os << "network " << Cp.NetworkFingerprint << " property "
     << Cp.PropertyDigest << " config " << Cp.ConfigDigest << "\n";
  Os << "stats";
  writeStatsCounters(Os, Cp.Stats);
  Os << " " << Cp.Stats.Seconds << "\n";
  size_t Dim = Cp.Open.empty() ? 0 : Cp.Open.front().Region.dim();
  Os << "dim " << Dim << "\n";
  Os << "open " << Cp.Open.size() << "\n";
  for (const CheckpointNode &N : Cp.Open) {
    Os << "node ";
    writePath(Os, N.Path);
    Os << " " << N.Priority << "\n";
    writeBox(Os, N.Region);
    Os << "warm " << N.Warm.size();
    writeValues(Os, N.Warm.data(), N.Warm.size());
    Os << "\n";
  }
  Os << "end\n";
}

std::string charon::serializeCheckpoint(const SearchCheckpoint &Cp) {
  std::ostringstream Os;
  saveCheckpoint(Cp, Os);
  return Os.str();
}

namespace {

std::optional<SearchCheckpoint> readCheckpoint(TextReader &R) {
  SearchCheckpoint Cp;
  std::string_view Order;
  size_t Dim = 0, Count = 0;
  if (!R.header("charon-checkpoint", 1) || !R.keyword("order") ||
      !R.token(Order) || (Order != "lifo" && Order != "best-first") ||
      !R.keyword("network") || !R.integer(Cp.NetworkFingerprint) ||
      !R.keyword("property") || !R.integer(Cp.PropertyDigest) ||
      !R.keyword("config") || !R.integer(Cp.ConfigDigest) ||
      !R.keyword("stats") || !readStatsCounters(R, Cp.Stats) ||
      !R.number(Cp.Stats.Seconds) || !R.keyword("dim") || !R.count(Dim) ||
      !R.keyword("open") || !R.count(Count) || (Count > 0 && Dim == 0))
    return std::nullopt;

  Cp.Open.reserve(Count);
  // Node paths identify frontier entries (they seed the path-derived RNG on
  // resume); a duplicate means a corrupted or hand-forged file, not a
  // frontier the engine could ever have saved.
  std::set<std::vector<uint8_t>> SeenPaths;
  for (size_t N = 0; N < Count; ++N) {
    CheckpointNode Node;
    size_t WarmSize = 0;
    if (!R.keyword("node") || !R.path(Node.Path) ||
        !SeenPaths.insert(Node.Path).second || !R.number(Node.Priority) ||
        !R.box(Dim, Node.Region) || !R.keyword("warm") ||
        !R.integer(WarmSize) || (WarmSize != 0 && WarmSize != Dim))
      return std::nullopt;
    Node.Warm = Vector(WarmSize);
    if (!R.numbers(Node.Warm.data(), WarmSize))
      return std::nullopt;
    Cp.Open.push_back(std::move(Node));
  }
  if (!R.keyword("end"))
    return std::nullopt;
  return Cp;
}

} // namespace

std::optional<SearchCheckpoint> charon::loadCheckpoint(std::istream &Is) {
  TextReader R(Is);
  return readCheckpoint(R);
}

std::optional<SearchCheckpoint>
charon::deserializeCheckpoint(const std::string &Text) {
  TextReader R(Text);
  return readCheckpoint(R);
}

bool charon::saveCheckpointFile(const SearchCheckpoint &Cp,
                                const std::string &Path) {
  return saveTextFile(Cp, Path, saveCheckpoint);
}

std::optional<SearchCheckpoint>
charon::loadCheckpointFile(const std::string &Path) {
  return loadTextFile(Path, loadCheckpoint);
}
