//===- Checkpoint.cpp - Resumable proof-search checkpoints --------------------===//

#include "search/Checkpoint.h"

#include "support/TextBounds.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <set>
#include <sstream>

using namespace charon;

void charon::saveCheckpoint(const SearchCheckpoint &Cp, std::ostream &Os) {
  Os << std::setprecision(17);
  Os << "charon-checkpoint 1\n";
  Os << "order " << toString(Cp.Order) << "\n";
  Os << "network " << Cp.NetworkFingerprint << " property "
     << Cp.PropertyDigest << " config " << Cp.ConfigDigest << "\n";
  const VerifyStats &S = Cp.Stats;
  Os << "stats " << S.PgdCalls << " " << S.AnalyzeCalls << " " << S.Splits
     << " " << S.MaxDepth << " " << S.IntervalChoices << " "
     << S.ZonotopeChoices << " " << S.DisjunctSum << " " << S.NodesExpanded
     << " " << S.Seconds << "\n";
  size_t Dim = Cp.Open.empty() ? 0 : Cp.Open.front().Region.dim();
  Os << "dim " << Dim << "\n";
  Os << "open " << Cp.Open.size() << "\n";
  for (const CheckpointNode &N : Cp.Open) {
    Os << "node ";
    if (N.Path.empty())
      Os << "-";
    else
      for (uint8_t Bit : N.Path)
        Os << (Bit ? '1' : '0');
    Os << " " << N.Priority << "\n";
    Os << "lower";
    for (size_t I = 0; I < N.Region.dim(); ++I)
      Os << " " << N.Region.lower()[I];
    Os << "\nupper";
    for (size_t I = 0; I < N.Region.dim(); ++I)
      Os << " " << N.Region.upper()[I];
    Os << "\nwarm " << N.Warm.size();
    for (size_t I = 0; I < N.Warm.size(); ++I)
      Os << " " << N.Warm[I];
    Os << "\n";
  }
  Os << "end\n";
}

std::string charon::serializeCheckpoint(const SearchCheckpoint &Cp) {
  std::ostringstream Os;
  saveCheckpoint(Cp, Os);
  return Os.str();
}

std::optional<SearchCheckpoint> charon::loadCheckpoint(std::istream &Is) {
  return deserializeCheckpoint(std::string(std::istreambuf_iterator<char>(Is),
                                           std::istreambuf_iterator<char>()));
}

std::optional<SearchCheckpoint>
charon::deserializeCheckpoint(const std::string &Text) {
  std::istringstream Is(Text);
  // Each count must fit in the unread text (see valuesFit), so a damaged
  // count is rejected before it sizes an allocation.
  std::string Magic, Key, Token;
  int Version = 0;
  if (!(Is >> Magic >> Version) || Magic != "charon-checkpoint" ||
      Version != 1)
    return std::nullopt;

  SearchCheckpoint Cp;
  if (!(Is >> Key >> Token) || Key != "order")
    return std::nullopt;
  if (Token == "lifo")
    Cp.Order = FrontierOrder::Lifo;
  else if (Token == "best-first")
    Cp.Order = FrontierOrder::BestFirst;
  else
    return std::nullopt;

  if (!(Is >> Key >> Cp.NetworkFingerprint) || Key != "network")
    return std::nullopt;
  if (!(Is >> Key >> Cp.PropertyDigest) || Key != "property")
    return std::nullopt;
  if (!(Is >> Key >> Cp.ConfigDigest) || Key != "config")
    return std::nullopt;

  VerifyStats &S = Cp.Stats;
  if (!(Is >> Key >> S.PgdCalls >> S.AnalyzeCalls >> S.Splits >> S.MaxDepth >>
        S.IntervalChoices >> S.ZonotopeChoices >> S.DisjunctSum >>
        S.NodesExpanded >> S.Seconds) ||
      Key != "stats")
    return std::nullopt;

  size_t Dim = 0;
  if (!(Is >> Key >> Dim) || Key != "dim" || !valuesFit(Is, Dim))
    return std::nullopt;
  size_t Count = 0;
  if (!(Is >> Key >> Count) || Key != "open" || !valuesFit(Is, Count))
    return std::nullopt;
  if (Count > 0 && Dim == 0)
    return std::nullopt;

  Cp.Open.reserve(Count);
  // Node paths identify frontier entries (they seed the path-derived RNG on
  // resume); a duplicate means a corrupted or hand-forged file, not a
  // frontier the engine could ever have saved.
  std::set<std::vector<uint8_t>> SeenPaths;
  for (size_t N = 0; N < Count; ++N) {
    CheckpointNode Node;
    if (!(Is >> Key >> Token) || Key != "node")
      return std::nullopt;
    if (Token != "-") {
      Node.Path.reserve(Token.size());
      for (char C : Token) {
        if (C != '0' && C != '1')
          return std::nullopt;
        Node.Path.push_back(C == '1' ? 1 : 0);
      }
    }
    if (!SeenPaths.insert(Node.Path).second)
      return std::nullopt;
    if (!(Is >> Node.Priority))
      return std::nullopt;

    Vector Lo(Dim), Hi(Dim);
    if (!(Is >> Key) || Key != "lower")
      return std::nullopt;
    for (size_t I = 0; I < Dim; ++I)
      if (!(Is >> Lo[I]))
        return std::nullopt;
    if (!(Is >> Key) || Key != "upper")
      return std::nullopt;
    for (size_t I = 0; I < Dim; ++I)
      if (!(Is >> Hi[I]))
        return std::nullopt;
    for (size_t I = 0; I < Dim; ++I)
      if (Lo[I] > Hi[I])
        return std::nullopt;
    Node.Region = Box(std::move(Lo), std::move(Hi));

    size_t WarmSize = 0;
    if (!(Is >> Key >> WarmSize) || Key != "warm")
      return std::nullopt;
    if (WarmSize != 0 && WarmSize != Dim)
      return std::nullopt;
    Node.Warm = Vector(WarmSize);
    for (size_t I = 0; I < WarmSize; ++I)
      if (!(Is >> Node.Warm[I]))
        return std::nullopt;
    Cp.Open.push_back(std::move(Node));
  }
  if (!(Is >> Key) || Key != "end")
    return std::nullopt;
  return Cp;
}

bool charon::saveCheckpointFile(const SearchCheckpoint &Cp,
                                const std::string &Path) {
  std::ofstream Os(Path);
  if (!Os)
    return false;
  saveCheckpoint(Cp, Os);
  return static_cast<bool>(Os);
}

std::optional<SearchCheckpoint>
charon::loadCheckpointFile(const std::string &Path) {
  std::ifstream Is(Path);
  if (!Is)
    return std::nullopt;
  return loadCheckpoint(Is);
}

bool charon::dfsPathPrecedes(const std::vector<uint8_t> &A,
                             const std::vector<uint8_t> &B) {
  size_t N = A.size() < B.size() ? A.size() : B.size();
  for (size_t I = 0; I < N; ++I)
    if (A[I] != B[I])
      return A[I] < B[I];
  // Shared prefix: the ancestor (shorter path) is expanded first.
  return A.size() < B.size();
}

std::vector<SearchCheckpoint> charon::splitCheckpoint(const SearchCheckpoint &Cp,
                                                      size_t K) {
  if (K == 0)
    K = 1;
  std::vector<SearchCheckpoint> Shards(K);
  size_t N = Cp.Open.size();
  size_t Base = N / K, Rem = N % K;
  size_t At = 0;
  for (size_t I = 0; I < K; ++I) {
    SearchCheckpoint &S = Shards[I];
    S.Order = Cp.Order;
    S.NetworkFingerprint = Cp.NetworkFingerprint;
    S.PropertyDigest = Cp.PropertyDigest;
    S.ConfigDigest = Cp.ConfigDigest;
    if (I == 0)
      S.Stats = Cp.Stats;
    size_t Take = Base + (I < Rem ? 1 : 0);
    S.Open.assign(Cp.Open.begin() + At, Cp.Open.begin() + At + Take);
    At += Take;
  }
  return Shards;
}

SearchCheckpoint
charon::mergeCheckpoints(const std::vector<SearchCheckpoint> &Shards) {
  SearchCheckpoint Out;
  if (Shards.empty())
    return Out;
  Out.Order = Shards.front().Order;
  Out.NetworkFingerprint = Shards.front().NetworkFingerprint;
  Out.PropertyDigest = Shards.front().PropertyDigest;
  Out.ConfigDigest = Shards.front().ConfigDigest;
  size_t Total = 0;
  for (const SearchCheckpoint &S : Shards)
    Total += S.Open.size();
  Out.Open.reserve(Total);
  for (const SearchCheckpoint &S : Shards) {
    Out.Stats += S.Stats;
    Out.Open.insert(Out.Open.end(), S.Open.begin(), S.Open.end());
  }
  std::sort(Out.Open.begin(), Out.Open.end(),
            [](const CheckpointNode &A, const CheckpointNode &B) {
              return dfsPathPrecedes(A.Path, B.Path);
            });
  return Out;
}
