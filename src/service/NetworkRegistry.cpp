//===- NetworkRegistry.cpp - Shared network store with dedup ------------------===//

#include "service/NetworkRegistry.h"

#include "core/Digest.h"
#include "nn/Io.h"
#include "onnx/OnnxImport.h"
#include <cassert>

using namespace charon;

NetworkId NetworkRegistry::add(Network Net) {
  // A registered network is shared by every service worker, so its lazy
  // structures are built here, before any worker can read them.
  Net.warmCaches();
  uint64_t Fp = fingerprintNetwork(Net);
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = ByFingerprint.find(Fp);
  if (It != ByFingerprint.end())
    return It->second;
  NetworkId Id = static_cast<NetworkId>(Entries.size());
  Entries.push_back({std::make_unique<Network>(std::move(Net)), Fp});
  ByFingerprint.emplace(Fp, Id);
  return Id;
}

std::optional<NetworkId>
NetworkRegistry::addFromFile(const std::string &Path) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = ByPath.find(Path);
    if (It != ByPath.end())
      return It->second;
  }
  // ONNX models register through the importer; the fingerprint is taken
  // over the lowered network, so a model and its exported .net twin dedupe
  // to the same entry.
  std::optional<Network> Net = onnx::isOnnxPath(Path)
                                   ? onnx::importModelFile(Path).Net
                                   : loadNetworkFile(Path);
  if (!Net)
    return std::nullopt;
  NetworkId Id = add(std::move(*Net));
  std::lock_guard<std::mutex> Lock(Mutex);
  ByPath.emplace(Path, Id);
  return Id;
}

const Network &NetworkRegistry::network(NetworkId Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  assert(Id < Entries.size() && "unknown network id");
  return *Entries[Id].Net;
}

uint64_t NetworkRegistry::fingerprint(NetworkId Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  assert(Id < Entries.size() && "unknown network id");
  return Entries[Id].Fingerprint;
}

size_t NetworkRegistry::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}
