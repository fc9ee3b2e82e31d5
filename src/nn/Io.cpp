//===- Io.cpp - Network (de)serialization -----------------------------------===//

#include "nn/Io.h"

#include "nn/Activation.h"
#include "nn/AvgPool2D.h"
#include "nn/Conv2D.h"
#include "nn/Dense.h"
#include "nn/Flatten.h"
#include "nn/MaxPool2D.h"
#include "nn/Relu.h"
#include "nn/Residual.h"
#include "support/Check.h"
#include "support/TextBounds.h"

#include <fstream>
#include <iomanip>
#include <sstream>

using namespace charon;

namespace {

void saveLayer(const Layer &L, std::ostream &Os) {
  switch (L.kind()) {
  case LayerKind::Dense: {
    const auto &D = static_cast<const DenseLayer &>(L);
    Os << "dense " << D.inputSize() << " " << D.outputSize() << "\n";
    const Matrix &W = D.weights();
    for (size_t R = 0; R < W.rows(); ++R) {
      for (size_t C = 0; C < W.cols(); ++C)
        Os << W(R, C) << " ";
      Os << "\n";
    }
    for (size_t R = 0; R < D.bias().size(); ++R)
      Os << D.bias()[R] << " ";
    Os << "\n";
    break;
  }
  case LayerKind::Relu:
    Os << "relu " << L.inputSize() << "\n";
    break;
  case LayerKind::Sigmoid:
    Os << "sigmoid " << L.inputSize() << "\n";
    break;
  case LayerKind::Tanh:
    Os << "tanh " << L.inputSize() << "\n";
    break;
  case LayerKind::Conv2D: {
    const auto &C = static_cast<const Conv2DLayer &>(L);
    const TensorShape &In = C.inputShape();
    Os << "conv " << In.Channels << " " << In.Height << " " << In.Width << " "
       << C.outputShape().Channels << " " << C.kernelHeight() << " "
       << C.kernelWidth() << " " << C.stride() << " " << C.padding() << "\n";
    for (int Oc = 0; Oc < C.outputShape().Channels; ++Oc)
      for (int Ic = 0; Ic < In.Channels; ++Ic)
        for (int Ky = 0; Ky < C.kernelHeight(); ++Ky)
          for (int Kx = 0; Kx < C.kernelWidth(); ++Kx)
            Os << C.kernelAt(Oc, Ic, Ky, Kx) << " ";
    Os << "\n";
    for (size_t R = 0; R < C.bias().size(); ++R)
      Os << C.bias()[R] << " ";
    Os << "\n";
    break;
  }
  case LayerKind::MaxPool2D: {
    const auto &M = static_cast<const MaxPool2DLayer &>(L);
    const TensorShape &In = M.inputShape();
    Os << "maxpool " << In.Channels << " " << In.Height << " " << In.Width
       << " " << M.poolHeight() << " " << M.poolWidth() << " " << M.stride()
       << "\n";
    break;
  }
  case LayerKind::AvgPool2D: {
    const auto &A = static_cast<const AvgPool2DLayer &>(L);
    const TensorShape &In = A.inputShape();
    Os << "avgpool " << In.Channels << " " << In.Height << " " << In.Width
       << " " << A.poolHeight() << " " << A.poolWidth() << " " << A.stride()
       << "\n";
    break;
  }
  case LayerKind::Flatten:
    Os << "flatten " << L.inputSize() << "\n";
    break;
  case LayerKind::Residual: {
    const Network *Body = L.residualBody();
    Os << "residual " << Body->numLayers() << "\n";
    for (size_t I = 0, E = Body->numLayers(); I < E; ++I)
      saveLayer(Body->layer(I), Os);
    break;
  }
  }
}

/// Parses one layer. Each count must fit in the bytes left (see
/// valuesFit), so a damaged count is refused before it sizes an allocation.
std::unique_ptr<Layer> loadLayer(std::istream &Is) {
  std::string Kind;
  if (!(Is >> Kind))
    return nullptr;
  if (Kind == "dense") {
    size_t In = 0, Out = 0;
    if (!(Is >> In >> Out) || !valuesFit(Is, Out, In, Out))
      return nullptr;
    Matrix W(Out, In);
    for (size_t R = 0; R < Out; ++R)
      for (size_t C = 0; C < In; ++C)
        if (!(Is >> W(R, C)))
          return nullptr;
    Vector B(Out);
    for (size_t R = 0; R < Out; ++R)
      if (!(Is >> B[R]))
        return nullptr;
    return std::make_unique<DenseLayer>(std::move(W), std::move(B));
  }
  if (Kind == "relu") {
    size_t N = 0;
    if (!(Is >> N))
      return nullptr;
    return std::make_unique<ReluLayer>(N);
  }
  if (Kind == "sigmoid") {
    size_t N = 0;
    if (!(Is >> N))
      return nullptr;
    return std::make_unique<SigmoidLayer>(N);
  }
  if (Kind == "tanh") {
    size_t N = 0;
    if (!(Is >> N))
      return nullptr;
    return std::make_unique<TanhLayer>(N);
  }
  if (Kind == "conv") {
    TensorShape In;
    int OutC = 0, KH = 0, KW = 0, S = 0, P = 0;
    if (!(Is >> In.Channels >> In.Height >> In.Width >> OutC >> KH >> KW >>
          S >> P))
      return nullptr;
    // The shape must be buildable (windowShapeFits), and the kernel and
    // bias values must fit in the bytes left.
    if (!windowShapeFits(WindowKind::Conv, In, OutC, KH, KW, S, P) ||
        !valuesFit(Is, uint64_t(OutC) * uint64_t(In.Channels),
                   uint64_t(KH) * uint64_t(KW), uint64_t(OutC)))
      return nullptr;
    auto C = std::make_unique<Conv2DLayer>(In, OutC, KH, KW, S, P);
    for (int Oc = 0; Oc < OutC; ++Oc)
      for (int Ic = 0; Ic < In.Channels; ++Ic)
        for (int Ky = 0; Ky < KH; ++Ky)
          for (int Kx = 0; Kx < KW; ++Kx)
            if (!(Is >> C->kernelAt(Oc, Ic, Ky, Kx)))
              return nullptr;
    for (size_t R = 0; R < C->bias().size(); ++R)
      if (!(Is >> C->bias()[R]))
        return nullptr;
    return C;
  }
  if (Kind == "maxpool" || Kind == "avgpool") {
    TensorShape In;
    int PH = 0, PW = 0, S = 0;
    if (!(Is >> In.Channels >> In.Height >> In.Width >> PH >> PW >> S))
      return nullptr;
    const WindowKind Window =
        Kind == "maxpool" ? WindowKind::MaxPool : WindowKind::AvgPool;
    if (!windowShapeFits(Window, In, In.Channels, PH, PW, S, /*Pad=*/0))
      return nullptr;
    if (Window == WindowKind::MaxPool)
      return std::make_unique<MaxPool2DLayer>(In, PH, PW, S);
    return std::make_unique<AvgPool2DLayer>(In, PH, PW, S);
  }
  if (Kind == "flatten") {
    size_t N = 0;
    if (!(Is >> N))
      return nullptr;
    return std::make_unique<FlattenLayer>(N);
  }
  if (Kind == "residual") {
    size_t BodyLayers = 0;
    if (!(Is >> BodyLayers) || BodyLayers == 0 || !valuesFit(Is, BodyLayers))
      return nullptr;
    Network Body;
    for (size_t I = 0; I < BodyLayers; ++I) {
      std::unique_ptr<Layer> L = loadLayer(Is);
      if (!L)
        return nullptr;
      if (I > 0 && L->inputSize() != Body.outputSize())
        return nullptr;
      Body.addLayer(std::move(L));
    }
    if (Body.inputSize() != Body.outputSize())
      return nullptr; // Identity skip needs matching sizes.
    for (size_t I = 0, E = Body.numLayers(); I < E; ++I) {
      const Layer &L = Body.layer(I);
      if (!L.affineForm() && !L.activationKind() && !L.isIdentity())
        return nullptr; // Body restricted to analyzable layer shapes.
    }
    return std::make_unique<ResidualLayer>(std::move(Body));
  }
  return nullptr;
}

std::optional<Network> parseNetwork(std::istream &Is) {
  std::string Magic;
  int Version = 0;
  size_t NumLayers = 0;
  if (!(Is >> Magic >> Version >> NumLayers) || Magic != "charon-network" ||
      Version != 1 || NumLayers == 0 || !valuesFit(Is, NumLayers))
    return std::nullopt;

  Network Net;
  for (size_t I = 0; I < NumLayers; ++I) {
    std::unique_ptr<Layer> L = loadLayer(Is);
    if (!L)
      return std::nullopt;
    if (I > 0 && L->inputSize() != Net.outputSize())
      return std::nullopt;
    Net.addLayer(std::move(L));
  }
  return Net;
}

} // namespace

void charon::saveNetwork(const Network &Net, std::ostream &Os) {
  Os << "charon-network 1 " << Net.numLayers() << "\n";
  Os << std::setprecision(17);
  for (size_t I = 0, E = Net.numLayers(); I < E; ++I)
    saveLayer(Net.layer(I), Os);
}

std::optional<Network> charon::loadNetwork(std::istream &Is) {
  return parseMeasured(Is, parseNetwork);
}

bool charon::saveNetworkFile(const Network &Net, const std::string &Path) {
  std::ofstream Os(Path);
  if (!Os)
    return false;
  saveNetwork(Net, Os);
  return static_cast<bool>(Os);
}

std::optional<Network> charon::loadNetworkFile(const std::string &Path) {
  std::ifstream Is(Path);
  if (!Is)
    return std::nullopt;
  return loadNetwork(Is);
}
