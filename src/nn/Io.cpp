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
#include "support/TextFormat.h"

using namespace charon;

namespace {

template <typename PoolLayer>
void savePool(const char *Kind, const PoolLayer &P, std::ostream &Os) {
  const TensorShape &In = P.inputShape();
  Os << Kind << " " << In.Channels << " " << In.Height << " " << In.Width
     << " " << P.poolHeight() << " " << P.poolWidth() << " " << P.stride()
     << "\n";
}

void saveLayer(const Layer &L, std::ostream &Os) {
  switch (L.kind()) {
  case LayerKind::Dense: {
    const auto &D = static_cast<const DenseLayer &>(L);
    Os << "dense " << D.inputSize() << " " << D.outputSize() << "\n";
    const Matrix &W = D.weights();
    for (size_t R = 0; R < W.rows(); ++R)
      writeRow(Os, W.row(R), W.cols());
    writeRow(Os, D.bias().data(), D.bias().size());
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
    writeRow(Os, C.bias().data(), C.bias().size());
    break;
  }
  case LayerKind::MaxPool2D:
    savePool("maxpool", static_cast<const MaxPool2DLayer &>(L), Os);
    break;
  case LayerKind::AvgPool2D:
    savePool("avgpool", static_cast<const AvgPool2DLayer &>(L), Os);
    break;
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

std::optional<Network> loadLayers(TextReader &R);

/// Parses one layer. Each count must fit in the bytes left, so a damaged
/// count is refused before it sizes an allocation.
std::unique_ptr<Layer> loadLayer(TextReader &R) {
  std::string_view Tok;
  if (!R.token(Tok))
    return nullptr;
  const std::string Kind(Tok); // Tok changes with the next read.
  if (Kind == "dense") {
    size_t In = 0, Out = 0;
    if (!R.integer(In) || !R.integer(Out) || !R.fits(Out, In, Out))
      return nullptr;
    Matrix W(Out, In);
    Vector B(Out);
    for (size_t Row = 0; Row < Out; ++Row)
      if (!R.numbers(W.row(Row), In))
        return nullptr;
    if (!R.numbers(B.data(), Out))
      return nullptr;
    return std::make_unique<DenseLayer>(std::move(W), std::move(B));
  }
  size_t N = 0;
  if (Kind == "relu")
    return R.integer(N) ? std::make_unique<ReluLayer>(N) : nullptr;
  if (Kind == "sigmoid")
    return R.integer(N) ? std::make_unique<SigmoidLayer>(N) : nullptr;
  if (Kind == "tanh")
    return R.integer(N) ? std::make_unique<TanhLayer>(N) : nullptr;
  if (Kind == "flatten")
    return R.integer(N) ? std::make_unique<FlattenLayer>(N) : nullptr;
  if (Kind == "conv") {
    TensorShape In;
    int OutC = 0, KH = 0, KW = 0, S = 0, P = 0;
    if (!R.integer(In.Channels) || !R.integer(In.Height) ||
        !R.integer(In.Width) || !R.integer(OutC) || !R.integer(KH) ||
        !R.integer(KW) || !R.integer(S) || !R.integer(P))
      return nullptr;
    // The shape must be buildable (windowShapeFits), and the kernel and
    // bias values must fit in the bytes left.
    if (!windowShapeFits(WindowKind::Conv, In, OutC, KH, KW, S, P) ||
        !R.fits(uint64_t(OutC) * uint64_t(In.Channels),
                uint64_t(KH) * uint64_t(KW), uint64_t(OutC)))
      return nullptr;
    auto C = std::make_unique<Conv2DLayer>(In, OutC, KH, KW, S, P);
    for (int Oc = 0; Oc < OutC; ++Oc)
      for (int Ic = 0; Ic < In.Channels; ++Ic)
        for (int Ky = 0; Ky < KH; ++Ky)
          for (int Kx = 0; Kx < KW; ++Kx)
            if (!R.number(C->kernelAt(Oc, Ic, Ky, Kx)))
              return nullptr;
    if (!R.numbers(C->bias().data(), C->bias().size()))
      return nullptr;
    return C;
  }
  if (Kind == "maxpool" || Kind == "avgpool") {
    TensorShape In;
    int PH = 0, PW = 0, S = 0;
    if (!R.integer(In.Channels) || !R.integer(In.Height) ||
        !R.integer(In.Width) || !R.integer(PH) || !R.integer(PW) ||
        !R.integer(S))
      return nullptr;
    const WindowKind Window =
        Kind == "maxpool" ? WindowKind::MaxPool : WindowKind::AvgPool;
    if (!windowShapeFits(Window, In, In.Channels, PH, PW, S, /*Pad=*/0))
      return nullptr;
    if (Window == WindowKind::MaxPool)
      return std::make_unique<MaxPool2DLayer>(In, PH, PW, S);
    return std::make_unique<AvgPool2DLayer>(In, PH, PW, S);
  }
  if (Kind == "residual") {
    std::optional<Network> Body = loadLayers(R);
    if (!Body || Body->inputSize() != Body->outputSize())
      return nullptr; // Identity skip needs matching sizes.
    for (size_t I = 0, E = Body->numLayers(); I < E; ++I) {
      const Layer &L = Body->layer(I);
      if (!L.affineForm() && !L.activationKind() && !L.isIdentity())
        return nullptr; // Body restricted to analyzable layer shapes.
    }
    return std::make_unique<ResidualLayer>(std::move(*Body));
  }
  return nullptr;
}

/// Parses `<count>` and that many layers, each taking the previous one's
/// output. A network needs at least one layer.
std::optional<Network> loadLayers(TextReader &R) {
  size_t NumLayers = 0;
  if (!R.count(NumLayers) || NumLayers == 0)
    return std::nullopt;
  Network Net;
  for (size_t I = 0; I < NumLayers; ++I) {
    std::unique_ptr<Layer> L = loadLayer(R);
    if (!L || (I > 0 && L->inputSize() != Net.outputSize()))
      return std::nullopt;
    Net.addLayer(std::move(L));
  }
  return Net;
}

} // namespace

void charon::saveNetwork(const Network &Net, std::ostream &Os) {
  writeHeader(Os, "charon-network", 1);
  Os << " " << Net.numLayers() << "\n";
  for (size_t I = 0, E = Net.numLayers(); I < E; ++I)
    saveLayer(Net.layer(I), Os);
}

std::optional<Network> charon::loadNetwork(std::istream &Is) {
  TextReader R(Is);
  if (!R.header("charon-network", 1))
    return std::nullopt;
  return loadLayers(R);
}

bool charon::saveNetworkFile(const Network &Net, const std::string &Path) {
  return saveTextFile(Net, Path, saveNetwork);
}

std::optional<Network> charon::loadNetworkFile(const std::string &Path) {
  return loadTextFile(Path, loadNetwork);
}
