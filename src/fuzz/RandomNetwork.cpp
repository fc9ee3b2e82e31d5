//===- RandomNetwork.cpp - Seeded random networks and properties --------------===//

#include "fuzz/RandomNetwork.h"

#include "nn/Activation.h"
#include "nn/AvgPool2D.h"
#include "nn/Conv2D.h"
#include "nn/Dense.h"
#include "nn/Flatten.h"
#include "nn/MaxPool2D.h"
#include "nn/Relu.h"
#include "nn/Residual.h"
#include "support/Random.h"
#include "support/TextFormat.h"

#include <istream>
#include <ostream>

using namespace charon;

namespace {

std::unique_ptr<Layer> makeActivation(ActivationKind K, size_t N) {
  switch (K) {
  case ActivationKind::Relu:
    return std::make_unique<ReluLayer>(N);
  case ActivationKind::Sigmoid:
    return std::make_unique<SigmoidLayer>(N);
  case ActivationKind::Tanh:
    return std::make_unique<TanhLayer>(N);
  }
  return std::make_unique<ReluLayer>(N);
}

const char *activationToken(ActivationKind K) {
  switch (K) {
  case ActivationKind::Relu:
    return "relu";
  case ActivationKind::Sigmoid:
    return "sigmoid";
  case ActivationKind::Tanh:
    return "tanh";
  }
  return "relu";
}

bool parseActivationToken(std::string_view Tok, ActivationKind &K) {
  if (Tok == "relu")
    K = ActivationKind::Relu;
  else if (Tok == "sigmoid")
    K = ActivationKind::Sigmoid;
  else if (Tok == "tanh")
    K = ActivationKind::Tanh;
  else
    return false;
  return true;
}

} // namespace

bool NetworkSpec::operator==(const NetworkSpec &O) const {
  if (Arch != O.Arch || WeightSeed != O.WeightSeed || Act != O.Act)
    return false;
  if (Arch == FuzzArch::Mlp)
    return Inputs == O.Inputs && Outputs == O.Outputs && Hidden == O.Hidden &&
           WithResidual == O.WithResidual;
  return Channels == O.Channels && Height == O.Height && Width == O.Width &&
         ConvChannels == O.ConvChannels && Kernel == O.Kernel &&
         Stride == O.Stride && Pad == O.Pad && WithPool == O.WithPool &&
         Outputs == O.Outputs && AvgPool == O.AvgPool &&
         WithFlatten == O.WithFlatten;
}

NetworkSpec charon::generateNetworkSpec(Rng &R,
                                        const GeneratorConfig &Config) {
  NetworkSpec Spec;
  Spec.WeightSeed = R.next();
  Spec.Outputs =
      Config.MinOutputs + R.uniformInt(Config.MaxOutputs - Config.MinOutputs + 1);

  if (R.uniform() < Config.ConvProbability) {
    Spec.Arch = FuzzArch::Conv;
    // Small tensors keep even powerset/polyhedra analyses fast while still
    // exercising the lowered-affine conv transformer and pooling windows.
    Spec.Channels = 1 + static_cast<int>(R.uniformInt(2));
    Spec.Height = 4 + static_cast<int>(R.uniformInt(3));
    Spec.Width = 4 + static_cast<int>(R.uniformInt(3));
    Spec.ConvChannels = 1 + static_cast<int>(R.uniformInt(3));
    Spec.Kernel = 2 + static_cast<int>(R.uniformInt(2));
    Spec.Stride = 1;
    Spec.Pad = static_cast<int>(R.uniformInt(2));
    Spec.WithPool = R.uniform() < Config.PoolProbability;
    // Layer-zoo draws come after every pre-zoo draw, so the shape fields
    // above replay identically from pre-zoo campaign seeds.
    if (R.uniform() < Config.SmoothActProbability)
      Spec.Act = R.uniform() < 0.5 ? ActivationKind::Sigmoid
                                   : ActivationKind::Tanh;
    Spec.AvgPool = Spec.WithPool && R.uniform() < Config.AvgPoolProbability;
    Spec.WithFlatten = R.uniform() < Config.FlattenProbability;
    return Spec;
  }

  Spec.Arch = FuzzArch::Mlp;
  Spec.Inputs =
      Config.MinInputs + R.uniformInt(Config.MaxInputs - Config.MinInputs + 1);
  int Layers = Config.MinHiddenLayers +
               static_cast<int>(R.uniformInt(
                   Config.MaxHiddenLayers - Config.MinHiddenLayers + 1));
  for (int I = 0; I < Layers; ++I)
    Spec.Hidden.push_back(
        Config.MinWidth + R.uniformInt(Config.MaxWidth - Config.MinWidth + 1));
  // Layer-zoo draws last (see the conv branch).
  if (R.uniform() < Config.SmoothActProbability)
    Spec.Act =
        R.uniform() < 0.5 ? ActivationKind::Sigmoid : ActivationKind::Tanh;
  Spec.WithResidual =
      !Spec.Hidden.empty() && R.uniform() < Config.ResidualProbability;
  return Spec;
}

Network charon::buildNetwork(const NetworkSpec &Spec) {
  Rng R(Spec.WeightSeed);
  Network Net;

  if (Spec.Arch == FuzzArch::Mlp) {
    size_t Prev = Spec.Inputs;
    bool First = true;
    for (size_t H : Spec.Hidden) {
      auto D = std::make_unique<DenseLayer>(Prev, H);
      D->initHe(R);
      Net.addLayer(std::move(D));
      Net.addLayer(makeActivation(Spec.Act, H));
      if (First && Spec.WithResidual) {
        // A square identity-skip block right after the first hidden
        // activation: y = x + Act(Dense(x)).
        Network Body;
        auto RD = std::make_unique<DenseLayer>(H, H);
        RD->initHe(R);
        Body.addLayer(std::move(RD));
        Body.addLayer(makeActivation(Spec.Act, H));
        Net.addLayer(std::make_unique<ResidualLayer>(std::move(Body)));
      }
      First = false;
      Prev = H;
    }
    auto Out = std::make_unique<DenseLayer>(Prev, Spec.Outputs);
    Out->initHe(R);
    Net.addLayer(std::move(Out));
    Net.setName("fuzz-mlp");
    return Net;
  }

  TensorShape In{Spec.Channels, Spec.Height, Spec.Width};
  auto Conv = std::make_unique<Conv2DLayer>(In, Spec.ConvChannels, Spec.Kernel,
                                            Spec.Kernel, Spec.Stride, Spec.Pad);
  Conv->initHe(R);
  TensorShape Shape = Conv->outputShape();
  Net.addLayer(std::move(Conv));
  Net.addLayer(makeActivation(Spec.Act, Shape.size()));
  if (Spec.WithPool) {
    if (Spec.AvgPool) {
      auto Pool = std::make_unique<AvgPool2DLayer>(Shape, 2, 2, 2);
      Shape = Pool->outputShape();
      Net.addLayer(std::move(Pool));
    } else {
      auto Pool = std::make_unique<MaxPool2DLayer>(Shape, 2, 2, 2);
      Shape = Pool->outputShape();
      Net.addLayer(std::move(Pool));
    }
  }
  if (Spec.WithFlatten)
    Net.addLayer(std::make_unique<FlattenLayer>(Shape.size()));
  auto Head = std::make_unique<DenseLayer>(Shape.size(), Spec.Outputs);
  Head->initHe(R);
  Net.addLayer(std::move(Head));
  Net.setName("fuzz-conv");
  return Net;
}

size_t charon::specInputSize(const NetworkSpec &Spec) {
  if (Spec.Arch == FuzzArch::Mlp)
    return Spec.Inputs;
  return static_cast<size_t>(Spec.Channels) * Spec.Height * Spec.Width;
}

size_t charon::specOutputSize(const NetworkSpec &Spec) { return Spec.Outputs; }

RobustnessProperty charon::generateProperty(Rng &R, const Network &Net,
                                            const GeneratorConfig &Config) {
  Vector Center(Net.inputSize());
  for (size_t I = 0; I < Center.size(); ++I)
    Center[I] = R.uniform();
  double HalfWidth = R.uniform(Config.MinHalfWidth, Config.MaxHalfWidth);

  RobustnessProperty Prop;
  Prop.Region = Box::linfBall(Center, HalfWidth, 0.0, 1.0);
  if (R.uniform() < Config.CenterClassProbability)
    Prop.TargetClass = Net.classify(Prop.Region.center());
  else
    Prop.TargetClass = R.uniformInt(Net.outputSize());
  Prop.Name = "fuzz";
  return Prop;
}

void charon::writeNetworkSpec(const NetworkSpec &Spec, std::ostream &Os) {
  if (Spec.Arch == FuzzArch::Mlp) {
    Os << "mlp " << Spec.WeightSeed << " " << Spec.Inputs << " "
       << Spec.Outputs << " " << Spec.Hidden.size();
    for (size_t H : Spec.Hidden)
      Os << " " << H;
    Os << " zoo " << activationToken(Spec.Act) << " "
       << (Spec.WithResidual ? 1 : 0) << "\n";
    return;
  }
  Os << "conv " << Spec.WeightSeed << " " << Spec.Channels << " "
     << Spec.Height << " " << Spec.Width << " " << Spec.ConvChannels << " "
     << Spec.Kernel << " " << Spec.Stride << " " << Spec.Pad << " "
     << (Spec.WithPool ? 1 : 0) << " " << Spec.Outputs << " zoo "
     << activationToken(Spec.Act) << " " << (Spec.AvgPool ? 1 : 0) << " "
     << (Spec.WithFlatten ? 1 : 0) << "\n";
}

namespace {

/// Consumes the optional " zoo ..." spec trailer. Without it (the next
/// token does not start with 'z'), pre-zoo corpus files keep parsing and
/// the fields keep their pre-zoo defaults.
bool readZooTrailer(TextReader &R, NetworkSpec &Spec, bool ConvFields) {
  if (!R.peek('z'))
    return true;
  std::string_view Act;
  int A = 0, B = 0;
  if (!R.keyword("zoo") || !R.token(Act) ||
      !parseActivationToken(Act, Spec.Act))
    return false;
  if (ConvFields) {
    if (!R.integer(A) || !R.integer(B))
      return false;
    Spec.AvgPool = A != 0;
    Spec.WithFlatten = B != 0;
    return !Spec.AvgPool || Spec.WithPool;
  }
  if (!R.integer(A))
    return false;
  Spec.WithResidual = A != 0;
  return !Spec.WithResidual || !Spec.Hidden.empty();
}

} // namespace

bool charon::readNetworkSpec(TextReader &R, NetworkSpec &Spec) {
  std::string_view Kind;
  if (!R.token(Kind))
    return false;
  Spec = NetworkSpec();
  if (Kind == "mlp") {
    Spec.Arch = FuzzArch::Mlp;
    size_t NumHidden = 0;
    if (!R.integer(Spec.WeightSeed) || !R.integer(Spec.Inputs) ||
        !R.integer(Spec.Outputs) || !R.integer(NumHidden) ||
        Spec.Inputs == 0 || Spec.Outputs == 0 || NumHidden > 64)
      return false;
    Spec.Hidden.resize(NumHidden);
    for (size_t &H : Spec.Hidden)
      if (!R.integer(H) || H == 0)
        return false;
    return readZooTrailer(R, Spec, /*ConvFields=*/false);
  }
  if (Kind != "conv")
    return false;
  Spec.Arch = FuzzArch::Conv;
  int Pool = 0;
  if (!R.integer(Spec.WeightSeed) || !R.integer(Spec.Channels) ||
      !R.integer(Spec.Height) || !R.integer(Spec.Width) ||
      !R.integer(Spec.ConvChannels) || !R.integer(Spec.Kernel) ||
      !R.integer(Spec.Stride) || !R.integer(Spec.Pad) || !R.integer(Pool) ||
      !R.integer(Spec.Outputs))
    return false;
  if (Spec.Channels <= 0 || Spec.Height <= 0 || Spec.Width <= 0 ||
      Spec.ConvChannels <= 0 || Spec.Kernel <= 0 || Spec.Stride <= 0 ||
      Spec.Pad < 0 || Spec.Outputs == 0)
    return false;
  // The conv output must be non-degenerate (and poolable when requested).
  int OutH = (Spec.Height + 2 * Spec.Pad - Spec.Kernel) / Spec.Stride + 1;
  int OutW = (Spec.Width + 2 * Spec.Pad - Spec.Kernel) / Spec.Stride + 1;
  if (OutH < 1 || OutW < 1)
    return false;
  Spec.WithPool = Pool != 0;
  if (Spec.WithPool && (OutH < 2 || OutW < 2))
    return false;
  return readZooTrailer(R, Spec, /*ConvFields=*/true);
}

bool charon::readNetworkSpec(std::istream &Is, NetworkSpec &Spec) {
  TextReader R(Is);
  return readNetworkSpec(R, Spec);
}
