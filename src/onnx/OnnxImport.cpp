//===- OnnxImport.cpp - Lower an ONNX graph to a charon Network ---------------===//

#include "onnx/OnnxImport.h"

#include "nn/Activation.h"
#include "nn/AvgPool2D.h"
#include "nn/Conv2D.h"
#include "nn/Dense.h"
#include "nn/Flatten.h"
#include "nn/MaxPool2D.h"
#include "nn/Relu.h"
#include "nn/Residual.h"
#include "onnx/OnnxProto.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

using namespace charon;
using namespace charon::onnx;

namespace {

/// Shape of the value currently flowing through the lowering: always a flat
/// vector of \c Flat elements, optionally with a spatial (channel-major
/// NCHW) interpretation that Conv/pool ops require.
struct ValueShape {
  size_t Flat = 0;
  std::optional<TensorShape> Spatial;
};

class Lowering {
public:
  explicit Lowering(const Graph &G) : G(G), Consumed(G.Nodes.size(), false) {}

  /// Runs the lowering; on failure \c Error holds the diagnostic.
  std::optional<Network> run();

  std::string Error;

private:
  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
    return false;
  }

  const TensorData *initOf(const std::string &Name) const {
    auto It = Init.find(Name);
    return It == Init.end() ? nullptr : It->second;
  }

  /// Indices of not-yet-consumed nodes reading \p Name.
  std::vector<size_t> consumersOf(const std::string &Name) const {
    std::vector<size_t> Out;
    for (size_t I = 0, E = G.Nodes.size(); I < E; ++I) {
      if (Consumed[I])
        continue;
      for (const std::string &In : G.Nodes[I].Inputs)
        if (In == Name) {
          Out.push_back(I);
          break;
        }
    }
    return Out;
  }

  /// Lowers the chain starting at value \p Cur until it produces \p Target.
  bool lowerChain(std::string Cur, const std::string &Target, ValueShape &VS,
                  std::vector<std::unique_ptr<Layer>> &Layers);

  /// Lowers a single node, appending layers and advancing \p VS.
  bool lowerNode(const Node &N, ValueShape &VS,
                 std::vector<std::unique_ptr<Layer>> &Layers);

  bool lowerResidual(const std::string &Cur, size_t AddIdx, size_t BodyStart,
                     ValueShape &VS,
                     std::vector<std::unique_ptr<Layer>> &Layers);

  bool lowerGemm(const Node &N, ValueShape &VS,
                 std::vector<std::unique_ptr<Layer>> &Layers);
  bool lowerMatMul(const Node &N, ValueShape &VS,
                   std::vector<std::unique_ptr<Layer>> &Layers);
  bool lowerAddBias(const Node &N, const std::string &DataInput,
                    ValueShape &VS,
                    std::vector<std::unique_ptr<Layer>> &Layers);
  bool lowerConv(const Node &N, ValueShape &VS,
                 std::vector<std::unique_ptr<Layer>> &Layers);
  bool lowerPool(const Node &N, ValueShape &VS,
                 std::vector<std::unique_ptr<Layer>> &Layers);
  bool lowerReshape(const Node &N, ValueShape &VS,
                    std::vector<std::unique_ptr<Layer>> &Layers);
  bool lowerBatchNorm(const Node &N, ValueShape &VS,
                      std::vector<std::unique_ptr<Layer>> &Layers);

  /// Applies the affine pointwise map y = A*x + C (per-element vectors) by
  /// folding into the last layer when it is Dense, or appending a diagonal
  /// DenseLayer otherwise.
  void applyPointwiseAffine(const std::vector<double> &A,
                            const std::vector<double> &C,
                            std::vector<std::unique_ptr<Layer>> &Layers);

  const Graph &G;
  std::map<std::string, const TensorData *> Init;
  std::vector<bool> Consumed;
};

// Attribute helpers -----------------------------------------------------------

int64_t attrInt(const Node &N, const char *Name, int64_t Default) {
  const Attribute *A = N.attr(Name);
  return A && A->HasI ? A->I : Default;
}

double attrFloat(const Node &N, const char *Name, double Default) {
  const Attribute *A = N.attr(Name);
  return A && A->HasF ? A->F : Default;
}

std::vector<int64_t> attrInts(const Node &N, const char *Name) {
  const Attribute *A = N.attr(Name);
  return A ? A->Ints : std::vector<int64_t>{};
}

bool allEqual(const std::vector<int64_t> &V, int64_t X) {
  for (int64_t E : V)
    if (E != X)
      return false;
  return true;
}

std::string describeDims(const std::vector<int64_t> &Dims) {
  std::ostringstream Os;
  Os << "[";
  for (size_t I = 0; I < Dims.size(); ++I)
    Os << (I ? "x" : "") << Dims[I];
  Os << "]";
  return Os.str();
}

/// Non-batch element count of an initializer used as a vector operand.
/// Accepts [N], [1,N], [C,1,1], [1,C,1,1] style shapes.
size_t vectorLength(const TensorData &T) { return T.Values.size(); }

} // namespace

// Chain walking ---------------------------------------------------------------

bool Lowering::lowerChain(std::string Cur, const std::string &Target,
                          ValueShape &VS,
                          std::vector<std::unique_ptr<Layer>> &Layers) {
  while (Cur != Target) {
    std::vector<size_t> Cons = consumersOf(Cur);
    if (Cons.empty())
      return fail("value '" + Cur +
                  "' has no consumer and is not the graph output");
    if (Cons.size() == 1) {
      const Node &N = G.Nodes[Cons[0]];
      Consumed[Cons[0]] = true;
      if (!lowerNode(N, VS, Layers))
        return false;
      if (N.Outputs.empty())
        return fail("node '" + N.OpType + "' has no output");
      Cur = N.Outputs[0];
      continue;
    }
    if (Cons.size() == 2) {
      // Residual fork: y = x + F(x). One consumer must be the joining Add
      // (both operands computed, one of them being x itself); the other
      // starts the body chain.
      size_t AddIdx = G.Nodes.size();
      for (size_t C : Cons) {
        const Node &N = G.Nodes[C];
        if (N.OpType != "Add" || N.Inputs.size() != 2)
          continue;
        const std::string &Other =
            N.Inputs[0] == Cur ? N.Inputs[1] : N.Inputs[0];
        if (Other != Cur && !initOf(Other))
          AddIdx = C;
      }
      if (AddIdx == G.Nodes.size())
        return fail("value '" + Cur +
                    "' fans out but no joining Add closes a residual block");
      size_t BodyStart = Cons[0] == AddIdx ? Cons[1] : Cons[0];
      if (!lowerResidual(Cur, AddIdx, BodyStart, VS, Layers))
        return false;
      Cur = G.Nodes[AddIdx].Outputs.empty() ? std::string()
                                            : G.Nodes[AddIdx].Outputs[0];
      if (Cur.empty())
        return fail("residual Add node has no output");
      continue;
    }
    return fail("value '" + Cur + "' has " + std::to_string(Cons.size()) +
                " consumers; only chains and two-way residual forks are "
                "supported");
  }
  return true;
}

bool Lowering::lowerResidual(const std::string &Cur, size_t AddIdx,
                             size_t BodyStart, ValueShape &VS,
                             std::vector<std::unique_ptr<Layer>> &Layers) {
  const Node &AddN = G.Nodes[AddIdx];
  const std::string &BodyOut =
      AddN.Inputs[0] == Cur ? AddN.Inputs[1] : AddN.Inputs[0];
  // Reserve the join before walking the body so the fork point has exactly
  // one live consumer.
  Consumed[AddIdx] = true;
  (void)BodyStart;

  ValueShape BodyVS = VS;
  std::vector<std::unique_ptr<Layer>> BodyLayers;
  if (!lowerChain(Cur, BodyOut, BodyVS, BodyLayers))
    return false;
  if (BodyLayers.empty())
    return fail("residual body is empty");
  if (BodyVS.Flat != VS.Flat)
    return fail("residual body output size " + std::to_string(BodyVS.Flat) +
                " does not match block input size " + std::to_string(VS.Flat));
  Network Body;
  for (auto &L : BodyLayers) {
    if (!L->affineForm() && !L->activationKind() && !L->isIdentity())
      return fail("residual body contains a layer kind the identity-skip "
                  "block cannot host (pooling inside a residual body is "
                  "unsupported)");
    Body.addLayer(std::move(L));
  }
  Layers.push_back(std::make_unique<ResidualLayer>(std::move(Body)));
  // y = x + F(x) is elementwise, so the spatial interpretation of x (if
  // any) carries over.
  return true;
}

// Node lowering ---------------------------------------------------------------

bool Lowering::lowerNode(const Node &N, ValueShape &VS,
                         std::vector<std::unique_ptr<Layer>> &Layers) {
  if (N.OpType == "Gemm")
    return lowerGemm(N, VS, Layers);
  if (N.OpType == "MatMul")
    return lowerMatMul(N, VS, Layers);
  if (N.OpType == "Add") {
    if (N.Inputs.size() != 2)
      return fail("Add expects 2 inputs");
    // The chain walk guarantees one operand is the current value; a
    // two-computed-operand Add is a residual join and never reaches here.
    const std::string &DataInput = initOf(N.Inputs[0]) ? N.Inputs[1]
                                                        : N.Inputs[0];
    return lowerAddBias(N, DataInput, VS, Layers);
  }
  if (N.OpType == "Conv")
    return lowerConv(N, VS, Layers);
  if (N.OpType == "Relu") {
    Layers.push_back(std::make_unique<ReluLayer>(VS.Flat));
    return true;
  }
  if (N.OpType == "Sigmoid") {
    Layers.push_back(std::make_unique<SigmoidLayer>(VS.Flat));
    return true;
  }
  if (N.OpType == "Tanh") {
    Layers.push_back(std::make_unique<TanhLayer>(VS.Flat));
    return true;
  }
  if (N.OpType == "MaxPool" || N.OpType == "AveragePool")
    return lowerPool(N, VS, Layers);
  if (N.OpType == "Flatten") {
    Layers.push_back(std::make_unique<FlattenLayer>(VS.Flat));
    VS.Spatial.reset();
    return true;
  }
  if (N.OpType == "Reshape")
    return lowerReshape(N, VS, Layers);
  if (N.OpType == "BatchNormalization")
    return lowerBatchNorm(N, VS, Layers);
  return fail("unsupported op '" + N.OpType + "'");
}

bool Lowering::lowerGemm(const Node &N, ValueShape &VS,
                         std::vector<std::unique_ptr<Layer>> &Layers) {
  if (N.Inputs.size() < 2)
    return fail("Gemm expects at least 2 inputs");
  const TensorData *W = initOf(N.Inputs[1]);
  if (!W)
    return fail("Gemm weight '" + N.Inputs[1] + "' is not an initializer");
  if (attrFloat(N, "alpha", 1.0) != 1.0)
    return fail("Gemm with alpha != 1 is unsupported");
  if (attrInt(N, "transA", 0) != 0)
    return fail("Gemm with transA is unsupported");
  double Beta = attrFloat(N, "beta", 1.0);
  bool TransB = attrInt(N, "transB", 0) != 0;
  if (W->Dims.size() != 2)
    return fail("Gemm weight must be 2-D, got " + describeDims(W->Dims));
  size_t D0 = static_cast<size_t>(W->Dims[0]);
  size_t D1 = static_cast<size_t>(W->Dims[1]);
  size_t Out = TransB ? D0 : D1;
  size_t In = TransB ? D1 : D0;
  if (In != VS.Flat)
    return fail("Gemm weight input size " + std::to_string(In) +
                " does not match incoming value size " +
                std::to_string(VS.Flat));
  Matrix Weights(Out, In);
  for (size_t R = 0; R < Out; ++R)
    for (size_t C = 0; C < In; ++C)
      Weights(R, C) = TransB ? W->Values[R * In + C] : W->Values[C * Out + R];
  Vector Bias(Out);
  if (N.Inputs.size() > 2 && !N.Inputs[2].empty()) {
    const TensorData *B = initOf(N.Inputs[2]);
    if (!B)
      return fail("Gemm bias '" + N.Inputs[2] + "' is not an initializer");
    if (vectorLength(*B) != Out)
      return fail("Gemm bias has " + std::to_string(vectorLength(*B)) +
                  " elements, expected " + std::to_string(Out));
    for (size_t R = 0; R < Out; ++R)
      Bias[R] = Beta * B->Values[R];
  }
  Layers.push_back(
      std::make_unique<DenseLayer>(std::move(Weights), std::move(Bias)));
  VS.Flat = Out;
  VS.Spatial.reset();
  return true;
}

bool Lowering::lowerMatMul(const Node &N, ValueShape &VS,
                           std::vector<std::unique_ptr<Layer>> &Layers) {
  if (N.Inputs.size() != 2)
    return fail("MatMul expects 2 inputs");
  const TensorData *W = initOf(N.Inputs[1]);
  if (!W)
    return fail("MatMul weight '" + N.Inputs[1] + "' is not an initializer");
  if (W->Dims.size() != 2)
    return fail("MatMul weight must be 2-D, got " + describeDims(W->Dims));
  size_t In = static_cast<size_t>(W->Dims[0]);
  size_t Out = static_cast<size_t>(W->Dims[1]);
  if (In != VS.Flat)
    return fail("MatMul weight input size " + std::to_string(In) +
                " does not match incoming value size " +
                std::to_string(VS.Flat));
  // ONNX MatMul computes x * W with W of shape (In, Out); the native layer
  // computes W' x, so W'(o, i) = W(i, o).
  Matrix Weights(Out, In);
  for (size_t R = 0; R < Out; ++R)
    for (size_t C = 0; C < In; ++C)
      Weights(R, C) = W->Values[C * Out + R];
  Layers.push_back(
      std::make_unique<DenseLayer>(std::move(Weights), Vector(Out)));
  VS.Flat = Out;
  VS.Spatial.reset();
  return true;
}

bool Lowering::lowerAddBias(const Node &N, const std::string &DataInput,
                            ValueShape &VS,
                            std::vector<std::unique_ptr<Layer>> &Layers) {
  const std::string &Other =
      N.Inputs[0] == DataInput ? N.Inputs[1] : N.Inputs[0];
  const TensorData *B = initOf(Other);
  if (!B)
    return fail("Add of two computed values is only supported as the join "
                "of a residual block");

  // Per-channel broadcast onto a spatial value: [C], [C,1,1] or [1,C,1,1].
  if (VS.Spatial &&
      vectorLength(*B) == static_cast<size_t>(VS.Spatial->Channels) &&
      vectorLength(*B) != VS.Flat) {
    if (!Layers.empty() && Layers.back()->kind() == LayerKind::Conv2D) {
      auto &Conv = static_cast<Conv2DLayer &>(*Layers.back());
      for (int Oc = 0; Oc < VS.Spatial->Channels; ++Oc)
        Conv.bias()[static_cast<size_t>(Oc)] += B->Values[Oc];
      return true;
    }
    std::vector<double> A(VS.Flat, 1.0), C(VS.Flat);
    const TensorShape &S = *VS.Spatial;
    for (int Ch = 0; Ch < S.Channels; ++Ch)
      for (int Y = 0; Y < S.Height; ++Y)
        for (int X = 0; X < S.Width; ++X)
          C[static_cast<size_t>(S.index(Ch, Y, X))] = B->Values[Ch];
    applyPointwiseAffine(A, C, Layers);
    return true;
  }

  if (vectorLength(*B) != VS.Flat)
    return fail("Add operand '" + Other + "' has " +
                std::to_string(vectorLength(*B)) +
                " elements, which does not broadcast onto a value of size " +
                std::to_string(VS.Flat));
  if (!Layers.empty() && Layers.back()->kind() == LayerKind::Dense) {
    auto &Dense = static_cast<DenseLayer &>(*Layers.back());
    for (size_t I = 0; I < VS.Flat; ++I)
      Dense.bias()[I] += B->Values[I];
    return true;
  }
  std::vector<double> A(VS.Flat, 1.0);
  applyPointwiseAffine(A, B->Values, Layers);
  return true;
}

bool Lowering::lowerConv(const Node &N, ValueShape &VS,
                         std::vector<std::unique_ptr<Layer>> &Layers) {
  if (!VS.Spatial)
    return fail("Conv requires a spatial (C,H,W) input shape");
  if (N.Inputs.size() < 2)
    return fail("Conv expects at least 2 inputs");
  const TensorData *W = initOf(N.Inputs[1]);
  if (!W)
    return fail("Conv weight '" + N.Inputs[1] + "' is not an initializer");
  if (W->Dims.size() != 4)
    return fail("Conv weight must be 4-D, got " + describeDims(W->Dims));
  if (attrInt(N, "group", 1) != 1)
    return fail("grouped Conv is unsupported");
  const Attribute *AutoPad = N.attr("auto_pad");
  if (AutoPad && !AutoPad->S.empty() && AutoPad->S != "NOTSET")
    return fail("Conv auto_pad '" + AutoPad->S + "' is unsupported");
  std::vector<int64_t> Dilations = attrInts(N, "dilations");
  if (!Dilations.empty() && !allEqual(Dilations, 1))
    return fail("dilated Conv is unsupported");

  int OutC = static_cast<int>(W->Dims[0]);
  int InC = static_cast<int>(W->Dims[1]);
  int KH = static_cast<int>(W->Dims[2]);
  int KW = static_cast<int>(W->Dims[3]);
  if (InC != VS.Spatial->Channels)
    return fail("Conv weight expects " + std::to_string(InC) +
                " input channels, value has " +
                std::to_string(VS.Spatial->Channels));
  std::vector<int64_t> KernelShape = attrInts(N, "kernel_shape");
  if (!KernelShape.empty() &&
      (KernelShape.size() != 2 || KernelShape[0] != KH ||
       KernelShape[1] != KW))
    return fail("Conv kernel_shape disagrees with weight dims");

  std::vector<int64_t> Strides = attrInts(N, "strides");
  int S = Strides.empty() ? 1 : static_cast<int>(Strides[0]);
  if (!Strides.empty() && !allEqual(Strides, Strides[0]))
    return fail("Conv with non-uniform strides is unsupported");
  std::vector<int64_t> Pads = attrInts(N, "pads");
  int P = Pads.empty() ? 0 : static_cast<int>(Pads[0]);
  if (!Pads.empty() && !allEqual(Pads, Pads[0]))
    return fail("Conv with asymmetric padding is unsupported");
  if (S <= 0 || P < 0 || KH <= 0 || KW <= 0 || OutC <= 0)
    return fail("Conv has non-positive kernel/stride dimensions");
  if (VS.Spatial->Height + 2 * int64_t(P) < KH ||
      VS.Spatial->Width + 2 * int64_t(P) < KW)
    return fail("Conv kernel larger than padded input");
  if (!windowShapeFits(WindowKind::Conv, *VS.Spatial, OutC, KH, KW, S, P))
    return fail("Conv shape is too large: a flat size exceeds int or a "
                "derived table exceeds " +
                std::to_string(MaxShapeTableEntries) + " entries");

  auto Conv =
      std::make_unique<Conv2DLayer>(*VS.Spatial, OutC, KH, KW, S, P);
  for (int Oc = 0; Oc < OutC; ++Oc)
    for (int Ic = 0; Ic < InC; ++Ic)
      for (int Ky = 0; Ky < KH; ++Ky)
        for (int Kx = 0; Kx < KW; ++Kx)
          Conv->kernelAt(Oc, Ic, Ky, Kx) =
              W->Values[((static_cast<size_t>(Oc) * InC + Ic) * KH + Ky) *
                            KW +
                        Kx];
  if (N.Inputs.size() > 2 && !N.Inputs[2].empty()) {
    const TensorData *B = initOf(N.Inputs[2]);
    if (!B)
      return fail("Conv bias '" + N.Inputs[2] + "' is not an initializer");
    if (vectorLength(*B) != static_cast<size_t>(OutC))
      return fail("Conv bias has " + std::to_string(vectorLength(*B)) +
                  " elements, expected " + std::to_string(OutC));
    for (int Oc = 0; Oc < OutC; ++Oc)
      Conv->bias()[static_cast<size_t>(Oc)] = B->Values[Oc];
  }
  VS.Spatial = Conv->outputShape();
  VS.Flat = static_cast<size_t>(VS.Spatial->size());
  Layers.push_back(std::move(Conv));
  return true;
}

bool Lowering::lowerPool(const Node &N, ValueShape &VS,
                         std::vector<std::unique_ptr<Layer>> &Layers) {
  if (!VS.Spatial)
    return fail(N.OpType + " requires a spatial (C,H,W) input shape");
  const Attribute *AutoPad = N.attr("auto_pad");
  if (AutoPad && !AutoPad->S.empty() && AutoPad->S != "NOTSET")
    return fail(N.OpType + " auto_pad is unsupported");
  if (attrInt(N, "ceil_mode", 0) != 0)
    return fail(N.OpType + " ceil_mode is unsupported");
  std::vector<int64_t> Pads = attrInts(N, "pads");
  if (!Pads.empty() && !allEqual(Pads, 0))
    return fail(N.OpType + " with padding is unsupported");
  std::vector<int64_t> KernelShape = attrInts(N, "kernel_shape");
  if (KernelShape.size() != 2)
    return fail(N.OpType + " kernel_shape must have 2 entries");
  int PH = static_cast<int>(KernelShape[0]);
  int PW = static_cast<int>(KernelShape[1]);
  std::vector<int64_t> Strides = attrInts(N, "strides");
  int S = Strides.empty() ? 1 : static_cast<int>(Strides[0]);
  if (!Strides.empty() && !allEqual(Strides, Strides[0]))
    return fail(N.OpType + " with non-uniform strides is unsupported");
  if (PH <= 0 || PW <= 0 || S <= 0)
    return fail(N.OpType + " has non-positive kernel/stride dimensions");
  if (VS.Spatial->Height < PH || VS.Spatial->Width < PW)
    return fail(N.OpType + " window larger than input");
  if (!windowShapeFits(N.OpType == "MaxPool" ? WindowKind::MaxPool
                                             : WindowKind::AvgPool,
                       *VS.Spatial, VS.Spatial->Channels, PH, PW, S, 0))
    return fail(N.OpType + " shape is too large: a flat size exceeds int or "
                           "a derived table exceeds " +
                std::to_string(MaxShapeTableEntries) + " entries");

  if (N.OpType == "MaxPool") {
    auto Pool = std::make_unique<MaxPool2DLayer>(*VS.Spatial, PH, PW, S);
    VS.Spatial = Pool->outputShape();
    VS.Flat = static_cast<size_t>(VS.Spatial->size());
    Layers.push_back(std::move(Pool));
  } else {
    auto Pool = std::make_unique<AvgPool2DLayer>(*VS.Spatial, PH, PW, S);
    VS.Spatial = Pool->outputShape();
    VS.Flat = static_cast<size_t>(VS.Spatial->size());
    Layers.push_back(std::move(Pool));
  }
  return true;
}

bool Lowering::lowerReshape(const Node &N, ValueShape &VS,
                            std::vector<std::unique_ptr<Layer>> &Layers) {
  if (N.Inputs.size() != 2)
    return fail("Reshape expects 2 inputs");
  const TensorData *Shape = initOf(N.Inputs[1]);
  if (!Shape)
    return fail("Reshape target shape must be a constant initializer");
  // Resolve the target: strip a leading batch dim of 1/0, substitute the
  // current size for a single -1, and require the element count to match.
  std::vector<int64_t> Target;
  for (double V : Shape->Values)
    Target.push_back(static_cast<int64_t>(V));
  if (!Target.empty() && (Target[0] == 1 || Target[0] == 0))
    Target.erase(Target.begin());
  int64_t Known = 1;
  int MinusOnes = 0;
  for (int64_t D : Target) {
    if (D == -1)
      ++MinusOnes;
    else if (D <= 0)
      return fail("Reshape target dimension must be positive or -1");
    else
      Known *= D;
  }
  if (MinusOnes > 1)
    return fail("Reshape with more than one -1 dimension");
  int64_t Flat = static_cast<int64_t>(VS.Flat);
  if (MinusOnes == 1) {
    if (Known == 0 || Flat % Known != 0)
      return fail("Reshape -1 dimension does not divide the value size");
    for (int64_t &D : Target)
      if (D == -1)
        D = Flat / Known;
    Known = Flat;
  }
  if (Known != Flat)
    return fail("Reshape to " + std::to_string(Known) +
                " elements, value has " + std::to_string(Flat));
  // The flat channel-major vector is unchanged; only the interpretation
  // moves. A 3-D target restores a spatial view, anything else drops it.
  Layers.push_back(std::make_unique<FlattenLayer>(VS.Flat));
  if (Target.size() == 3)
    VS.Spatial = TensorShape{static_cast<int>(Target[0]),
                             static_cast<int>(Target[1]),
                             static_cast<int>(Target[2])};
  else
    VS.Spatial.reset();
  return true;
}

bool Lowering::lowerBatchNorm(const Node &N, ValueShape &VS,
                              std::vector<std::unique_ptr<Layer>> &Layers) {
  if (N.Inputs.size() < 5)
    return fail("BatchNormalization expects 5 inputs");
  const TensorData *Scale = initOf(N.Inputs[1]);
  const TensorData *Bias = initOf(N.Inputs[2]);
  const TensorData *Mean = initOf(N.Inputs[3]);
  const TensorData *Var = initOf(N.Inputs[4]);
  if (!Scale || !Bias || !Mean || !Var)
    return fail("BatchNormalization parameters must be initializers");
  size_t C = vectorLength(*Scale);
  if (vectorLength(*Bias) != C || vectorLength(*Mean) != C ||
      vectorLength(*Var) != C)
    return fail("BatchNormalization parameter sizes disagree");
  double Eps = attrFloat(N, "epsilon", 1e-5);

  std::vector<double> A(C), Off(C);
  for (size_t I = 0; I < C; ++I) {
    double V = Var->Values[I] + Eps;
    if (!(V > 0.0))
      return fail("BatchNormalization variance + epsilon is not positive");
    A[I] = Scale->Values[I] / std::sqrt(V);
    Off[I] = Bias->Values[I] - Mean->Values[I] * A[I];
  }

  // Spatial per-channel normalization folds into a directly preceding
  // Conv2D (scale its output-channel kernels and bias).
  if (VS.Spatial && C == static_cast<size_t>(VS.Spatial->Channels) &&
      C != VS.Flat) {
    if (!Layers.empty() && Layers.back()->kind() == LayerKind::Conv2D) {
      auto &Conv = static_cast<Conv2DLayer &>(*Layers.back());
      const TensorShape &In = Conv.inputShape();
      for (int Oc = 0; Oc < VS.Spatial->Channels; ++Oc) {
        for (int Ic = 0; Ic < In.Channels; ++Ic)
          for (int Ky = 0; Ky < Conv.kernelHeight(); ++Ky)
            for (int Kx = 0; Kx < Conv.kernelWidth(); ++Kx)
              Conv.kernelAt(Oc, Ic, Ky, Kx) *= A[static_cast<size_t>(Oc)];
        Conv.bias()[static_cast<size_t>(Oc)] =
            A[static_cast<size_t>(Oc)] * Conv.bias()[static_cast<size_t>(Oc)] +
            Off[static_cast<size_t>(Oc)];
      }
      return true;
    }
    // No conv to fold into: expand per-channel factors to per-element.
    std::vector<double> FullA(VS.Flat), FullC(VS.Flat);
    const TensorShape &S = *VS.Spatial;
    for (int Ch = 0; Ch < S.Channels; ++Ch)
      for (int Y = 0; Y < S.Height; ++Y)
        for (int X = 0; X < S.Width; ++X) {
          size_t Idx = static_cast<size_t>(S.index(Ch, Y, X));
          FullA[Idx] = A[static_cast<size_t>(Ch)];
          FullC[Idx] = Off[static_cast<size_t>(Ch)];
        }
    applyPointwiseAffine(FullA, FullC, Layers);
    return true;
  }

  if (C != VS.Flat)
    return fail("BatchNormalization over " + std::to_string(C) +
                " channels does not match value size " +
                std::to_string(VS.Flat));
  applyPointwiseAffine(A, Off, Layers);
  return true;
}

void Lowering::applyPointwiseAffine(
    const std::vector<double> &A, const std::vector<double> &C,
    std::vector<std::unique_ptr<Layer>> &Layers) {
  size_t N = A.size();
  if (!Layers.empty() && Layers.back()->kind() == LayerKind::Dense) {
    auto &Dense = static_cast<DenseLayer &>(*Layers.back());
    for (size_t R = 0; R < N; ++R) {
      double *Row = Dense.weights().row(R);
      for (size_t Col = 0, E = Dense.weights().cols(); Col < E; ++Col)
        Row[Col] *= A[R];
      Dense.bias()[R] = A[R] * Dense.bias()[R] + C[R];
    }
    return;
  }
  Matrix W(N, N);
  Vector B(N);
  for (size_t I = 0; I < N; ++I) {
    W(I, I) = A[I];
    B[I] = C[I];
  }
  Layers.push_back(std::make_unique<DenseLayer>(std::move(W), std::move(B)));
}

// Driver ----------------------------------------------------------------------

std::optional<Network> Lowering::run() {
  for (const TensorData &T : G.Initializers) {
    for (int64_t D : T.Dims)
      if (D < 0) {
        fail("initializer '" + T.Name + "' has a negative dimension");
        return std::nullopt;
      }
    if (static_cast<int64_t>(T.Values.size()) != T.elementCount()) {
      fail("initializer '" + T.Name + "' holds " +
           std::to_string(T.Values.size()) + " values but declares " +
           std::to_string(T.elementCount()));
      return std::nullopt;
    }
    Init[T.Name] = &T;
  }

  const ValueInfo *Input = nullptr;
  for (const ValueInfo &V : G.Inputs)
    if (!Init.count(V.Name)) {
      if (Input) {
        fail("graph has more than one non-initializer input");
        return std::nullopt;
      }
      Input = &V;
    }
  if (!Input) {
    fail("graph has no non-initializer input");
    return std::nullopt;
  }
  if (G.Outputs.empty()) {
    fail("graph has no output");
    return std::nullopt;
  }

  ValueShape VS;
  const std::vector<int64_t> &D = Input->Dims;
  auto positive = [](int64_t X) { return X > 0; };
  // A spatial (C, H, W) input becomes a TensorShape, whose flat size is an
  // int.
  auto flatFitsInt = [](int64_t C, int64_t H, int64_t W) {
    return C <= INT_MAX && H <= INT_MAX / C && W <= INT_MAX / (C * H);
  };
  if (D.size() >= 3 && std::all_of(D.end() - 3, D.end(), positive) &&
      !flatFitsInt(D[D.size() - 3], D[D.size() - 2], D[D.size() - 1])) {
    fail("graph input '" + Input->Name + "' shape " + describeDims(D) +
         " has more than INT_MAX elements");
    return std::nullopt;
  }
  if (D.size() == 4 && (D[0] == 1 || D[0] == 0) && positive(D[1]) &&
      positive(D[2]) && positive(D[3])) {
    VS.Spatial = TensorShape{static_cast<int>(D[1]), static_cast<int>(D[2]),
                             static_cast<int>(D[3])};
    VS.Flat = static_cast<size_t>(VS.Spatial->size());
  } else if (D.size() == 3 && positive(D[0]) && positive(D[1]) &&
             positive(D[2])) {
    VS.Spatial = TensorShape{static_cast<int>(D[0]), static_cast<int>(D[1]),
                             static_cast<int>(D[2])};
    VS.Flat = static_cast<size_t>(VS.Spatial->size());
  } else if (D.size() == 2 && (D[0] == 1 || D[0] == 0) && positive(D[1])) {
    VS.Flat = static_cast<size_t>(D[1]);
  } else if (D.size() == 1 && positive(D[0])) {
    VS.Flat = static_cast<size_t>(D[0]);
  } else {
    fail("graph input '" + Input->Name + "' has unsupported shape " +
         describeDims(D));
    return std::nullopt;
  }

  std::vector<std::unique_ptr<Layer>> Layers;
  if (!lowerChain(Input->Name, G.Outputs[0].Name, VS, Layers))
    return std::nullopt;
  if (Layers.empty()) {
    fail("graph lowers to an empty network");
    return std::nullopt;
  }
  for (size_t I = 0, E = G.Nodes.size(); I < E; ++I)
    if (!Consumed[I]) {
      fail("node '" +
           (G.Nodes[I].Name.empty() ? G.Nodes[I].OpType : G.Nodes[I].Name) +
           "' is not reachable from the graph input");
      return std::nullopt;
    }

  Network Net;
  for (auto &L : Layers)
    Net.addLayer(std::move(L));
  return Net;
}

// Public API ------------------------------------------------------------------

ImportResult charon::onnx::importModelBytes(const unsigned char *Data,
                                            size_t Len) {
  ImportResult R;
  std::optional<Model> M = parseModel(Data, Len, R.Error);
  if (!M)
    return R;
  Lowering L(M->G);
  R.Net = L.run();
  if (!R.Net)
    R.Error = L.Error.empty() ? "import failed" : L.Error;
  return R;
}

ImportResult charon::onnx::importModelFile(const std::string &Path) {
  std::ifstream Is(Path, std::ios::binary);
  if (!Is) {
    ImportResult R;
    R.Error = "cannot open '" + Path + "'";
    return R;
  }
  std::vector<unsigned char> Bytes(
      (std::istreambuf_iterator<char>(Is)), std::istreambuf_iterator<char>());
  return importModelBytes(Bytes.data(), Bytes.size());
}

bool charon::onnx::isOnnxPath(const std::string &Path) {
  const std::string Ext = ".onnx";
  return Path.size() > Ext.size() &&
         Path.compare(Path.size() - Ext.size(), Ext.size(), Ext) == 0;
}
