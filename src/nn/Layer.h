//===- Layer.h - Neural network layer interface -----------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layer interface shared by concrete evaluation, gradient computation,
/// training, and abstract interpretation. Following Sec. 2.1 of the paper, a
/// network is a composition of differentiable layers and activations;
/// fully-connected, convolutional, and average-pool layers are all
/// expressible as affine transformations, which is exactly the view the
/// abstract analyzer takes via \c affineForm(). Activations are first-class:
/// a layer exposes its \c ActivationKind instead of a ReLU-only flag, so the
/// analyzer can pick the matching transformer (exact case split for ReLU,
/// linear relaxation for sigmoid/tanh).
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_NN_LAYER_H
#define CHARON_NN_LAYER_H

#include "linalg/Matrix.h"
#include "linalg/Vector.h"

#include <memory>
#include <optional>
#include <vector>

namespace charon {

class Network;

/// Discriminator for the concrete layer classes. New kinds append at the
/// end: the numeric value feeds network fingerprints (see Digest.cpp), so
/// reordering would silently invalidate every stored digest.
enum class LayerKind {
  Dense,
  Relu,
  Conv2D,
  MaxPool2D,
  Sigmoid,
  Tanh,
  AvgPool2D,
  Flatten,
  Residual,
};

/// Element-wise activation functions a layer may apply. ReLU is piecewise
/// linear (abstract domains case-split on it); sigmoid and tanh are smooth
/// and sound transformers use a linear relaxation instead (no splits).
enum class ActivationKind { Relu, Sigmoid, Tanh };

/// View of a layer as the affine map y = W x + b (Sec. 2.1). The pointers
/// stay valid until the layer's parameters change.
struct AffineView {
  const Matrix *W;
  const Vector *B;
};

/// Pooling structure: for each output coordinate, the input coordinates it
/// takes the max over. Used by both concrete eval and abstract transformers.
struct PoolSpec {
  /// PoolIndices[o] lists the flat input indices pooled into output o.
  std::vector<std::vector<int>> PoolIndices;
};

/// Abstract base class for network layers.
///
/// A layer supports concrete forward evaluation, reverse-mode gradient
/// propagation (with optional parameter-gradient accumulation for training),
/// and exposes one of the abstract-transformer shapes: affine, element-wise
/// activation, max-pool, identity, or residual block.
class Layer {
public:
  virtual ~Layer();

  virtual LayerKind kind() const = 0;
  virtual size_t inputSize() const = 0;
  virtual size_t outputSize() const = 0;

  /// Computes the layer output for \p Input.
  virtual Vector forward(const Vector &Input) const = 0;

  /// Reverse-mode step: given the \p Input this layer saw and the gradient
  /// \p GradOut of the loss w.r.t. the layer output, returns the gradient
  /// w.r.t. the input. When \p AccumulateParams is true, also accumulates
  /// parameter gradients for a later applyGradients() (training).
  virtual Vector backward(const Vector &Input, const Vector &GradOut,
                          bool AccumulateParams) = 0;

  /// Batched forward pass: row i of the result is forward(row i of \p X).
  /// The concrete layers override this with fused kernels that preserve the
  /// per-element accumulation order, so the batched result is bit-identical
  /// to the per-point pass; the base implementation is the row-by-row
  /// reference.
  virtual Matrix forwardBatch(const Matrix &X) const;

  /// Batched reverse-mode step w.r.t. the inputs only: row i of the result
  /// is backward(X.row(i), GradOut.row(i), false). Never accumulates
  /// parameter gradients — training stays on the per-point path.
  virtual Matrix backwardBatch(const Matrix &X, const Matrix &GradOut) const;

  /// SGD step: Params -= LearningRate * AccumGrad / BatchSize. No-op for
  /// parameterless layers.
  virtual void applyGradients(double LearningRate, double BatchSize);

  /// Clears accumulated parameter gradients.
  virtual void zeroGradients();

  /// If this layer is an affine map, returns its (W, b) view. Dense layers
  /// return their parameters directly; Conv2D and AvgPool2D return the
  /// lowered matrix (cached, rebuilt after weight updates).
  virtual std::optional<AffineView> affineForm() const { return std::nullopt; }

  /// The element-wise activation this layer applies, if it is an activation
  /// layer.
  virtual std::optional<ActivationKind> activationKind() const {
    return std::nullopt;
  }

  /// True for ReLU activation layers. Convenience over activationKind();
  /// call sites that genuinely mean ReLU (the Reluplex encoder) keep using
  /// this.
  bool isRelu() const { return activationKind() == ActivationKind::Relu; }

  /// Non-null for max-pool layers.
  virtual const PoolSpec *poolSpec() const { return nullptr; }

  /// True for layers that are the identity on the flat vector (Flatten /
  /// Reshape). The analyzer skips them; concrete eval passes through.
  virtual bool isIdentity() const { return false; }

  /// Non-null for residual blocks: the inner stack F with output
  /// y = x + F(x). Body layers are restricted to affine / activation /
  /// identity so the analyzer can propagate through the block exactly.
  virtual const Network *residualBody() const { return nullptr; }

  /// Deep copy.
  virtual std::unique_ptr<Layer> clone() const = 0;
};

} // namespace charon

#endif // CHARON_NN_LAYER_H
