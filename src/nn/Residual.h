//===- Residual.h - Residual (skip-connection) block ------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Residual block y = x + F(x) with an identity skip connection. The body F
/// is a small sequential stack restricted to affine / activation / identity
/// layers, which keeps abstract propagation exact: the analyzer rewrites the
/// block as pure affine maps plus ranged activations over a duplicated
/// state [x; z] — duplicate with [I; I], run each body affine as the
/// block-diagonal [[I, 0], [0, W]], apply body activations only to the
/// working half, and finish with the sum map [I I]. The rewritten plan is
/// cached on the layer (like Conv2D's lowered form) and invalidated on
/// weight updates.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_NN_RESIDUAL_H
#define CHARON_NN_RESIDUAL_H

#include "nn/Layer.h"
#include "nn/Network.h"

namespace charon {

/// Residual block with identity skip: y = x + F(x).
class ResidualLayer : public Layer {
public:
  /// Takes ownership of the body \p F. The body must be non-empty, map
  /// R^N -> R^N for this layer's size N, and contain only layers that
  /// expose an affine form, an element-wise activation, or the identity.
  explicit ResidualLayer(Network F);

  LayerKind kind() const override { return LayerKind::Residual; }
  size_t inputSize() const override { return Body.inputSize(); }
  size_t outputSize() const override { return Body.outputSize(); }

  Vector forward(const Vector &Input) const override;
  Vector backward(const Vector &Input, const Vector &GradOut,
                  bool AccumulateParams) override;
  Matrix forwardBatch(const Matrix &X) const override;
  Matrix backwardBatch(const Matrix &X, const Matrix &GradOut) const override;
  void applyGradients(double LearningRate, double BatchSize) override;
  void zeroGradients() override;

  const Network *residualBody() const override { return &Body; }

  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ResidualLayer>(Body.clone());
  }

  /// Mutable body access (training / construction); drops the cached plan.
  Network &body() {
    Plan.reset();
    return Body;
  }

  /// One step of the rewritten block over the duplicated state [x; z].
  struct ResidualStep {
    /// True: apply (W, B); false: apply Act to coordinates [Begin, End).
    bool IsAffine;
    Matrix W;
    Vector B;
    ActivationKind Act;
    size_t Begin, End;
  };

  /// The analyzer's propagation plan: Dup = [I; I] (2N x N), one step per
  /// non-identity body layer, Sum = [I I] (N x 2N). Cached; rebuilt lazily
  /// after weight updates, and built by Network::warmCaches.
  struct ResidualPlan {
    Matrix DupW;
    Vector DupB;
    std::vector<ResidualStep> Steps;
    Matrix SumW;
    Vector SumB;
  };
  const ResidualPlan &plan() const;

private:
  Network Body;
  mutable std::unique_ptr<ResidualPlan> Plan;
};

} // namespace charon

#endif // CHARON_NN_RESIDUAL_H
