//===- CountingLayer.h - A layer wrapper that counts concrete passes -*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wraps every layer of a network so tests can count the per-point and the
/// batched concrete passes a search runs, and the rows its batched forward
/// passes score.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_TESTS_COUNTINGLAYER_H
#define CHARON_TESTS_COUNTINGLAYER_H

#include "nn/Network.h"

#include <memory>
#include <utility>
#include <vector>

namespace charon {
namespace testing_nets {

/// Forwards every Layer call to an owned layer, counting the per-point and
/// the batched concrete passes.
class CountingLayer final : public Layer {
public:
  explicit CountingLayer(std::unique_ptr<Layer> Inner)
      : Inner(std::move(Inner)) {}

  LayerKind kind() const override { return Inner->kind(); }
  size_t inputSize() const override { return Inner->inputSize(); }
  size_t outputSize() const override { return Inner->outputSize(); }
  Vector forward(const Vector &Input) const override {
    ++PointForwards;
    return Inner->forward(Input);
  }
  Vector backward(const Vector &Input, const Vector &GradOut,
                  bool AccumulateParams) override {
    ++PointBackwards;
    return Inner->backward(Input, GradOut, AccumulateParams);
  }
  Matrix forwardBatch(const Matrix &X) const override {
    ++Forwards;
    ForwardRows += X.rows();
    return Inner->forwardBatch(X);
  }
  Matrix backwardBatch(const Matrix &X, const Matrix &GradOut) const override {
    ++Backwards;
    return Inner->backwardBatch(X, GradOut);
  }
  void applyGradients(double LearningRate, double BatchSize) override {
    Inner->applyGradients(LearningRate, BatchSize);
  }
  void zeroGradients() override { Inner->zeroGradients(); }
  std::optional<AffineView> affineForm() const override {
    return Inner->affineForm();
  }
  std::optional<ActivationKind> activationKind() const override {
    return Inner->activationKind();
  }
  const PoolSpec *poolSpec() const override { return Inner->poolSpec(); }
  bool isIdentity() const override { return Inner->isIdentity(); }
  const Network *residualBody() const override {
    return Inner->residualBody();
  }
  std::unique_ptr<Layer> clone() const override { return Inner->clone(); }

  /// Zeroes every counter.
  void reset() {
    Forwards = Backwards = ForwardRows = PointForwards = PointBackwards = 0;
  }

  mutable size_t Forwards = 0;
  mutable size_t Backwards = 0;
  mutable size_t ForwardRows = 0;
  mutable size_t PointForwards = 0;
  size_t PointBackwards = 0;

private:
  std::unique_ptr<Layer> Inner;
};

/// \p Net with every layer wrapped in a CountingLayer; \p Counters gets
/// the wrappers in layer order.
inline Network countedCopy(const Network &Net,
                           std::vector<CountingLayer *> &Counters) {
  Network Counted;
  for (size_t I = 0; I < Net.numLayers(); ++I) {
    auto L = std::make_unique<CountingLayer>(Net.layer(I).clone());
    Counters.push_back(L.get());
    Counted.addLayer(std::move(L));
  }
  return Counted;
}

} // namespace testing_nets
} // namespace charon

#endif // CHARON_TESTS_COUNTINGLAYER_H
