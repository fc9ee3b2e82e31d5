//===- Network.h - Sequential feed-forward network --------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A feed-forward network N : R^n -> R^m as a sequence of layers
/// (Sec. 2.1). Supports concrete evaluation, classification, and reverse-mode
/// gradients w.r.t. the input — the primitive behind the paper's
/// gradient-based counterexample search (Sec. 3, Eq. 1-2).
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_NN_NETWORK_H
#define CHARON_NN_NETWORK_H

#include "nn/Layer.h"

#include <memory>
#include <string>
#include <vector>

namespace charon {

/// Sequential feed-forward network.
class Network {
public:
  Network() = default;

  /// Appends \p L; its input size must match the current output size.
  void addLayer(std::unique_ptr<Layer> L);

  size_t numLayers() const { return Layers.size(); }
  Layer &layer(size_t I) { return *Layers[I]; }
  const Layer &layer(size_t I) const { return *Layers[I]; }

  size_t inputSize() const;
  size_t outputSize() const;

  /// Evaluates the network on \p Input.
  Vector evaluate(const Vector &Input) const;

  /// Evaluates and records every intermediate activation; Activations[0] is
  /// the input and Activations[numLayers()] the output.
  std::vector<Vector> evaluateWithActivations(const Vector &Input) const;

  /// Batched evaluation: row i of the result is evaluate(row i of \p X).
  /// Bit-identical to the per-point pass (see Layer::forwardBatch).
  Matrix evaluateBatch(const Matrix &X) const;

  /// Batched evaluation keeping every intermediate activation matrix;
  /// element 0 is the input batch and element numLayers() the output batch.
  std::vector<Matrix> evaluateBatchWithActivations(const Matrix &X) const;

  /// Class with the highest score for \p Input (Sec. 2.1).
  size_t classify(const Vector &Input) const;

  /// Gradient of Seed . N(x) with respect to x, computed by reverse-mode
  /// differentiation. \p Seed has output dimension.
  Vector inputGradient(const Vector &Input, const Vector &Seed) const;

  /// Robustness objective F(x) = N(x)_K - max_{j != K} N(x)_j (Eq. 2).
  /// Negative or zero iff x is an adversarial counterexample for class K.
  double objective(const Vector &Input, size_t K) const;

  /// Gradient of the objective at \p Input via the active argmax branch.
  Vector objectiveGradient(const Vector &Input, size_t K) const;

  /// Batched objective: element i is objective(row i of \p X, K), one
  /// forward pass for the whole batch.
  Vector objectiveBatch(const Matrix &X, size_t K) const;

  /// The objective scan of objectiveBatch over an output batch \p Y:
  /// element i is y_K - max_{j != K} y_j of row i.
  static Vector objectiveOfOutputs(const Matrix &Y, size_t K);

  /// Batched objective gradient of the batch whose activations \p Acts an
  /// earlier evaluateBatchWithActivations() kept: row i is
  /// objectiveGradient(row i, K), one backward pass for the whole batch,
  /// with the competitor argmax resolved per row exactly as the scalar path
  /// does.
  Matrix objectiveGradientFromActivations(const std::vector<Matrix> &Acts,
                                          size_t K) const;

  /// Deep copy.
  Network clone() const;

  /// Builds every structure a layer caches lazily: the conv and avg-pool
  /// lowerings at any depth and the residual plans. Threads that share the
  /// network afterwards only read it.
  void warmCaches() const;

  /// Optional human-readable name (used in benchmark reports).
  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  /// Training hooks: forwarded to every layer.
  void zeroGradients();
  void applyGradients(double LearningRate, double BatchSize);

  /// Backpropagates \p GradOut through the whole network given the
  /// activations from evaluateWithActivations(); accumulates parameter
  /// gradients. Returns the gradient at the input.
  Vector backpropagate(const std::vector<Vector> &Activations,
                       const Vector &GradOut);

private:
  /// Runs every layer's per-point backward() over \p Activations from the
  /// output down, seeded with \p GradOut; returns the gradient at the input.
  Vector backwardPass(const std::vector<Vector> &Activations,
                      const Vector &GradOut, bool AccumulateParams) const;

  std::vector<std::unique_ptr<Layer>> Layers;
  std::string Name;
};

} // namespace charon

#endif // CHARON_NN_NETWORK_H
