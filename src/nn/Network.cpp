//===- Network.cpp - Sequential feed-forward network ------------------------===//

#include "nn/Network.h"

#include "nn/Residual.h"

#include <cassert>
#include <limits>

using namespace charon;

void Network::addLayer(std::unique_ptr<Layer> L) {
  assert(L && "null layer");
  assert((Layers.empty() || Layers.back()->outputSize() == L->inputSize()) &&
         "layer input size must match previous output size");
  Layers.push_back(std::move(L));
}

size_t Network::inputSize() const {
  assert(!Layers.empty() && "empty network");
  return Layers.front()->inputSize();
}

size_t Network::outputSize() const {
  assert(!Layers.empty() && "empty network");
  return Layers.back()->outputSize();
}

Vector Network::evaluate(const Vector &Input) const {
  Vector X = Input;
  for (const auto &L : Layers)
    X = L->forward(X);
  return X;
}

std::vector<Vector> Network::evaluateWithActivations(const Vector &Input) const {
  std::vector<Vector> Acts;
  Acts.reserve(Layers.size() + 1);
  Acts.push_back(Input);
  for (const auto &L : Layers)
    Acts.push_back(L->forward(Acts.back()));
  return Acts;
}

size_t Network::classify(const Vector &Input) const {
  return argmax(evaluate(Input));
}

Matrix Network::evaluateBatch(const Matrix &X) const {
  Matrix Y = X;
  for (const auto &L : Layers)
    Y = L->forwardBatch(Y);
  return Y;
}

std::vector<Matrix> Network::evaluateBatchWithActivations(const Matrix &X) const {
  std::vector<Matrix> Acts;
  Acts.reserve(Layers.size() + 1);
  Acts.push_back(X);
  for (const auto &L : Layers)
    Acts.push_back(L->forwardBatch(Acts.back()));
  return Acts;
}

Vector Network::inputGradient(const Vector &Input, const Vector &Seed) const {
  return backwardPass(evaluateWithActivations(Input), Seed,
                      /*AccumulateParams=*/false);
}

double Network::objective(const Vector &Input, size_t K) const {
  Vector Y = evaluate(Input);
  assert(K < Y.size() && "target class out of range");
  double Best = -std::numeric_limits<double>::infinity();
  for (size_t J = 0, E = Y.size(); J < E; ++J)
    if (J != K && Y[J] > Best)
      Best = Y[J];
  return Y[K] - Best;
}

Vector Network::objectiveGradient(const Vector &Input, size_t K) const {
  // One forward pass serves both the competitor scan and the backward pass.
  std::vector<Vector> Acts = evaluateWithActivations(Input);
  const Vector &Y = Acts.back();
  assert(K < Y.size() && "target class out of range");
  assert(outputSize() >= 2 && "the objective needs a competing class");
  size_t BestJ = K == 0 ? 1 : 0;
  for (size_t J = 0, E = Y.size(); J < E; ++J)
    if (J != K && Y[J] > Y[BestJ])
      BestJ = J;
  // d/dx [ y_K - y_{j*} ] with j* the active competitor class.
  Vector Seed(Y.size());
  Seed[K] = 1.0;
  Seed[BestJ] = -1.0;
  return backwardPass(Acts, Seed, /*AccumulateParams=*/false);
}

Vector Network::objectiveBatch(const Matrix &X, size_t K) const {
  return objectiveOfOutputs(evaluateBatch(X), K);
}

Vector Network::objectiveOfOutputs(const Matrix &Y, size_t K) {
  assert(K < Y.cols() && "target class out of range");
  Vector F(Y.rows());
  for (size_t I = 0, B = Y.rows(); I < B; ++I) {
    const double *Row = Y.row(I);
    double Best = -std::numeric_limits<double>::infinity();
    for (size_t J = 0, E = Y.cols(); J < E; ++J)
      if (J != K && Row[J] > Best)
        Best = Row[J];
    F[I] = Row[K] - Best;
  }
  return F;
}

Matrix
Network::objectiveGradientFromActivations(const std::vector<Matrix> &Acts,
                                          size_t K) const {
  assert(Acts.size() == Layers.size() + 1 &&
         "activation trace size mismatch");
  const Matrix &Y = Acts.back();
  assert(K < Y.cols() && "target class out of range");
  assert(outputSize() >= 2 && "the objective needs a competing class");
  // Per-row seed for d/dx [ y_K - y_{j*} ], with j* resolved by the same
  // first-strictly-greater scan the scalar objectiveGradient uses.
  Matrix Grad(Y.rows(), Y.cols());
  for (size_t I = 0, B = Y.rows(); I < B; ++I) {
    const double *Row = Y.row(I);
    size_t BestJ = K == 0 ? 1 : 0;
    for (size_t J = 0, E = Y.cols(); J < E; ++J)
      if (J != K && Row[J] > Row[BestJ])
        BestJ = J;
    double *Seed = Grad.row(I);
    Seed[K] = 1.0;
    Seed[BestJ] = -1.0;
  }
  for (size_t Iu = Layers.size(); Iu > 0; --Iu) {
    size_t I = Iu - 1;
    Grad = Layers[I]->backwardBatch(Acts[I], Grad);
  }
  return Grad;
}

void Network::warmCaches() const {
  for (const auto &L : Layers) {
    (void)L->affineForm();
    if (const Network *Body = L->residualBody()) {
      Body->warmCaches();
      (void)static_cast<const ResidualLayer &>(*L).plan();
    }
  }
}

Network Network::clone() const {
  Network Copy;
  for (const auto &L : Layers)
    Copy.addLayer(L->clone());
  Copy.Name = Name;
  return Copy;
}

void Network::zeroGradients() {
  for (auto &L : Layers)
    L->zeroGradients();
}

void Network::applyGradients(double LearningRate, double BatchSize) {
  for (auto &L : Layers)
    L->applyGradients(LearningRate, BatchSize);
}

Vector Network::backpropagate(const std::vector<Vector> &Activations,
                              const Vector &GradOut) {
  return backwardPass(Activations, GradOut, /*AccumulateParams=*/true);
}

Vector Network::backwardPass(const std::vector<Vector> &Activations,
                             const Vector &GradOut,
                             bool AccumulateParams) const {
  assert(Activations.size() == Layers.size() + 1 &&
         "activation trace size mismatch");
  Vector Grad = GradOut;
  for (size_t Iu = Layers.size(); Iu > 0; --Iu) {
    size_t I = Iu - 1;
    Grad = Layers[I]->backward(Activations[I], Grad, AccumulateParams);
  }
  return Grad;
}
