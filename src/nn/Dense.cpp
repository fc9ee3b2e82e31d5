//===- Dense.cpp - Fully connected (affine) layer --------------------------===//

#include "nn/Dense.h"

#include "linalg/Kernels.h"
#include "support/Random.h"

#include <cmath>

using namespace charon;

DenseLayer::DenseLayer(size_t In, size_t Out)
    : W(Out, In), B(Out), GradW(Out, In), GradB(Out) {}

DenseLayer::DenseLayer(Matrix Weights, Vector Bias)
    : W(std::move(Weights)), B(std::move(Bias)), GradW(W.rows(), W.cols()),
      GradB(W.rows()) {
  assert(W.rows() == B.size() && "bias size must match output size");
}

void DenseLayer::initHe(Rng &R) {
  double Scale = std::sqrt(2.0 / static_cast<double>(W.cols()));
  for (size_t I = 0, NR = W.rows(); I < NR; ++I)
    for (size_t J = 0, NC = W.cols(); J < NC; ++J)
      W(I, J) = R.gaussian(0.0, Scale);
  B.fill(0.0);
}

Vector DenseLayer::forward(const Vector &Input) const {
  Vector Y = matVec(W, Input);
  Y += B;
  return Y;
}

Vector DenseLayer::backward(const Vector &Input, const Vector &GradOut,
                            bool AccumulateParams) {
  assert(GradOut.size() == W.rows() && "gradient size mismatch");
  if (AccumulateParams) {
    for (size_t I = 0, NR = W.rows(); I < NR; ++I) {
      double G = GradOut[I];
      if (G != 0.0) {
        double *Row = GradW.row(I);
        for (size_t J = 0, NC = W.cols(); J < NC; ++J)
          Row[J] += G * Input[J];
      }
      GradB[I] += G;
    }
  }
  return matTVec(W, GradOut);
}

Matrix DenseLayer::forwardBatch(const Matrix &X) const {
  assert(X.cols() == W.cols() && "batched input size mismatch");
  // forward() runs the full dot first and adds the bias after, as does
  // affineBatch.
  return kernels::affineBatch(X, W, B);
}

Matrix DenseLayer::backwardBatch(const Matrix &X, const Matrix &GradOut) const {
  assert(GradOut.cols() == W.rows() && X.rows() == GradOut.rows() &&
         "batched gradient size mismatch");
  // GradIn = GradOut * W accumulates each element ascending over W's rows
  // and skips zero gradient entries — the same order and sparsity skip as
  // the per-point matTVec.
  return matMul(GradOut, W);
}

void DenseLayer::applyGradients(double LearningRate, double BatchSize) {
  double Step = LearningRate / BatchSize;
  for (size_t I = 0, NR = W.rows(); I < NR; ++I) {
    double *WRow = W.row(I);
    const double *GRow = GradW.row(I);
    for (size_t J = 0, NC = W.cols(); J < NC; ++J)
      WRow[J] -= Step * GRow[J];
    B[I] -= Step * GradB[I];
  }
}

void DenseLayer::zeroGradients() {
  GradW = Matrix(W.rows(), W.cols());
  GradB = Vector(B.size());
}

std::unique_ptr<Layer> DenseLayer::clone() const {
  return std::make_unique<DenseLayer>(W, B);
}
