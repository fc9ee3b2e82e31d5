//===- GaussianProcess.h - GP regression for Bayesian optimization -*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gaussian-process regression with a squared-exponential kernel — the
/// surrogate model the paper adopts for Bayesian optimization of the
/// verification policy (Sec. 4.2, "we adopt a Gaussian process as our
/// surrogate model"). Stands in for the BayesOpt library.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_OPT_GAUSSIANPROCESS_H
#define CHARON_OPT_GAUSSIANPROCESS_H

#include "linalg/Cholesky.h"
#include "linalg/Vector.h"

#include <memory>
#include <vector>

namespace charon {

/// GP hyperparameters.
struct GpConfig {
  double LengthScale = 1.0;   ///< kernel length scale (isotropic)
  double SignalVariance = 1.0; ///< kernel amplitude sigma_f^2
  double NoiseVariance = 1e-4; ///< observation noise sigma_n^2
};

/// Posterior mean and variance at a query point.
struct GpPrediction {
  double Mean = 0.0;
  double Variance = 0.0;
};

/// Gaussian-process regressor with squared-exponential kernel
/// k(a, b) = sigma_f^2 exp(-||a-b||^2 / (2 l^2)) + sigma_n^2 [a == b].
class GaussianProcess {
public:
  explicit GaussianProcess(GpConfig Config = GpConfig());

  /// Fits the posterior to observations (X[i], Y[i]). Increases jitter
  /// automatically until the kernel matrix factorizes. Returns false if
  /// even heavy jitter fails (pathological duplicate inputs).
  bool fit(std::vector<Vector> X, Vector Y);

  /// Posterior at \p Query; requires a successful fit.
  GpPrediction predict(const Vector &Query) const;

  /// Kernel value between two points (exposed for tests).
  double kernel(const Vector &A, const Vector &B) const;

private:
  GpConfig Config;
  std::vector<Vector> Xs;
  Vector Alpha;                     ///< K^-1 y
  std::unique_ptr<Cholesky> Factor; ///< Cholesky of K (with jitter)
};

} // namespace charon

#endif // CHARON_OPT_GAUSSIANPROCESS_H
