//===- Pgd.cpp - Projected gradient descent counterexample search ------------===//

#include "opt/Pgd.h"

#include "linalg/Kernels.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

using namespace charon;

namespace {

Vector rowToVector(const Matrix &M, size_t I) {
  Vector V(M.cols());
  const double *Row = M.row(I);
  std::copy(Row, Row + M.cols(), V.data());
  return V;
}

/// Gathers the listed rows of \p X into a dense batch (the active-chain
/// compaction: frozen chains drop out of the kernel calls entirely). Row
/// gathers are safe for bit-identity because every batched kernel treats
/// rows independently.
Matrix gatherRows(const Matrix &X, const std::vector<int> &Rows) {
  Matrix Out(Rows.size(), X.cols());
  for (size_t I = 0, E = Rows.size(); I < E; ++I) {
    const double *Src = X.row(static_cast<size_t>(Rows[I]));
    std::copy(Src, Src + X.cols(), Out.row(I));
  }
  return Out;
}

/// Batched engine: one fused forward pass scores a population, and its
/// activations are kept so the gradient of the population last scored
/// costs one backward pass.
struct BatchedEval {
  const Network &Net;
  size_t K;
  std::vector<Matrix> Acts;

  Vector score(const Matrix &X) {
    Acts = Net.evaluateBatchWithActivations(X);
    return Network::objectiveOfOutputs(Acts.back(), K);
  }
  Matrix gradientOfScored() const {
    return Net.objectiveGradientFromActivations(Acts, K);
  }
};

/// Reference engine: the same population semantics evaluated row by row
/// through the scalar Network calls, recomputing everything. The
/// equivalence tests pin the batched engine against this oracle bit for
/// bit.
struct ScalarEval {
  const Network &Net;
  size_t K;
  Matrix Scored;

  Vector score(const Matrix &X) {
    Scored = X;
    Vector F(X.rows());
    for (size_t I = 0, B = X.rows(); I < B; ++I)
      F[I] = Net.objective(rowToVector(X, I), K);
    return F;
  }
  Matrix gradientOfScored() const {
    Matrix G(Scored.rows(), Scored.cols());
    for (size_t I = 0, B = Scored.rows(); I < B; ++I) {
      Vector Row = Net.objectiveGradient(rowToVector(Scored, I), K);
      std::copy(Row.data(), Row.data() + Row.size(), G.row(I));
    }
    return G;
  }
};

/// The lock-step population driver shared by both engines: the engines may
/// only differ in how they evaluate a batch, never in the search semantics.
/// Each step differentiates exactly the batch scored last (the initial
/// population, then each step's moved chains), so the engine is asked for
/// the gradient of that batch rather than handed the rows again.
template <typename Eval>
PgdResult pgdDrive(const Box &Region, const PgdConfig &Config, Rng &R,
                   const Vector *WarmStart, Eval E) {
  const size_t N = Region.dim();
  const int Chains = std::max(1, Config.Restarts);

  // All start points are drawn up front, in the same order the sequential
  // restart loop drew them (steps consume no randomness, so the stream is
  // unchanged): slot 0 is deterministic — the projected parent witness when
  // warm-started, else the region center — and the rest uniform samples.
  Matrix X(static_cast<size_t>(Chains), N);
  {
    Vector S0 = WarmStart ? Region.project(*WarmStart) : Region.center();
    std::copy(S0.data(), S0.data() + N, X.row(0));
  }
  for (int C = 1; C < Chains; ++C) {
    Vector S = Region.sample(R);
    std::copy(S.data(), S.data() + N, X.row(static_cast<size_t>(C)));
  }

  PgdResult Best;
  Best.X = rowToVector(X, 0);
  Best.Objective = std::numeric_limits<double>::infinity();

  // Strict-< scan in ascending chain order, so ties keep the earliest
  // chain; returns true once the early-stop bound is reached.
  auto Update = [&Best, &Config](const Matrix &Xs, const Vector &F) {
    for (size_t I = 0, B = Xs.rows(); I < B; ++I)
      if (F[I] < Best.Objective) {
        Best.Objective = F[I];
        Best.X = rowToVector(Xs, I);
      }
    return Best.Objective <= Config.EarlyStopObjective;
  };

  if (Update(X, E.score(X)))
    return Best;

  const Vector &Lo = Region.lower();
  const Vector &Hi = Region.upper();

  // Chains that still have a descent direction, ascending; row A of the
  // batch scored last is chain Active[A]. A chain whose signed step moves
  // nothing (dead-ReLU zero gradient) can never move again and is dropped
  // from the population.
  std::vector<int> Active(static_cast<size_t>(Chains));
  std::iota(Active.begin(), Active.end(), 0);

  for (int Step = 0; Step < Config.Steps && !Active.empty(); ++Step) {
    Matrix G = E.gradientOfScored();
    // Signed steps scaled per dimension by the region width (the natural
    // metric for L-infinity style regions), with 1/sqrt(t) decay. Rows are
    // independent, so sharding the sweep cannot affect results.
    double Decay = 1.0 / std::sqrt(1.0 + Step);
    std::vector<uint8_t> Moved(Active.size(), 0);
    kernels::parallelFor(
        Active.size(), 4 * N, [&](size_t Begin, size_t End) {
          for (size_t A = Begin; A < End; ++A) {
            double *Row = X.row(static_cast<size_t>(Active[A]));
            const double *GRow = G.row(A);
            bool DidMove = false;
            for (size_t I = 0; I < N; ++I) {
              double W = Hi[I] - Lo[I];
              if (W == 0.0 || GRow[I] == 0.0)
                continue;
              Row[I] -= PgdInitialStep * Decay * W *
                        (GRow[I] > 0.0 ? 1.0 : -1.0);
              DidMove = true;
            }
            if (!DidMove)
              continue;
            Moved[A] = 1;
            for (size_t I = 0; I < N; ++I)
              Row[I] = std::min(std::max(Row[I], Lo[I]), Hi[I]);
          }
        });
    std::vector<int> Next;
    Next.reserve(Active.size());
    for (size_t A = 0, AE = Active.size(); A < AE; ++A)
      if (Moved[A])
        Next.push_back(Active[A]);
    Active = std::move(Next);
    if (Active.empty())
      break;
    Matrix Xa = gatherRows(X, Active);
    if (Update(Xa, E.score(Xa)))
      return Best;
  }
  return Best;
}

} // namespace

PgdResult charon::pgdMinimize(const Network &Net, const Box &Region, size_t K,
                              const PgdConfig &Config, Rng &R,
                              const Vector *WarmStart) {
  if (Config.Engine == PgdEngine::Scalar)
    return pgdDrive(Region, Config, R, WarmStart, ScalarEval{Net, K, {}});
  return pgdDrive(Region, Config, R, WarmStart, BatchedEval{Net, K, {}});
}
