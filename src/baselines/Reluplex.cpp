//===- Reluplex.cpp - Complete LP branch-and-bound baseline -------------------===//

#include "baselines/Reluplex.h"

#include "abstract/LinearBoundsElement.h"
#include "lp/Simplex.h"
#include "support/Check.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

using namespace charon;

namespace {

/// Phase decision for one ReLU neuron in the branch-and-bound tree.
enum class Phase : int8_t { Undecided, Active, Inactive };

/// The LP encoding of the network under a vector of phase decisions.
struct Encoding {
  LpProblem Lp;
  std::vector<double> VarLo, VarHi; ///< bounds parallel to LP variables
  /// Final-layer symbolic expressions over LP variables (+ constant).
  std::vector<std::vector<double>> OutCoef;
  std::vector<double> OutConst;
  /// Globally indexed ReLU neurons that remained undecided, with their
  /// crossing widths (for branch selection).
  std::vector<std::pair<int, double>> Undecided;
  bool ProvedEmpty = false; ///< a phase constraint is trivially impossible
};

/// Interval evaluation of a symbolic expression over variable bounds.
void exprBounds(const std::vector<double> &Coef, double Const,
                const std::vector<double> &VarLo,
                const std::vector<double> &VarHi, double &Lo, double &Hi) {
  Lo = Const;
  Hi = Const;
  for (size_t V = 0, E = Coef.size(); V < E; ++V) {
    double C = Coef[V];
    if (C > 0.0) {
      Lo += C * VarLo[V];
      Hi += C * VarHi[V];
    } else if (C < 0.0) {
      Lo += C * VarHi[V];
      Hi += C * VarLo[V];
    }
  }
}

/// Sound pre-activation bounds for every ReLU neuron over \p Region,
/// indexed by global ReLU cursor, computed once with symbolic-interval
/// propagation. Real complete verifiers run exactly this kind of bound
/// tightening before encoding; plain interval bounds mark nearly every
/// deep neuron unstable and make the LPs enormous.
void computePreReluBounds(const Network &Net, const Box &Region,
                          std::vector<double> &PreLo,
                          std::vector<double> &PreHi) {
  LinearBoundsElement Elem(Region,
                           LinearBoundsElement::ReluRelaxation::Concretize);
  for (size_t I = 0, E = Net.numLayers(); I < E; ++I) {
    const Layer &L = Net.layer(I);
    if (L.isIdentity())
      continue;
    if (auto Affine = L.affineForm()) {
      Elem.applyAffine(*Affine->W, *Affine->B);
      continue;
    }
    if (L.isRelu()) {
      for (size_t D = 0, N = Elem.dim(); D < N; ++D) {
        PreLo.push_back(Elem.lowerBound(D));
        PreHi.push_back(Elem.upperBound(D));
      }
      Elem.applyRelu();
      continue;
    }
    charon_unreachable(
        "reluplex baseline supports affine + ReLU networks only");
  }
}

/// Builds the LP encoding of \p Net over \p Region under \p Decisions.
/// Stable neurons are folded symbolically; undecided ones get the triangle
/// relaxation; decided ones get their phase constraint. \p PreLo / \p PreHi
/// are the tightened global pre-activation bounds (sound at every node:
/// phase constraints only shrink the feasible set).
/// \p FoldStable selects the encoding style: when true, neurons whose phase
/// is known are substituted symbolically so expressions stay in terms of
/// the network inputs (a modern, Planet/MILP-style encoding); when false,
/// every active neuron keeps its own LP variable tied by an equality
/// constraint — the original Reluplex's one-variable-per-neuron tableau,
/// whose bounds degrade to plain layer-wise interval propagation and whose
/// LPs are correspondingly enormous.
Encoding buildEncoding(const Network &Net, const Box &Region,
                       const std::vector<Phase> &Decisions,
                       const std::vector<double> &PreLo,
                       const std::vector<double> &PreHi, bool FoldStable) {
  Encoding Enc;
  size_t NumInputs = Region.dim();

  // LP variables start as the network inputs.
  for (size_t I = 0; I < NumInputs; ++I) {
    Enc.Lp.addVariable(Region.lower()[I], Region.upper()[I]);
    Enc.VarLo.push_back(Region.lower()[I]);
    Enc.VarHi.push_back(Region.upper()[I]);
  }

  // Current layer's symbolic rows over LP variables.
  std::vector<std::vector<double>> Coef(NumInputs,
                                        std::vector<double>(NumInputs, 0.0));
  std::vector<double> Const(NumInputs, 0.0);
  for (size_t I = 0; I < NumInputs; ++I)
    Coef[I][I] = 1.0;

  auto SparseTerms = [](const std::vector<double> &Row) {
    std::vector<std::pair<int, double>> Terms;
    for (size_t V = 0; V < Row.size(); ++V)
      if (Row[V] != 0.0)
        Terms.emplace_back(static_cast<int>(V), Row[V]);
    return Terms;
  };

  int ReluCursor = 0;
  for (size_t LayerIdx = 0, E = Net.numLayers(); LayerIdx < E; ++LayerIdx) {
    const Layer &L = Net.layer(LayerIdx);
    if (L.isIdentity())
      continue;
    if (auto Affine = L.affineForm()) {
      const Matrix &W = *Affine->W;
      const Vector &B = *Affine->B;
      size_t OutDim = W.rows();
      size_t NumVars = Enc.VarLo.size();
      std::vector<std::vector<double>> NewCoef(
          OutDim, std::vector<double>(NumVars, 0.0));
      std::vector<double> NewConst(OutDim, 0.0);
      for (size_t R = 0; R < OutDim; ++R) {
        NewConst[R] = B[R];
        for (size_t C = 0, In = W.cols(); C < In; ++C) {
          double Wrc = W(R, C);
          if (Wrc == 0.0)
            continue;
          NewConst[R] += Wrc * Const[C];
          const std::vector<double> &Src = Coef[C];
          std::vector<double> &Dst = NewCoef[R];
          for (size_t V = 0; V < Src.size(); ++V)
            Dst[V] += Wrc * Src[V];
        }
      }
      Coef = std::move(NewCoef);
      Const = std::move(NewConst);
      continue;
    }
    if (L.isRelu()) {
      size_t NumVars = Enc.VarLo.size();
      for (size_t I = 0, N = Coef.size(); I < N; ++I, ++ReluCursor) {
        double Lo, Hi;
        exprBounds(Coef[I], Const[I], Enc.VarLo, Enc.VarHi, Lo, Hi);
        // Intersect with the globally tightened symbolic bounds.
        Lo = std::max(Lo, PreLo[ReluCursor]);
        Hi = std::min(Hi, PreHi[ReluCursor]);
        if (Lo > Hi) {
          // The node's local bounds contradict the global ones; numerics
          // aside this cannot happen, so collapse to the global bounds.
          Lo = PreLo[ReluCursor];
          Hi = PreHi[ReluCursor];
        }
        Phase P = Decisions[ReluCursor];
        if (P == Phase::Undecided) {
          if (Lo >= 0.0)
            P = Phase::Active; // stable: fold without constraints
          else if (Hi <= 0.0)
            P = Phase::Inactive;
        } else {
          // Branch constraint: x >= 0 (active) or x <= 0 (inactive). If the
          // bounds already contradict the decision, the region is empty.
          if (P == Phase::Active && Hi < 0.0) {
            Enc.ProvedEmpty = true;
            return Enc;
          }
          if (P == Phase::Inactive && Lo > 0.0) {
            Enc.ProvedEmpty = true;
            return Enc;
          }
        }

        if (P == Phase::Active) {
          if (Lo < 0.0) {
            // Forced-active branch: add x >= 0, i.e. -x <= 0.
            std::vector<double> Neg = Coef[I];
            for (double &V : Neg)
              V = -V;
            Enc.Lp.addLeqConstraint(SparseTerms(Neg), Const[I]);
          }
          if (FoldStable)
            continue; // y = x symbolically (no new variable).
          // Reluplex-style: a fresh variable tied to the pre-activation by
          // an equality constraint.
          int Y = Enc.Lp.addVariable(std::max(0.0, Lo), std::max(0.0, Hi));
          Enc.VarLo.push_back(std::max(0.0, Lo));
          Enc.VarHi.push_back(std::max(0.0, Hi));
          NumVars = Enc.VarLo.size();
          std::vector<std::pair<int, double>> EqTerms = SparseTerms(Coef[I]);
          EqTerms.emplace_back(Y, -1.0);
          Enc.Lp.addEqConstraint(std::move(EqTerms), -Const[I]);
          Coef[I].assign(NumVars, 0.0);
          Coef[I][Y] = 1.0;
          Const[I] = 0.0;
          continue;
        }
        if (P == Phase::Inactive) {
          if (Hi > 0.0)
            Enc.Lp.addLeqConstraint(SparseTerms(Coef[I]), -Const[I]);
          std::fill(Coef[I].begin(), Coef[I].end(), 0.0);
          Const[I] = 0.0;
          continue; // y = 0.
        }

        // Genuinely undecided: triangle relaxation with a fresh variable
        // y in [0, Hi]: y >= x, y >= 0 (bound), y <= Lambda * (x - Lo).
        int Y = Enc.Lp.addVariable(0.0, Hi);
        // Keep VarLo/VarHi parallel for later interval evaluations.
        Enc.VarLo.push_back(0.0);
        Enc.VarHi.push_back(Hi);
        NumVars = Enc.VarLo.size();

        // y >= x: x - y <= 0.
        std::vector<std::pair<int, double>> GeTerms = SparseTerms(Coef[I]);
        GeTerms.emplace_back(Y, -1.0);
        Enc.Lp.addLeqConstraint(std::move(GeTerms), -Const[I]);

        // y <= Lambda (x - Lo): y - Lambda x <= Lambda (Const - ... ) —
        // expanded: y - Lambda * sum(c v) <= Lambda * (Const[I] is inside x)
        double Lambda = Hi / (Hi - Lo);
        std::vector<std::pair<int, double>> UbTerms;
        for (size_t V = 0; V < Coef[I].size(); ++V)
          if (Coef[I][V] != 0.0)
            UbTerms.emplace_back(static_cast<int>(V), -Lambda * Coef[I][V]);
        UbTerms.emplace_back(Y, 1.0);
        Enc.Lp.addLeqConstraint(std::move(UbTerms),
                                Lambda * (Const[I] - Lo));

        Enc.Undecided.emplace_back(ReluCursor, Hi - Lo);

        // Replace the symbolic row by the fresh variable.
        Coef[I].assign(NumVars, 0.0);
        Coef[I][Y] = 1.0;
        Const[I] = 0.0;
      }
      // Pad all rows to the (possibly grown) variable count.
      size_t FinalVars = Enc.VarLo.size();
      for (auto &Row : Coef)
        Row.resize(FinalVars, 0.0);
      continue;
    }
    charon_unreachable(
        "reluplex baseline supports affine + ReLU networks only");
  }

  size_t FinalVars = Enc.VarLo.size();
  for (auto &Row : Coef)
    Row.resize(FinalVars, 0.0);
  Enc.OutCoef = std::move(Coef);
  Enc.OutConst = std::move(Const);
  return Enc;
}

/// Counts the ReLU neurons of the network (global phase-vector size).
size_t countRelus(const Network &Net) {
  size_t Count = 0;
  for (size_t I = 0, E = Net.numLayers(); I < E; ++I)
    if (Net.layer(I).isRelu())
      Count += Net.layer(I).inputSize();
  return Count;
}

/// True when every layer fits the LP encoding: affine or ReLU (identity
/// layers pass through). Smooth activations, pooling, and residual blocks
/// do not — callers get a sound Timeout instead of an abort on the expanded
/// layer zoo.
bool encodable(const Network &Net) {
  for (size_t I = 0, E = Net.numLayers(); I < E; ++I) {
    const Layer &L = Net.layer(I);
    if (L.isIdentity() || L.affineForm() || L.isRelu())
      continue;
    return false;
  }
  return true;
}

} // namespace

ReluplexResult charon::reluplexVerify(const Network &Net,
                                      const RobustnessProperty &Prop,
                                      const ReluplexConfig &Config) {
  Deadline Budget(Config.TimeLimitSeconds);
  Stopwatch Watch;
  ReluplexResult Result;

  if (!encodable(Net)) {
    // Smooth activation / pooling / residual layers have no exact LP
    // encoding here; report the sound "don't know" verdict.
    Result.Result = Outcome::Timeout;
    Result.Seconds = Watch.seconds();
    return Result;
  }

  size_t K = Prop.TargetClass;
  size_t NumRelus = countRelus(Net);

  // Optional one-time bound tightening over the whole region; without it
  // the per-node interval bounds are used alone (original Reluplex).
  std::vector<double> PreLo, PreHi;
  if (Config.SymbolicBoundTightening) {
    PreLo.reserve(NumRelus);
    PreHi.reserve(NumRelus);
    computePreReluBounds(Net, Prop.Region, PreLo, PreHi);
    assert(PreLo.size() == NumRelus && "bound/relu count mismatch");
  } else {
    PreLo.assign(NumRelus, -std::numeric_limits<double>::infinity());
    PreHi.assign(NumRelus, std::numeric_limits<double>::infinity());
  }

  std::vector<std::vector<Phase>> Work;
  Work.emplace_back(NumRelus, Phase::Undecided);

  constexpr double ProofTol = 1e-7;

  while (!Work.empty()) {
    if (Budget.expired() || Result.Nodes >= Config.MaxNodes) {
      Result.Result = Outcome::Timeout;
      Result.Seconds = Watch.seconds();
      return Result;
    }
    std::vector<Phase> Decisions = std::move(Work.back());
    Work.pop_back();
    ++Result.Nodes;

    Encoding Enc =
        buildEncoding(Net, Prop.Region, Decisions, PreLo, PreHi,
                      /*FoldStable=*/Config.SymbolicBoundTightening);
    if (Enc.ProvedEmpty)
      continue; // Contradictory phases: no inputs here.

    size_t NumVars = Enc.VarLo.size();
    bool NodeRefuted = false;
    bool NodeProved = true;
    for (size_t J = 0, M = Net.outputSize(); J < M; ++J) {
      if (J == K)
        continue;
      if (Budget.expired()) {
        Result.Result = Outcome::Timeout;
        Result.Seconds = Watch.seconds();
        return Result;
      }
      Vector Objective(NumVars);
      for (size_t V = 0; V < NumVars; ++V)
        Objective[V] = Enc.OutCoef[J][V] - Enc.OutCoef[K][V];
      double ConstDiff = Enc.OutConst[J] - Enc.OutConst[K];

      ++Result.LpSolves;
      LpResult Lp = Enc.Lp.maximize(Objective, &Budget);
      if (Lp.Status == LpStatus::Infeasible)
        continue; // Phase constraints carve out an empty region.
      if (Lp.Status != LpStatus::Optimal) {
        // Numerical trouble: stay sound by refusing to prove this node.
        NodeProved = false;
        continue;
      }
      double MaxDiff = Lp.Value + ConstDiff;
      if (MaxDiff <= ProofTol)
        continue; // Class J cannot beat K anywhere in this node.

      NodeProved = false;
      // Reluplex only reports SAT from a converged assignment — i.e. one
      // satisfying every ReLU constraint exactly, which here means a leaf
      // with all phases fixed. Relaxation optima at inner nodes are not
      // witnesses (this is why the paper observes Reluplex falsifying
      // almost nothing, Sec. 7.3).
      if (Enc.Undecided.empty()) {
        Vector Candidate(Prop.Region.dim());
        for (size_t V = 0; V < Candidate.size(); ++V)
          Candidate[V] = Lp.X[V];
        Candidate = Prop.Region.project(Candidate);
        if (Net.objective(Candidate, K) <= 0.0) {
          Result.Result = Outcome::Falsified;
          Result.Counterexample = std::move(Candidate);
          Result.Seconds = Watch.seconds();
          return Result;
        }
        // A leaf is exact up to LP tolerances; a strictly positive optimum
        // whose candidate fails concretely means numerics — handled
        // conservatively below.
        NodeRefuted = true;
      }
      break; // Must branch (or handle exact leaf); other classes can wait.
    }

    if (NodeProved)
      continue;

    if (Enc.Undecided.empty()) {
      if (NodeRefuted) {
        // Exact leaf claims a violation but the candidate did not check
        // out concretely: declare timeout rather than risk unsoundness.
        Result.Result = Outcome::Timeout;
        Result.Seconds = Watch.seconds();
        return Result;
      }
      continue;
    }

    // Branch on the first undecided neuron (topological order), mirroring
    // the original Reluplex's lazy, unprioritized case splitting.
    int BranchId = Enc.Undecided.front().first;

    std::vector<Phase> ActiveChild = Decisions;
    ActiveChild[BranchId] = Phase::Active;
    std::vector<Phase> InactiveChild = std::move(Decisions);
    InactiveChild[BranchId] = Phase::Inactive;
    Work.push_back(std::move(ActiveChild));
    Work.push_back(std::move(InactiveChild));
  }

  Result.Result = Outcome::Verified;
  Result.Seconds = Watch.seconds();
  return Result;
}
