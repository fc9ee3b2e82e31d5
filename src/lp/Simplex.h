//===- Simplex.h - Dense two-phase simplex LP solver -------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense two-phase primal simplex solver for problems of the form
///
///   maximize c . x   subject to   A x <= b,   lo <= x <= hi
///
/// with finite variable bounds. This is the substrate of the Reluplex-style
/// complete baseline (Sec. 7.2): Reluplex itself is a simplex variant with
/// native ReLU splitting; our baseline reproduces that behaviour as LP-based
/// branch-and-bound over ReLU activation phases, so it needs exactly this
/// solver. Bland's rule is used near degeneracy to guarantee termination.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_LP_SIMPLEX_H
#define CHARON_LP_SIMPLEX_H

#include "linalg/Vector.h"
#include "support/Timer.h"

#include <utility>
#include <vector>

namespace charon {

/// Outcome of an LP solve.
enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

/// Solution of an LP: status, objective value, and the optimal point
/// (valid only when Status == Optimal).
struct LpResult {
  LpStatus Status = LpStatus::Infeasible;
  double Value = 0.0;
  Vector X;
};

/// A linear program: maximize Objective . x subject to row constraints
/// (sparse) of the form sum coef*x <= rhs plus per-variable bounds.
class LpProblem {
public:
  /// Adds a variable with finite bounds [Lo, Hi]; returns its index.
  int addVariable(double Lo, double Hi);

  /// Adds the constraint sum_{(v,c) in Terms} c * x_v <= Rhs.
  void addLeqConstraint(std::vector<std::pair<int, double>> Terms, double Rhs);

  /// Adds the constraint sum Terms = Rhs (internally two inequalities).
  void addEqConstraint(std::vector<std::pair<int, double>> Terms, double Rhs);

  size_t numVariables() const { return LoBound.size(); }

  /// Maximizes Objective . x. \p Objective must have numVariables entries.
  /// When \p Budget is non-null the solve is abandoned (IterationLimit)
  /// once the deadline expires, checked every few pivots.
  LpResult maximize(const Vector &Objective,
                    const Deadline *Budget = nullptr) const;

private:
  struct Row {
    std::vector<std::pair<int, double>> Terms;
    double Rhs;
  };

  std::vector<double> LoBound;
  std::vector<double> HiBound;
  std::vector<Row> Rows;
};

} // namespace charon

#endif // CHARON_LP_SIMPLEX_H
