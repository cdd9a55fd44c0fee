// Linear programming by two-phase primal simplex on a dense tableau with
// sparse pivots — the substitute for glpk/cplex, which the paper uses to
// solve (the relaxation of) optimization problem (2).
//
// Problem sizes in this system are small (5–20 data centers, a handful of
// sessions, a few hundred path variables), so a dense tableau with
// Dantzig pricing and a Bland anti-cycling fallback is both exact and
// fast. Maximization form:
//
//     maximize    c^T x
//     subject to  a_i^T x  {<=, >=, =}  b_i      for each row i
//                 0 <= x_j <= hi_j               (hi may be +infinity)
//
// Finite upper bounds are handled by adding a row (fine at this scale).
//
// The rows of problem (2) are sparse, and so are their pivots: a pivot
// updates only the rows whose entry in the entering column is at least
// the pivot tolerance, and in them only the columns where the pivot row
// is nonzero, plus the RHS. Every nonzero sees the same operations in the
// same order as in a dense pivot, and zeros are never scaled, so the
// pivot sequence and every result are bit-identical to the dense
// tableau. After phase 1 the artificial columns leave pricing and pivots.
#pragma once

#include <limits>
#include <vector>

namespace ncfn::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Rel { kLe, kGe, kEq };

/// kNumerical: the final basis fails Problem::max_residual's check.
enum class Status { kOptimal, kInfeasible, kUnbounded, kIterLimit, kNumerical };

/// How a solve ended, worded to follow "LP relaxation ...", e.g.
/// "stopped at the iteration limit".
[[nodiscard]] const char* status_name(Status s);

struct Term {
  int var;
  double coeff;
};

struct Solution {
  Status status = Status::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;

  [[nodiscard]] bool ok() const { return status == Status::kOptimal; }
};

class Problem {
 public:
  /// Add a variable with bounds [0, hi] and objective coefficient `obj`.
  /// Returns the variable index.
  int add_var(double obj, double hi = kInf);

  /// Tighten a variable's upper bound (lower bound stays 0).
  void set_upper_bound(int var, double hi) { hi_.at(static_cast<std::size_t>(var)) = hi; }

  /// Fix a variable to a value: adds an equality row var == v.
  void fix(int var, double v) { add_constraint({{var, 1.0}}, Rel::kEq, v); }

  /// Add a general linear constraint. Terms may repeat a variable
  /// (coefficients are summed).
  void add_constraint(std::vector<Term> terms, Rel rel, double rhs);

  [[nodiscard]] int num_vars() const { return static_cast<int>(obj_.size()); }

  /// Solve. `max_iters` bounds total simplex pivots. An optimal basis
  /// whose max_residual exceeds 1e-7 is reported as kNumerical.
  [[nodiscard]] Solution solve(std::size_t max_iters = 100000) const;

  /// The largest violation of any row or bound at `x` (one value per
  /// variable), relative to the row's magnitude 1 + |b_i| + sum_j
  /// |a_ij x_j|; 0 when x is feasible. O(nonzeros).
  [[nodiscard]] double max_residual(const std::vector<double>& x) const;

 private:
  struct Row {
    std::vector<Term> terms;
    Rel rel;
    double rhs;
  };

  std::vector<double> obj_;
  std::vector<double> hi_;
  std::vector<Row> rows_;
};

}  // namespace ncfn::lp
