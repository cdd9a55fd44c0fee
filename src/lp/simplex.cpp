#include "lp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ncfn::lp {

namespace {

constexpr double kTolPivot = 1e-9;
constexpr double kTolFeas = 1e-7;
constexpr double kTolCost = 1e-9;

/// Dense tableau: m rows x (ncols + 1); column ncols holds the RHS.
struct Tableau {
  int m = 0;
  int ncols = 0;
  int active = 0;            // columns [0, active) are priced and pivoted
  std::vector<double> a;     // row-major, m * (ncols + 1)
  std::vector<int> basis;    // basic column per row
  std::vector<double> cost;  // reduced-cost row, length ncols
  double objval = 0.0;
  std::vector<int> rows;  // rows the next pivot updates
  std::vector<int> nz;    // nonzero columns of the pivot row

  double* row(int r) {
    return a.data() + static_cast<std::size_t>(r) * (ncols + 1);
  }
  double& rhs(int r) { return row(r)[ncols]; }

  /// Records in `rows` the rows whose entry in column c is at least
  /// kTolPivot in magnitude: the only rows a pivot on c changes.
  void collect_rows(int c) {
    rows.clear();
    for (int r = 0; r < m; ++r) {
      if (std::abs(row(r)[c]) >= kTolPivot) rows.push_back(r);
    }
  }

  /// Pivots on (pr, pc), updating the rows in `rows` and the cost row
  /// over the pivot row's nonzeros only. Every nonzero sees the same
  /// operations in the same order as in a dense pivot (x - f * 0 == x),
  /// and zeros are never scaled. The RHS is always updated, as in a dense
  /// pivot: it becomes the answer, down to the sign of a zero.
  void pivot(int pr, int pc) {
    double* p = row(pr);
    assert(std::abs(p[pc]) > kTolPivot);
    const double inv = 1.0 / p[pc];
    nz.clear();
    for (int c = 0; c < active; ++c) {
      if (p[c] != 0.0) {
        p[c] *= inv;
        nz.push_back(c);
      }
    }
    p[ncols] *= inv;
    p[pc] = 1.0;  // fight rounding
    for (const int r : rows) {
      if (r == pr) continue;
      double* q = row(r);
      const double f = q[pc];
      for (const int c : nz) q[c] -= f * p[c];
      q[ncols] -= f * p[ncols];
      q[pc] = 0.0;
    }
    const double fc = cost[static_cast<std::size_t>(pc)];
    if (std::abs(fc) > 0) {
      for (const int c : nz) cost[static_cast<std::size_t>(c)] -= fc * p[c];
      objval += fc * p[ncols];
      cost[static_cast<std::size_t>(pc)] = 0.0;
    }
    basis[static_cast<std::size_t>(pr)] = pc;
  }
};

/// Runs the simplex loop (maximization) on the current cost row over the
/// active columns.
Status run_simplex(Tableau& t, std::size_t& iters_left) {
  int degenerate_streak = 0;
  while (iters_left > 0) {
    --iters_left;
    const bool bland = degenerate_streak > 2 * t.ncols;

    // Entering column: positive reduced cost.
    int pc = -1;
    double best = kTolCost;
    for (int c = 0; c < t.active; ++c) {
      const double rc = t.cost[static_cast<std::size_t>(c)];
      if (rc > best) {
        pc = c;
        if (bland) break;  // first eligible index
        best = rc;
      }
    }
    if (pc < 0) return Status::kOptimal;

    // Ratio test over the rows the pivot will update.
    t.collect_rows(pc);
    int pr = -1;
    double best_ratio = 0.0;
    for (const int r : t.rows) {
      const double arc = t.row(r)[pc];
      if (arc <= kTolPivot) continue;
      const double ratio = t.rhs(r) / arc;
      if (pr < 0 || ratio < best_ratio - kTolPivot ||
          (std::abs(ratio - best_ratio) <= kTolPivot &&
           t.basis[static_cast<std::size_t>(r)] <
               t.basis[static_cast<std::size_t>(pr)])) {
        pr = r;
        best_ratio = ratio;
      }
    }
    if (pr < 0) return Status::kUnbounded;

    degenerate_streak = best_ratio < kTolPivot ? degenerate_streak + 1 : 0;
    t.pivot(pr, pc);
  }
  return Status::kIterLimit;
}

/// The relation of a row once a negative right-hand side is negated.
Rel normalized(Rel rel, double rhs) {
  if (!(rhs < 0) || rel == Rel::kEq) return rel;
  return rel == Rel::kLe ? Rel::kGe : Rel::kLe;
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOptimal:
      return "optimal";
    case Status::kInfeasible:
      return "infeasible";
    case Status::kUnbounded:
      return "unbounded";
    case Status::kIterLimit:
      return "stopped at the iteration limit";
    case Status::kNumerical:
      return "failed the residual check";
  }
  return "?";
}

int Problem::add_var(double obj, double hi) {
  obj_.push_back(obj);
  hi_.push_back(hi);
  return static_cast<int>(obj_.size() - 1);
}

void Problem::add_constraint(std::vector<Term> terms, Rel rel, double rhs) {
  for ([[maybe_unused]] const Term& t : terms) {
    assert(t.var >= 0 && t.var < num_vars());
  }
  rows_.push_back(Row{std::move(terms), rel, rhs});
}

double Problem::max_residual(const std::vector<double>& x) const {
  double worst = 0.0;
  for (const Row& row : rows_) {
    double lhs = 0.0, magnitude = 1.0 + std::abs(row.rhs);
    for (const Term& t : row.terms) {
      const double v = t.coeff * x[static_cast<std::size_t>(t.var)];
      lhs += v;
      magnitude += std::abs(v);
    }
    const double over = lhs - row.rhs;
    const double violation = row.rel == Rel::kLe   ? over
                             : row.rel == Rel::kGe ? -over
                                                   : std::abs(over);
    worst = std::max(worst, violation / magnitude);
  }
  for (std::size_t v = 0; v < x.size(); ++v) {
    const double magnitude = 1.0 + std::abs(x[v]);
    worst = std::max({worst, -x[v] / magnitude, (x[v] - hi_[v]) / magnitude});
  }
  return worst;
}

Solution Problem::solve(std::size_t max_iters) const {
  const int n = num_vars();

  // Rows: the user rows, then x_v <= hi_v for every finite bound. A row
  // with a negative RHS enters negated, so every RHS is >= 0.
  std::vector<Row> bound_rows;
  for (int v = 0; v < n; ++v) {
    const double hi = hi_[static_cast<std::size_t>(v)];
    if (std::isfinite(hi)) bound_rows.push_back(Row{{{v, 1.0}}, Rel::kLe, hi});
  }
  const auto row_at = [&](int r) -> const Row& {
    const auto i = static_cast<std::size_t>(r);
    return i < rows_.size() ? rows_[i] : bound_rows[i - rows_.size()];
  };
  const int m = static_cast<int>(rows_.size() + bound_rows.size());

  // Column layout: [0,n) structural, then one slack/surplus per inequality,
  // then artificials for >= and == rows.
  int num_slack = 0, num_art = 0;
  for (int r = 0; r < m; ++r) {
    const Rel rel = normalized(row_at(r).rel, row_at(r).rhs);
    if (rel != Rel::kEq) ++num_slack;
    if (rel != Rel::kLe) ++num_art;
  }
  const int ncols = n + num_slack + num_art;
  const int art_begin = n + num_slack;

  Tableau t;
  t.m = m;
  t.ncols = ncols;
  t.active = ncols;
  t.a.assign(static_cast<std::size_t>(m) * (ncols + 1), 0.0);
  t.basis.assign(static_cast<std::size_t>(m), -1);
  t.cost.assign(static_cast<std::size_t>(ncols), 0.0);

  int slack_col = n, art_col = art_begin;
  for (int r = 0; r < m; ++r) {
    const Row& row = row_at(r);
    const double sign = row.rhs < 0 ? -1.0 : 1.0;
    double* a = t.row(r);
    for (const Term& term : row.terms) a[term.var] += sign * term.coeff;
    a[ncols] = sign * row.rhs;
    switch (normalized(row.rel, row.rhs)) {
      case Rel::kLe:
        a[slack_col] = 1.0;
        t.basis[static_cast<std::size_t>(r)] = slack_col++;
        break;
      case Rel::kGe:
        a[slack_col++] = -1.0;  // surplus
        [[fallthrough]];
      case Rel::kEq:
        a[art_col] = 1.0;
        t.basis[static_cast<std::size_t>(r)] = art_col++;
        break;
    }
  }

  Solution sol;
  std::size_t iters_left = max_iters;

  // ---- Phase 1: maximize -(sum of artificials) ----
  if (num_art > 0) {
    // Maximize z = -(sum of artificials). Substituting each artificial
    // row art_r = rhs_r - sum_c a_rc x_c gives reduced costs
    // cost_j = +sum over artificial rows of a_rj (0 for the basic
    // artificials) and objval = -sum rhs.
    for (int r = 0; r < m; ++r) {
      if (t.basis[static_cast<std::size_t>(r)] < art_begin) continue;
      const double* a = t.row(r);
      for (int c = 0; c < art_begin; ++c) {
        t.cost[static_cast<std::size_t>(c)] += a[c];
      }
      t.objval -= t.rhs(r);
    }

    const Status st = run_simplex(t, iters_left);
    if (st == Status::kIterLimit) {
      sol.status = st;
      return sol;
    }
    if (t.objval < -kTolFeas) {
      sol.status = Status::kInfeasible;
      return sol;
    }
    // Nothing reads the artificial columns again: they leave pricing and
    // pivots. Drive remaining basic artificials out where possible;
    // redundant rows keep a zero-valued artificial that never re-enters.
    t.active = art_begin;
    for (int r = 0; r < m; ++r) {
      if (t.basis[static_cast<std::size_t>(r)] < art_begin) continue;
      const double* a = t.row(r);
      for (int c = 0; c < art_begin; ++c) {
        if (std::abs(a[c]) > kTolPivot) {
          t.collect_rows(c);
          t.pivot(r, c);
          break;
        }
      }
    }
  }

  // ---- Phase 2: real objective ----
  std::fill(t.cost.begin(), t.cost.end(), 0.0);
  t.objval = 0.0;
  for (int c = 0; c < n; ++c) {
    t.cost[static_cast<std::size_t>(c)] = obj_[static_cast<std::size_t>(c)];
  }
  // Price out the current basis.
  for (int r = 0; r < m; ++r) {
    const int b = t.basis[static_cast<std::size_t>(r)];
    const double cb = b < n ? obj_[static_cast<std::size_t>(b)] : 0.0;
    if (cb == 0.0) continue;
    const double* a = t.row(r);
    for (int c = 0; c < t.active; ++c) {
      t.cost[static_cast<std::size_t>(c)] -= cb * a[c];
    }
    t.objval += cb * t.rhs(r);
  }
  for (int r = 0; r < m; ++r) {
    const int b = t.basis[static_cast<std::size_t>(r)];
    t.cost[static_cast<std::size_t>(b)] = 0.0;
  }

  const Status st = run_simplex(t, iters_left);
  if (st != Status::kOptimal) {
    sol.status = st;
    return sol;
  }

  sol.objective = t.objval;
  sol.x.assign(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < m; ++r) {
    const int b = t.basis[static_cast<std::size_t>(r)];
    if (b < n) sol.x[static_cast<std::size_t>(b)] = t.rhs(r);
  }
  // Clamp tiny negatives from rounding.
  for (double& v : sol.x) {
    if (v < 0 && v > -kTolFeas) v = 0;
  }
  // Check the answer against the original rows before calling it optimal.
  sol.status = max_residual(sol.x) > kTolFeas ? Status::kNumerical
                                              : Status::kOptimal;
  return sol;
}

}  // namespace ncfn::lp
