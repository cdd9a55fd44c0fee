// Tests for the two-phase simplex solver: textbook LPs, edge cases
// (infeasible / unbounded / degenerate / iteration limit), bounds,
// fixing, equality rows, and residual checks on random LPs.
#include <gtest/gtest.h>

#include <random>

#include "lp/simplex.hpp"

using namespace ncfn::lp;

TEST(Simplex, TextbookTwoVariable) {
  // max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18  -> x=2, y=6, obj=36.
  Problem p;
  const int x = p.add_var(3.0);
  const int y = p.add_var(5.0);
  p.add_constraint({{x, 1.0}}, Rel::kLe, 4.0);
  p.add_constraint({{y, 2.0}}, Rel::kLe, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Rel::kLe, 18.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 36.0, 1e-7);
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
  EXPECT_NEAR(s.x[1], 6.0, 1e-7);
}

TEST(Simplex, GreaterEqualConstraints) {
  // max -x - y s.t. x + y >= 3, x >= 1  -> x in [1,?], optimum x+y=3.
  Problem p;
  const int x = p.add_var(-1.0);
  const int y = p.add_var(-1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kGe, 3.0);
  p.add_constraint({{x, 1.0}}, Rel::kGe, 1.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -3.0, 1e-7);
  EXPECT_NEAR(s.x[0] + s.x[1], 3.0, 1e-7);
  EXPECT_GE(s.x[0], 1.0 - 1e-7);
}

TEST(Simplex, EqualityConstraints) {
  // max x + 2y s.t. x + y = 5, x - y = 1 -> x=3, y=2, obj=7.
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(2.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kEq, 5.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Rel::kEq, 1.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 3.0, 1e-7);
  EXPECT_NEAR(s.x[1], 2.0, 1e-7);
  EXPECT_NEAR(s.objective, 7.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  Problem p;
  const int x = p.add_var(1.0);
  p.add_constraint({{x, 1.0}}, Rel::kLe, 1.0);
  p.add_constraint({{x, 1.0}}, Rel::kGe, 2.0);
  EXPECT_EQ(p.solve().status, Status::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(0.0);
  p.add_constraint({{y, 1.0}}, Rel::kLe, 5.0);
  (void)x;
  EXPECT_EQ(p.solve().status, Status::kUnbounded);
}

TEST(Simplex, UpperBoundsRespected) {
  Problem p;
  const int x = p.add_var(1.0, /*hi=*/2.5);
  p.add_constraint({{x, 1.0}}, Rel::kLe, 100.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 2.5, 1e-7);
}

TEST(Simplex, FixPinsVariable) {
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 10.0);
  p.fix(x, 3.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 3.0, 1e-7);
  EXPECT_NEAR(s.x[1], 7.0, 1e-7);
}

TEST(Simplex, NegativeRhsNormalization) {
  // max -x s.t. -x <= -2  (i.e. x >= 2) -> x = 2.
  Problem p;
  const int x = p.add_var(-1.0);
  p.add_constraint({{x, -1.0}}, Rel::kLe, -2.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
}

TEST(Simplex, RepeatedTermsAreSummed) {
  // x + x <= 4 means 2x <= 4.
  Problem p;
  const int x = p.add_var(1.0);
  p.add_constraint({{x, 1.0}, {x, 1.0}}, Rel::kLe, 4.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate vertex: several constraints meet at the optimum.
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(1.0);
  p.add_constraint({{x, 1.0}}, Rel::kLe, 1.0);
  p.add_constraint({{y, 1.0}}, Rel::kLe, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 2.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Rel::kLe, 0.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

TEST(Simplex, RedundantEqualityRows) {
  // x + y = 4 listed twice: phase 1 leaves a redundant artificial basic.
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(0.5);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kEq, 4.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kEq, 4.0);
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 4.0, 1e-7);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);
}

TEST(Simplex, MaxFlowAsLp) {
  // Max-flow on the classic butterfly expressed as an LP must give the
  // min cut. s->a, s->b (cap 1); a->t1, b->t2 (cap 1); a->c, b->c (cap 1);
  // c->d (cap 1); d->t1, d->t2 (cap 1). Single-commodity s->t1:
  // paths: s-a-t1, s-a-c-d-t1, s-b-c-d-t1. Max flow = 2.
  Problem p;
  const int p1 = p.add_var(1.0);
  const int p2 = p.add_var(1.0);
  const int p3 = p.add_var(1.0);
  p.add_constraint({{p1, 1.0}, {p2, 1.0}}, Rel::kLe, 1.0);  // s->a
  p.add_constraint({{p3, 1.0}}, Rel::kLe, 1.0);             // s->b
  p.add_constraint({{p1, 1.0}}, Rel::kLe, 1.0);             // a->t1
  p.add_constraint({{p2, 1.0}, {p3, 1.0}}, Rel::kLe, 1.0);  // c->d
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

TEST(Simplex, RandomizedFeasibilitySanity) {
  // Random LPs with known feasible point x*: optimal objective must be
  // >= c^T x*; and every constraint must hold at the reported solution.
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> coeff(-2.0, 2.0);
  std::uniform_real_distribution<double> pos(0.0, 3.0);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 6, m = 8;
    std::vector<double> xstar(n);
    for (auto& v : xstar) v = pos(rng);
    Problem p;
    std::vector<double> c(n);
    for (int j = 0; j < n; ++j) {
      c[j] = coeff(rng);
      p.add_var(c[j], /*hi=*/10.0);
    }
    std::vector<std::vector<double>> rows(m, std::vector<double>(n));
    std::vector<double> rhs(m);
    for (int i = 0; i < m; ++i) {
      std::vector<Term> terms;
      double lhs_at_star = 0;
      for (int j = 0; j < n; ++j) {
        rows[i][static_cast<std::size_t>(j)] = coeff(rng);
        terms.push_back({j, rows[i][static_cast<std::size_t>(j)]});
        lhs_at_star += rows[i][static_cast<std::size_t>(j)] * xstar[static_cast<std::size_t>(j)];
      }
      rhs[i] = lhs_at_star + pos(rng);  // slack at x*: feasible
      p.add_constraint(std::move(terms), Rel::kLe, rhs[i]);
    }
    const Solution s = p.solve();
    ASSERT_TRUE(s.ok()) << "trial " << trial;
    double obj_star = 0;
    for (int j = 0; j < n; ++j) obj_star += c[static_cast<std::size_t>(j)] * xstar[static_cast<std::size_t>(j)];
    EXPECT_GE(s.objective, obj_star - 1e-6);
    for (int i = 0; i < m; ++i) {
      double lhs = 0;
      for (int j = 0; j < n; ++j) lhs += rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] * s.x[static_cast<std::size_t>(j)];
      EXPECT_LE(lhs, rhs[static_cast<std::size_t>(i)] + 1e-6);
    }
    for (int j = 0; j < n; ++j) {
      EXPECT_GE(s.x[static_cast<std::size_t>(j)], -1e-9);
      EXPECT_LE(s.x[static_cast<std::size_t>(j)], 10.0 + 1e-6);
    }
  }
}

TEST(Simplex, IterationLimitInEitherPhase) {
  // max c(x + y) s.t. x + y >= 2, x - y == 0, x <= 3, y <= 3: phase 1
  // pivots out two artificials, and with c = 1 phase 2 still has to
  // pivot up to x = y = 3.
  const auto build = [](double c) {
    Problem p;
    const int x = p.add_var(c, /*hi=*/3.0);
    const int y = p.add_var(c, /*hi=*/3.0);
    p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kGe, 2.0);
    p.add_constraint({{x, 1.0}, {y, -1.0}}, Rel::kEq, 0.0);
    return p;
  };
  const auto min_budget = [](const Problem& p) {
    std::size_t budget = 0;
    while (p.solve(budget).status != Status::kOptimal) ++budget;
    return budget;
  };
  // With a zero objective phase 2 stops after one pricing pass, so phase
  // 1 takes all but one iteration of the smallest budget that solves.
  const std::size_t phase1 = min_budget(build(0.0)) - 1;
  ASSERT_GE(phase1, 2u);
  const Problem p = build(1.0);
  EXPECT_EQ(p.solve(phase1 - 1).status, Status::kIterLimit);  // in phase 1
  EXPECT_EQ(p.solve(phase1 + 1).status, Status::kIterLimit);  // in phase 2
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 6.0, 1e-9);
  EXPECT_STREQ(status_name(Status::kIterLimit),
               "stopped at the iteration limit");
}

TEST(Simplex, MaxResidualMeasuresViolations) {
  // Each violation counts relative to 1 + |b| + sum |a_j x_j|.
  Problem p;
  const int x = p.add_var(1.0, /*hi=*/4.0);
  const int y = p.add_var(1.0);
  const int z = p.add_var(1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 5.0);
  p.add_constraint({{x, 1.0}}, Rel::kGe, 1.0);
  p.add_constraint({{z, 2.0}}, Rel::kEq, 2.0);
  EXPECT_EQ(p.max_residual({2.0, 1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(p.max_residual({2.0, 4.0, 1.0}), 1.0 / 12.0);  // <= row
  EXPECT_DOUBLE_EQ(p.max_residual({2.0, 1.0, 2.0}), 2.0 / 7.0);   // == row
  // x = -0.5 misses x >= 1 by 1.5 / 2.5 and x >= 0 by 0.5 / 1.5.
  EXPECT_DOUBLE_EQ(p.max_residual({-0.5, 1.0, 1.0}), 1.5 / 2.5);
  EXPECT_DOUBLE_EQ(p.max_residual({4.5, 0.0, 1.0}), 0.5 / 5.5);  // x <= 4
  const Solution s = p.solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 6.0, 1e-9);
  EXPECT_LE(p.max_residual(s.x), 1e-12);
}

TEST(Simplex, RandomMixedRowsAndFixingsHaveTinyResiduals) {
  // Random sparse LPs around a known feasible point x*: <=, >= and ==
  // rows (some listed twice, so phase 1 leaves redundant artificials),
  // negative right-hand sides, and fix() calls. They run phase 1, the
  // drive-out of leftover artificials and phase 2 without the artificial
  // columns; every answer must satisfy every row and bound.
  std::mt19937 rng(2024);
  std::uniform_real_distribution<double> coeff(-2.0, 2.0);
  std::uniform_real_distribution<double> pos(0.0, 3.0);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 4 + static_cast<int>(rng() % 12);
    const int m = 3 + static_cast<int>(rng() % 14);
    std::vector<double> xstar(static_cast<std::size_t>(n));
    for (double& v : xstar) v = rng() % 3 == 0 ? 0.0 : pos(rng);
    Problem p;
    double obj_star = 0;
    for (int j = 0; j < n; ++j) {
      const double c = coeff(rng);
      p.add_var(c, /*hi=*/10.0);
      obj_star += c * xstar[static_cast<std::size_t>(j)];
    }
    for (int i = 0; i < m; ++i) {
      std::vector<Term> terms;
      double lhs = 0;
      for (int j = 0; j < n; ++j) {
        if (rng() % 3 != 0) continue;
        terms.push_back({j, coeff(rng)});
        lhs += terms.back().coeff * xstar[static_cast<std::size_t>(j)];
      }
      const auto rel = static_cast<Rel>(rng() % 3);
      const double rhs = rel == Rel::kLe   ? lhs + pos(rng)
                         : rel == Rel::kGe ? lhs - pos(rng)
                                           : lhs;
      if (rel == Rel::kEq && rng() % 2 == 0) p.add_constraint(terms, rel, rhs);
      p.add_constraint(std::move(terms), rel, rhs);
    }
    for (int j = 0; j < n; ++j) {
      if (rng() % 5 == 0) p.fix(j, xstar[static_cast<std::size_t>(j)]);
    }
    const Solution s = p.solve();
    ASSERT_TRUE(s.ok()) << "trial " << trial;
    EXPECT_LE(p.max_residual(s.x), 1e-9) << "trial " << trial;
    EXPECT_GE(s.objective, obj_star - 1e-6) << "trial " << trial;
  }
}
