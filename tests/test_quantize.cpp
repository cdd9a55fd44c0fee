// Tests for generation-granular plan quantization (ctrl::quantize_plan):
// fractional per-generation flow quanta must be snapped to whole packets,
// trading at most a few quanta of planned rate, and clean plans must be
// left untouched.
#include <gtest/gtest.h>

#include "app/scenarios.hpp"
#include "ctrl/problem.hpp"
#include "ctrl/quantize.hpp"

using namespace ncfn;
using namespace ncfn::ctrl;

namespace {
/// Per-generation packet count every receiver collects at the plan's
/// lambda (minimum across receivers); -1 if any path rate is fractional
/// in generation quanta.
int min_packets_per_generation(const DeploymentPlan& plan, std::size_t m,
                               std::size_t g) {
  const double lambda = plan.lambda_mbps[m];
  if (lambda <= 0) return 0;
  int mn = 1 << 20;
  for (const auto& paths : plan.path_rates[m]) {
    double total = 0;
    for (const auto& pr : paths) {
      const double n = static_cast<double>(g) * pr.rate_mbps / lambda;
      if (std::abs(n - std::round(n)) > 1e-6) return -1;
      total += n;
    }
    mn = std::min(mn, static_cast<int>(std::round(total)));
  }
  return mn;
}

DeploymentPlan butterfly_plan(double max_rate_1, double max_rate_2) {
  const auto b = app::scenarios::butterfly(false);
  static app::scenarios::Butterfly holder = app::scenarios::butterfly(false);
  DeploymentProblem prob;
  prob.topo = &holder.topo;
  prob.alpha = 0.0;
  SessionSpec s1;
  s1.id = 1;
  s1.source = holder.source;
  s1.receivers = {holder.recv_o2, holder.recv_c2};
  s1.lmax_s = 0.150;
  if (max_rate_1 > 0) s1.max_rate_mbps = max_rate_1;
  prob.sessions.push_back(s1);
  if (max_rate_2 > 0) {
    SessionSpec s2;
    s2.id = 2;
    s2.source = holder.source;
    s2.receivers = {holder.recv_c2};
    s2.lmax_s = 0.150;
    s2.max_rate_mbps = max_rate_2;
    prob.sessions.push_back(s2);
  }
  return solve_deployment(prob);
}
}  // namespace

TEST(Quantize, CleanPlanIsUntouched) {
  // Single butterfly session: 35 + 35 splits are already multiples of
  // lambda/g = 17.5 for g = 4.
  auto plan = butterfly_plan(0, 0);
  ASSERT_TRUE(plan.feasible);
  const double lambda = plan.lambda_mbps[0];
  const auto result = quantize_plan(plan, 4);
  EXPECT_EQ(result.sessions_reduced, 0);
  EXPECT_NEAR(result.rate_lost_mbps, 0.0, 1e-6);
  EXPECT_NEAR(plan.lambda_mbps[0], lambda, 1e-6);
  EXPECT_GE(min_packets_per_generation(plan, 0, 4), 4);
}

TEST(Quantize, FractionalSplitsBecomeIntegral) {
  // 40/20 caps force the joint optimum into fractional per-generation
  // quanta on the shared edges; quantization must restore integrality.
  auto plan = butterfly_plan(40, 20);
  ASSERT_TRUE(plan.feasible);
  quantize_plan(plan, 4);
  for (std::size_t m = 0; m < 2; ++m) {
    if (plan.lambda_mbps[m] <= 0) continue;
    EXPECT_GE(min_packets_per_generation(plan, m, 4),
              4) << "session " << m;
  }
}

TEST(Quantize, LambdaNeverIncreasesAndLossIsBounded) {
  auto plan = butterfly_plan(40, 20);
  ASSERT_TRUE(plan.feasible);
  const std::vector<double> before = plan.lambda_mbps;
  const auto result = quantize_plan(plan, 4);
  double lost = 0;
  for (std::size_t m = 0; m < before.size(); ++m) {
    EXPECT_LE(plan.lambda_mbps[m], before[m] + 1e-9);
    lost += before[m] - plan.lambda_mbps[m];
  }
  EXPECT_NEAR(result.rate_lost_mbps, lost, 1e-6);
  // Each reduction step is one quantum = lambda/g; losing more than
  // g quanta would mean lambda reached zero.
  for (std::size_t m = 0; m < before.size(); ++m) {
    EXPECT_GE(plan.lambda_mbps[m], 0.0);
  }
}

TEST(Quantize, EdgeRatesMatchSnappedPaths) {
  auto plan = butterfly_plan(40, 20);
  ASSERT_TRUE(plan.feasible);
  quantize_plan(plan, 4);
  // f_m(e) = max over receivers of conceptual flow across e.
  const auto b = app::scenarios::butterfly(false);
  for (std::size_t m = 0; m < plan.session_ids.size(); ++m) {
    std::map<graph::EdgeIdx, double> expect;
    for (const auto& paths : plan.path_rates[m]) {
      std::map<graph::EdgeIdx, double> conceptual;
      for (const auto& pr : paths) {
        for (graph::EdgeIdx e : pr.path.edges) conceptual[e] += pr.rate_mbps;
      }
      for (const auto& [e, r] : conceptual) {
        expect[e] = std::max(expect[e], r);
      }
    }
    for (const auto& [e, r] : expect) {
      if (r <= 1e-9) continue;
      auto it = plan.edge_rate_mbps[m].find(e);
      ASSERT_NE(it, plan.edge_rate_mbps[m].end());
      EXPECT_NEAR(it->second, r, 1e-9);
    }
  }
}

TEST(Quantize, QuantizedRatesNeverExceedOriginal) {
  // Wire rates must stay within the LP's (capacity-feasible) assignment.
  auto plan = butterfly_plan(40, 20);
  ASSERT_TRUE(plan.feasible);
  const auto before = plan.edge_rate_mbps;
  quantize_plan(plan, 4);
  for (std::size_t m = 0; m < plan.session_ids.size(); ++m) {
    for (const auto& [e, r] : plan.edge_rate_mbps[m]) {
      const auto it = before[m].find(e);
      ASSERT_NE(it, before[m].end());
      EXPECT_LE(r, it->second + 1e-6);
    }
  }
}

TEST(Quantize, ZeroLambdaSessionIsLeftAlone) {
  auto plan = butterfly_plan(0, 0);
  ASSERT_TRUE(plan.feasible);
  plan.lambda_mbps[0] = 0.0;
  const auto result = quantize_plan(plan, 4);
  EXPECT_EQ(result.sessions_reduced, 0);
  EXPECT_EQ(plan.lambda_mbps[0], 0.0);
}

TEST(Quantize, LargerGenerationsNeedLessReduction) {
  // Finer quanta (bigger g) lose less rate on awkward splits.
  auto coarse = butterfly_plan(40, 20);
  auto fine = butterfly_plan(40, 20);
  ASSERT_TRUE(coarse.feasible);
  const auto r4 = quantize_plan(coarse, 4);
  const auto r16 = quantize_plan(fine, 16);
  EXPECT_LE(r16.rate_lost_mbps, r4.rate_lost_mbps + 1e-6);
}

TEST(Quantize, SingleBlockGenerationsKeepTheBestPathRate) {
  // At g = 1 the only quantum steps are lambda = 70 and 0, and neither is
  // integral for the butterfly's two 35-Mbps paths per receiver. Each
  // receiver's best path alone carries the generation's one packet at
  // lambda' = 35, so the session keeps that rate and all its edges.
  auto plan = butterfly_plan(0, 0);
  ASSERT_TRUE(plan.feasible);
  ASSERT_NEAR(plan.lambda_mbps[0], 70.0, 1e-6);
  const auto before = plan.edge_rate_mbps[0];
  const QuantizeResult result = quantize_plan(plan, 1);
  EXPECT_EQ(result.sessions_reduced, 1);
  EXPECT_NEAR(plan.lambda_mbps[0], 35.0, 1e-6);
  EXPECT_GE(min_packets_per_generation(plan, 0, 1), 1);
  ASSERT_EQ(plan.edge_rate_mbps[0].size(), before.size());
  for (const auto& [e, r] : before) {
    const auto it = plan.edge_rate_mbps[0].find(e);
    ASSERT_NE(it, plan.edge_rate_mbps[0].end()) << "edge " << e;
    EXPECT_GT(it->second, 0.0) << "edge " << e;
    EXPECT_LE(it->second, r + 1e-6) << "edge " << e;
  }
}

TEST(Quantize, PathlessReceiverZerosSessionAndCountsIt) {
  // A re-solve after a failure can leave a receiver with no surviving
  // paths; no lambda > 0 reaches integrality for it, so the session is
  // zeroed (not left streaming into a void) and counted as reduced.
  DeploymentPlan plan;
  plan.feasible = true;
  plan.session_ids = {7};
  plan.lambda_mbps = {10.0};
  plan.path_rates.resize(1);
  plan.path_rates[0].resize(2);
  PathRate pr;
  pr.rate_mbps = 10.0;
  plan.path_rates[0][0].push_back(pr);  // receiver 0: one full-rate path
  // receiver 1: no paths at all.
  plan.edge_rate_mbps.resize(1);
  plan.edge_rate_mbps[0][0] = 10.0;

  const QuantizeResult result = quantize_plan(plan, 64);
  EXPECT_EQ(result.sessions_reduced, 1);
  EXPECT_NEAR(result.rate_lost_mbps, 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(plan.lambda_mbps[0], 0.0);
  // Path and edge rates are snapped to the zeroed lambda.
  for (const auto& paths : plan.path_rates[0]) {
    for (const auto& p : paths) EXPECT_DOUBLE_EQ(p.rate_mbps, 0.0);
  }
  EXPECT_TRUE(plan.edge_rate_mbps[0].empty());
}
