#include "ctrl/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace ncfn::ctrl {

namespace {
constexpr double kEps = 1e-9;

/// Packets per generation path p delivers at session rate lambda.
/// Computed and returned in 64 bits: a plain int cast of the double
/// product narrows, and (with a tiny lambda) can overflow int — which
/// float-cast-overflow UBSan rightly rejects. The floored value is an
/// exact integer, so llround converts it losslessly.
std::int64_t per_gen_count(double rate_mbps, double lambda_mbps,
                           std::size_t g) {
  return std::llround(
      std::floor(static_cast<double>(g) * rate_mbps / lambda_mbps + kEps));
}

/// True if every receiver collects >= g packets per generation at lambda.
bool integral_at(const std::vector<std::vector<PathRate>>& receivers,
                 double lambda_mbps, std::size_t g) {
  for (const auto& paths : receivers) {
    std::int64_t total = 0;
    for (const PathRate& pr : paths) {
      total += per_gen_count(pr.rate_mbps, lambda_mbps, g);
    }
    if (total < static_cast<std::int64_t>(g)) return false;
  }
  return true;
}
}  // namespace

QuantizeResult quantize_plan(DeploymentPlan& plan,
                             std::size_t generation_blocks) {
  QuantizeResult result;
  const auto g = static_cast<double>(generation_blocks);

  for (std::size_t m = 0; m < plan.session_ids.size(); ++m) {
    const double lambda = plan.lambda_mbps[m];
    if (lambda <= kEps) continue;
    auto& receivers = plan.path_rates[m];

    // Walk lambda down one quantum at a time until every receiver's
    // floored per-generation counts sum to >= g. Each step enlarges every
    // count monotonically, so this terminates quickly.
    double lambda_q = lambda;
    const double quantum = lambda / g;
    while (lambda_q > quantum - kEps &&
           !integral_at(receivers, lambda_q, generation_blocks)) {
      lambda_q -= quantum;
    }
    if (lambda_q <= quantum - kEps) {
      // No step was integral (at g = 1 the only steps are lambda and 0).
      // At the smallest best-path rate across receivers, each receiver's
      // best path alone carries g packets per generation; only a receiver
      // with no path zeroes the session.
      lambda_q = lambda;
      for (const auto& paths : receivers) {
        double best = 0.0;
        for (const PathRate& pr : paths) best = std::max(best, pr.rate_mbps);
        lambda_q = std::min(lambda_q, best);
      }
      if (lambda_q <= kEps) lambda_q = 0.0;
    }

    if (lambda_q < lambda - kEps) {
      ++result.sessions_reduced;
      result.rate_lost_mbps += lambda - lambda_q;
    }
    plan.lambda_mbps[m] = lambda_q;

    // Snap path rates to whole per-generation packet counts at lambda_q.
    for (auto& paths : receivers) {
      for (PathRate& pr : paths) {
        const std::int64_t n =
            lambda_q > kEps
                ? per_gen_count(pr.rate_mbps, lambda_q, generation_blocks)
                : 0;
        pr.rate_mbps = static_cast<double>(n) * lambda_q / g;
      }
    }

    // Recompute actual edge rates: f_m(e) = max over receivers of the
    // conceptual flow crossing e (Eqn. (1) of the paper).
    plan.edge_rate_mbps[m].clear();
    for (const auto& paths : receivers) {
      std::map<graph::EdgeIdx, double> conceptual;
      for (const PathRate& pr : paths) {
        if (pr.rate_mbps <= kEps) continue;
        for (graph::EdgeIdx e : pr.path.edges) {
          conceptual[e] += pr.rate_mbps;
        }
      }
      for (const auto& [e, r] : conceptual) {
        auto& cell = plan.edge_rate_mbps[m][e];
        cell = std::max(cell, r);
      }
    }
  }
  return result;
}

}  // namespace ncfn::ctrl
