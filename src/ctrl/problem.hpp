// Optimization problem (2) of Sec. IV.A: joint coding-function deployment
// and multicast routing over conceptual flows.
//
//   maximize   sum_m lambda_m  -  alpha * sum_v x_v
//   s.t. (2a)  lambda_m <= sum_{p in P^k_m} f^k_m(p)           forall m,k
//        (2b)  sum_{p in P^k_m: e in p} f^k_m(p) <= f_m(e)     forall m,k,e
//        (2c)  sum_m sum_{e into v} f_m(e) <= Bin(v) x_v       forall v in V
//        (2c') sum_{e into d^k_m} f_m(e) <= Bin(d^k_m)         forall m,k
//        (2d)  sum_m sum_{e out of u} f_m(e) <= Bout(u) x_u    forall u in V
//        (2d') sum_{e=(s_m,*)} f_m(e) <= Bout(s_m)             forall m
//        (2e)  sum_m sum_{e into v} f_m(e) <= C(v) x_v         forall v in V
//        plus  sum_m f_m(e) <= cap(e) for finite per-edge caps (extension)
//
// lambda_m may be fixed (live-streaming mode); x_v are integers obtained by
// solving the LP relaxation and rounding up, then re-solving the LP with x
// fixed (the paper's own relax-and-round approach). Incremental re-solves
// for the dynamic algorithms freeze unaffected sessions' flows and treat
// the current deployment as a floor (scale-out) or re-derive it (scale-in).
//
// All rates in this module are in Mbps (the LP stays well-scaled).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "coding/types.hpp"
#include "graph/paths.hpp"
#include "graph/topology.hpp"
#include "lp/simplex.hpp"

namespace ncfn::ctrl {

struct SessionSpec {
  coding::SessionId id = 0;
  graph::NodeIdx source = -1;
  std::vector<graph::NodeIdx> receivers;
  double lmax_s = 0.150;  // max tolerable end-to-end delay
  /// If set, the session runs at exactly this rate (e.g., live streaming)
  /// and the solver only finds the cheapest routing for it.
  std::optional<double> fixed_rate_mbps;
  /// If set, an upper bound on the session rate (a service tier / the
  /// application's demand) — without it, one elastic session can grab all
  /// multipath capacity and starve every later arrival.
  std::optional<double> max_rate_mbps;
};

struct DeploymentProblem {
  const graph::Topology* topo = nullptr;
  std::vector<SessionSpec> sessions;
  double alpha = 20.0;  // Mbps-equivalent cost per deployed VNF
  graph::PathSearchLimits path_limits;
};

/// One conceptual-flow path with its solved rate.
struct PathRate {
  graph::Path path;
  double rate_mbps = 0.0;
};

struct DeploymentPlan {
  bool feasible = false;
  /// LP solver outcomes of the relaxation and the fixed-integer re-solve
  /// (diagnostics; kOptimal/kOptimal when feasible).
  lp::Status relax_status = lp::Status::kInfeasible;
  lp::Status final_status = lp::Status::kInfeasible;
  double objective = 0.0;  // sum lambda - alpha * sum x, Mbps
  std::vector<coding::SessionId> session_ids;  // parallel to lambda_mbps etc.
  std::vector<double> lambda_mbps;  // per session (parallel to sessions)
  std::map<graph::NodeIdx, int> vnf_count;  // x_v > 0 entries only
  /// f_m(e): per session, edge -> actual multicast flow rate.
  std::vector<std::map<graph::EdgeIdx, double>> edge_rate_mbps;
  /// Conceptual flows: [session][receiver] -> set of used paths.
  std::vector<std::vector<std::vector<PathRate>>> path_rates;

  [[nodiscard]] double total_throughput_mbps() const;
  [[nodiscard]] int total_vnfs() const;
  /// Why there is no plan, e.g. "LP relaxation stopped at the iteration
  /// limit"; empty when feasible.
  [[nodiscard]] std::string failure() const;
  /// Index of a session id within this plan, or nullopt.
  [[nodiscard]] std::optional<std::size_t> session_index(
      coding::SessionId id) const;
  /// Next hops of `node` for session index `m` (nodes with f_m(e) > eps on
  /// an out-edge of `node`), with the edge rates.
  [[nodiscard]] std::vector<std::pair<graph::NodeIdx, double>> next_hops(
      const graph::Topology& topo, std::size_t m, graph::NodeIdx node) const;
};

struct SolveOptions {
  /// Keep at least this many VNFs per DC (current deployment; scale-out
  /// solves pass the live counts here so the LP never tears down a VNF).
  std::map<graph::NodeIdx, int> vnf_floor;
  /// Hard-set x_v (used for the rounding re-solve and for "deployment
  /// fixed, maximize throughput" mode).
  std::map<graph::NodeIdx, int> vnf_fixed;
  /// Sessions whose flows are frozen at their values in `previous`
  /// (the paper's incremental update: "except the affected ... flows").
  std::set<coding::SessionId> frozen_sessions;
  const DeploymentPlan* previous = nullptr;
};

/// Solve (2): LP relaxation, round x up, re-solve flows with x fixed.
[[nodiscard]] DeploymentPlan solve_deployment(const DeploymentProblem& prob,
                                              const SolveOptions& opts = {});

}  // namespace ncfn::ctrl
