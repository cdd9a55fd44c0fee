#include "ctrl/problem.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "lp/simplex.hpp"

namespace ncfn::ctrl {

namespace {

constexpr double kRateEps = 1e-6;  // Mbps below this is "no flow"
constexpr int kMaxVnfsPerDc = 64;  // sanity cap on x_v

double mbps(double bps) {
  return std::isfinite(bps) ? bps / 1e6 : graph::kInf;
}

/// All LP variable indices for one solve.
struct VarIndex {
  // pvar[m][k][pi]: conceptual flow rate on path pi of receiver k.
  std::vector<std::vector<std::vector<int>>> pvar;
  // evar[m]: edge -> f_m(e) variable.
  std::vector<std::map<graph::EdgeIdx, int>> evar;
  std::vector<int> lvar;               // lambda_m
  std::map<graph::NodeIdx, int> xvar;  // x_v
};

struct BuildResult {
  lp::Problem lp;
  VarIndex vars;
};

/// Candidate path sets per (session, receiver); frozen sessions reuse the
/// paths of the previous plan.
std::vector<std::vector<std::vector<graph::Path>>> collect_paths(
    const DeploymentProblem& prob, const SolveOptions& opts) {
  std::vector<std::vector<std::vector<graph::Path>>> paths(
      prob.sessions.size());
  for (std::size_t m = 0; m < prob.sessions.size(); ++m) {
    const SessionSpec& s = prob.sessions[m];
    paths[m].resize(s.receivers.size());
    const bool frozen =
        opts.frozen_sessions.count(s.id) > 0 && opts.previous != nullptr;
    std::optional<std::size_t> prev_m;
    if (frozen) prev_m = opts.previous->session_index(s.id);
    for (std::size_t k = 0; k < s.receivers.size(); ++k) {
      if (prev_m && k < opts.previous->path_rates[*prev_m].size()) {
        for (const PathRate& pr : opts.previous->path_rates[*prev_m][k]) {
          paths[m][k].push_back(pr.path);
        }
      } else {
        paths[m][k] = graph::feasible_paths(*prob.topo, s.source,
                                            s.receivers[k], s.lmax_s,
                                            prob.path_limits);
      }
    }
  }
  return paths;
}

BuildResult build_lp(
    const DeploymentProblem& prob, const SolveOptions& opts,
    const std::vector<std::vector<std::vector<graph::Path>>>& paths) {
  const graph::Topology& topo = *prob.topo;
  BuildResult out;
  lp::Problem& lp = out.lp;
  VarIndex& vars = out.vars;
  const std::size_t nm = prob.sessions.size();

  // ---- Variables ----
  vars.pvar.resize(nm);
  vars.evar.resize(nm);
  vars.lvar.resize(nm);
  for (std::size_t m = 0; m < nm; ++m) {
    const SessionSpec& s = prob.sessions[m];
    vars.pvar[m].resize(s.receivers.size());
    std::set<graph::EdgeIdx> session_edges;
    for (std::size_t k = 0; k < s.receivers.size(); ++k) {
      for (std::size_t pi = 0; pi < paths[m][k].size(); ++pi) {
        vars.pvar[m][k].push_back(lp.add_var(0.0));
        for (graph::EdgeIdx e : paths[m][k][pi].edges) session_edges.insert(e);
      }
    }
    for (graph::EdgeIdx e : session_edges) {
      // Tiny negative cost on actual flow: among throughput-optimal
      // solutions, prefer the one using the least bandwidth (the paper's
      // stated efficiency goal). This also keeps flow splits "clean" —
      // without it the LP may spread a generation's packets so thinly
      // across relays that no single relay ever reaches full rank.
      vars.evar[m][e] = lp.add_var(-1e-4);
    }
    vars.lvar[m] = lp.add_var(1.0);  // throughput term of the objective
    if (s.max_rate_mbps) lp.set_upper_bound(vars.lvar[m], *s.max_rate_mbps);
  }
  // One x_v per data center. Cost -alpha; if alpha == 0, a tiny epsilon
  // cost keeps the deployment minimal instead of arbitrary.
  const double xcost = prob.alpha > 0 ? -prob.alpha : -1e-6;
  for (graph::NodeIdx v : topo.data_centers()) {
    const int x = lp.add_var(xcost, static_cast<double>(kMaxVnfsPerDc));
    vars.xvar[v] = x;
  }

  // ---- Fixings ----
  for (std::size_t m = 0; m < nm; ++m) {
    const SessionSpec& s = prob.sessions[m];
    const bool frozen =
        opts.frozen_sessions.count(s.id) > 0 && opts.previous != nullptr;
    if (frozen) {
      const auto prev_m = opts.previous->session_index(s.id);
      if (prev_m) {
        const DeploymentPlan& prev = *opts.previous;
        for (std::size_t k = 0; k < s.receivers.size(); ++k) {
          if (k >= prev.path_rates[*prev_m].size()) continue;
          for (std::size_t pi = 0; pi < vars.pvar[m][k].size(); ++pi) {
            lp.fix(vars.pvar[m][k][pi],
                   prev.path_rates[*prev_m][k][pi].rate_mbps);
          }
        }
        for (const auto& [e, var] : vars.evar[m]) {
          const auto it = prev.edge_rate_mbps[*prev_m].find(e);
          lp.fix(var, it == prev.edge_rate_mbps[*prev_m].end() ? 0.0
                                                               : it->second);
        }
        lp.fix(vars.lvar[m], prev.lambda_mbps[*prev_m]);
        continue;
      }
    }
    if (s.fixed_rate_mbps) lp.fix(vars.lvar[m], *s.fixed_rate_mbps);
  }
  for (const auto& [v, n] : opts.vnf_fixed) {
    if (auto it = vars.xvar.find(v); it != vars.xvar.end()) {
      lp.fix(it->second, static_cast<double>(n));
    }
  }
  for (const auto& [v, n] : opts.vnf_floor) {
    if (opts.vnf_fixed.count(v)) continue;
    if (auto it = vars.xvar.find(v); it != vars.xvar.end()) {
      lp.add_constraint({{it->second, 1.0}}, lp::Rel::kGe,
                        static_cast<double>(n));
    }
  }

  // ---- (2a) lambda_m <= sum_p f^k_m(p), per receiver ----
  for (std::size_t m = 0; m < nm; ++m) {
    for (std::size_t k = 0; k < vars.pvar[m].size(); ++k) {
      std::vector<lp::Term> terms{{vars.lvar[m], 1.0}};
      for (int pv : vars.pvar[m][k]) terms.push_back({pv, -1.0});
      lp.add_constraint(std::move(terms), lp::Rel::kLe, 0.0);
    }
  }

  // ---- (2b) sum_{p ni e} f^k_m(p) <= f_m(e) ----
  for (std::size_t m = 0; m < nm; ++m) {
    for (std::size_t k = 0; k < vars.pvar[m].size(); ++k) {
      std::map<graph::EdgeIdx, std::vector<int>> by_edge;
      for (std::size_t pi = 0; pi < paths[m][k].size(); ++pi) {
        for (graph::EdgeIdx e : paths[m][k][pi].edges) {
          by_edge[e].push_back(vars.pvar[m][k][pi]);
        }
      }
      for (const auto& [e, pvs] : by_edge) {
        std::vector<lp::Term> terms;
        terms.reserve(pvs.size() + 1);
        for (int pv : pvs) terms.push_back({pv, 1.0});
        terms.push_back({vars.evar[m].at(e), -1.0});
        lp.add_constraint(std::move(terms), lp::Rel::kLe, 0.0);
      }
    }
  }

  // ---- Per-DC caps: (2c) inbound, (2d) outbound, (2e) coding capacity ----
  for (const auto& [v, xv] : vars.xvar) {
    std::vector<lp::Term> in_terms, out_terms;
    for (std::size_t m = 0; m < nm; ++m) {
      for (const auto& [e, var] : vars.evar[m]) {
        const graph::EdgeInfo& ei = topo.edge(e);
        if (ei.to == v) in_terms.push_back({var, 1.0});
        if (ei.from == v) out_terms.push_back({var, 1.0});
      }
    }
    const graph::NodeInfo& ni = topo.node(v);
    if (!in_terms.empty()) {
      if (std::isfinite(ni.bin_bps)) {
        auto t = in_terms;
        t.push_back({xv, -mbps(ni.bin_bps)});
        lp.add_constraint(std::move(t), lp::Rel::kLe, 0.0);  // (2c)
      }
      if (std::isfinite(ni.vnf_capacity_bps)) {
        auto t = in_terms;
        t.push_back({xv, -mbps(ni.vnf_capacity_bps)});
        lp.add_constraint(std::move(t), lp::Rel::kLe, 0.0);  // (2e)
      }
    }
    if (!out_terms.empty() && std::isfinite(ni.bout_bps)) {
      auto t = out_terms;
      t.push_back({xv, -mbps(ni.bout_bps)});
      lp.add_constraint(std::move(t), lp::Rel::kLe, 0.0);  // (2d)
    }
  }

  // ---- (2c') receiver inbound, (2d') source outbound ----
  for (std::size_t m = 0; m < nm; ++m) {
    const SessionSpec& s = prob.sessions[m];
    for (graph::NodeIdx d : s.receivers) {
      const graph::NodeInfo& ni = topo.node(d);
      if (!std::isfinite(ni.bin_bps)) continue;
      std::vector<lp::Term> terms;
      for (const auto& [e, var] : vars.evar[m]) {
        if (topo.edge(e).to == d) terms.push_back({var, 1.0});
      }
      if (!terms.empty()) {
        lp.add_constraint(std::move(terms), lp::Rel::kLe, mbps(ni.bin_bps));
      }
    }
    const graph::NodeInfo& src = topo.node(s.source);
    if (std::isfinite(src.bout_bps)) {
      std::vector<lp::Term> terms;
      for (const auto& [e, var] : vars.evar[m]) {
        if (topo.edge(e).from == s.source) terms.push_back({var, 1.0});
      }
      if (!terms.empty()) {
        lp.add_constraint(std::move(terms), lp::Rel::kLe, mbps(src.bout_bps));
      }
    }
  }

  // ---- Per-edge capacity extension ----
  std::set<graph::EdgeIdx> used_edges;
  for (std::size_t m = 0; m < nm; ++m) {
    for (const auto& [e, var] : vars.evar[m]) used_edges.insert(e);
  }
  for (graph::EdgeIdx e : used_edges) {
    const graph::EdgeInfo& ei = topo.edge(e);
    if (!std::isfinite(ei.capacity_bps)) continue;
    std::vector<lp::Term> terms;
    for (std::size_t m = 0; m < nm; ++m) {
      if (auto it = vars.evar[m].find(e); it != vars.evar[m].end()) {
        terms.push_back({it->second, 1.0});
      }
    }
    lp.add_constraint(std::move(terms), lp::Rel::kLe, mbps(ei.capacity_bps));
  }

  return out;
}

DeploymentPlan extract_plan(
    const DeploymentProblem& prob, const VarIndex& vars,
    const lp::Solution& sol,
    const std::vector<std::vector<std::vector<graph::Path>>>& paths,
    const std::map<graph::NodeIdx, int>& x_int) {
  DeploymentPlan plan;
  plan.feasible = true;
  plan.lambda_mbps.resize(prob.sessions.size(), 0.0);
  plan.edge_rate_mbps.resize(prob.sessions.size());
  plan.path_rates.resize(prob.sessions.size());
  double sum_lambda = 0.0;
  for (std::size_t m = 0; m < prob.sessions.size(); ++m) {
    plan.session_ids.push_back(prob.sessions[m].id);
    plan.lambda_mbps[m] = sol.x[static_cast<std::size_t>(vars.lvar[m])];
    sum_lambda += plan.lambda_mbps[m];
    for (const auto& [e, var] : vars.evar[m]) {
      const double r = sol.x[static_cast<std::size_t>(var)];
      if (r > kRateEps) plan.edge_rate_mbps[m][e] = r;
    }
    plan.path_rates[m].resize(vars.pvar[m].size());
    for (std::size_t k = 0; k < vars.pvar[m].size(); ++k) {
      for (std::size_t pi = 0; pi < vars.pvar[m][k].size(); ++pi) {
        plan.path_rates[m][k].push_back(PathRate{
            paths[m][k][pi],
            sol.x[static_cast<std::size_t>(vars.pvar[m][k][pi])]});
      }
    }
  }
  int total_x = 0;
  for (const auto& [v, n] : x_int) {
    if (n > 0) plan.vnf_count[v] = n;
    total_x += n;
  }
  plan.objective = sum_lambda - prob.alpha * total_x;
  return plan;
}

}  // namespace

double DeploymentPlan::total_throughput_mbps() const {
  double sum = 0.0;
  for (double l : lambda_mbps) sum += l;
  return sum;
}

int DeploymentPlan::total_vnfs() const {
  int sum = 0;
  for (const auto& [v, n] : vnf_count) sum += n;
  return sum;
}

std::string DeploymentPlan::failure() const {
  if (feasible) return {};
  if (relax_status != lp::Status::kOptimal) {
    return std::string("LP relaxation ") + lp::status_name(relax_status);
  }
  return std::string("LP with rounded VNF counts ") +
         lp::status_name(final_status);
}

std::optional<std::size_t> DeploymentPlan::session_index(
    coding::SessionId id) const {
  for (std::size_t i = 0; i < session_ids.size(); ++i) {
    if (session_ids[i] == id) return i;
  }
  return std::nullopt;
}

std::vector<std::pair<graph::NodeIdx, double>> DeploymentPlan::next_hops(
    const graph::Topology& topo, std::size_t m, graph::NodeIdx node) const {
  std::vector<std::pair<graph::NodeIdx, double>> hops;
  for (const auto& [e, rate] : edge_rate_mbps.at(m)) {
    if (topo.edge(e).from == node) hops.emplace_back(topo.edge(e).to, rate);
  }
  return hops;
}

DeploymentPlan solve_deployment(const DeploymentProblem& prob,
                                const SolveOptions& opts) {
  assert(prob.topo != nullptr);
  const auto paths = collect_paths(prob, opts);

  // Pass 1: LP relaxation (x continuous).
  BuildResult rel = build_lp(prob, opts, paths);
  const lp::Solution rsol = rel.lp.solve();
  if (!rsol.ok()) {
    DeploymentPlan failed;
    failed.relax_status = rsol.status;
    return failed;
  }

  // Round x up, respecting caller floors/fixings.
  std::map<graph::NodeIdx, int> x_int;
  for (const auto& [v, var] : rel.vars.xvar) {
    const double frac = rsol.x[static_cast<std::size_t>(var)];
    int n = static_cast<int>(std::ceil(frac - 1e-6));
    if (auto it = opts.vnf_floor.find(v); it != opts.vnf_floor.end()) {
      n = std::max(n, it->second);
    }
    if (auto it = opts.vnf_fixed.find(v); it != opts.vnf_fixed.end()) {
      n = it->second;
    }
    x_int[v] = std::max(n, 0);
  }

  // Pass 2: flows with the integer deployment fixed.
  SolveOptions fixed_opts = opts;
  fixed_opts.vnf_fixed = x_int;
  fixed_opts.vnf_floor.clear();
  BuildResult fin = build_lp(prob, fixed_opts, paths);
  const lp::Solution fsol = fin.lp.solve();
  if (!fsol.ok()) {
    DeploymentPlan failed;
    failed.relax_status = rsol.status;
    failed.final_status = fsol.status;
    return failed;
  }

  DeploymentPlan plan = extract_plan(prob, fin.vars, fsol, paths, x_int);
  plan.relax_status = rsol.status;
  plan.final_status = fsol.status;
  return plan;
}

}  // namespace ncfn::ctrl
