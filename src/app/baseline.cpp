#include "app/baseline.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "lp/simplex.hpp"

namespace ncfn::app {

namespace {
constexpr std::size_t kMaxPathsPerReceiver = 6;
constexpr std::size_t kMaxTrees = 256;
}  // namespace

std::vector<graph::NodeIdx> MulticastTree::next_hops(
    const graph::Topology& topo, graph::NodeIdx node) const {
  std::vector<graph::NodeIdx> hops;
  for (graph::EdgeIdx e : edges) {
    if (topo.edge(e).from == node) hops.push_back(topo.edge(e).to);
  }
  return hops;
}

TreePacking pack_trees(const graph::Topology& topo, graph::NodeIdx source,
                       const std::vector<graph::NodeIdx>& receivers,
                       double lmax_s) {
  TreePacking out;
  if (receivers.empty()) return out;

  // Per-receiver candidate paths.
  graph::PathSearchLimits pl;
  pl.max_paths = kMaxPathsPerReceiver;
  std::vector<std::vector<graph::Path>> paths;
  paths.reserve(receivers.size());
  for (graph::NodeIdx r : receivers) {
    paths.push_back(graph::feasible_paths(topo, source, r, lmax_s, pl));
    if (paths.back().empty()) return out;  // a receiver is unreachable
  }

  // Cartesian product -> candidate trees, deduped by edge set.
  std::set<std::vector<graph::EdgeIdx>> seen;
  std::vector<MulticastTree> candidates;
  std::vector<std::size_t> pick(paths.size(), 0);
  while (candidates.size() < kMaxTrees) {
    std::set<graph::EdgeIdx> union_edges;
    for (std::size_t k = 0; k < paths.size(); ++k) {
      for (graph::EdgeIdx e : paths[k][pick[k]].edges) union_edges.insert(e);
    }
    std::vector<graph::EdgeIdx> key(union_edges.begin(), union_edges.end());
    if (seen.insert(key).second) {
      candidates.push_back(MulticastTree{std::move(key), 0.0});
    }
    // Advance the product counter.
    std::size_t k = 0;
    while (k < pick.size() && ++pick[k] == paths[k].size()) {
      pick[k] = 0;
      ++k;
    }
    if (k == pick.size()) break;  // product exhausted
  }
  if (candidates.empty()) return out;

  // LP: maximize sum t_j subject to edge capacities.
  lp::Problem lp;
  std::vector<int> tvar;
  tvar.reserve(candidates.size());
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    tvar.push_back(lp.add_var(1.0));
  }
  // Per-edge caps.
  std::set<graph::EdgeIdx> used;
  for (const MulticastTree& t : candidates) {
    used.insert(t.edges.begin(), t.edges.end());
  }
  for (graph::EdgeIdx e : used) {
    const double cap = topo.edge(e).capacity_bps;
    if (!std::isfinite(cap)) continue;
    std::vector<lp::Term> terms;
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (std::find(candidates[j].edges.begin(), candidates[j].edges.end(),
                    e) != candidates[j].edges.end()) {
        terms.push_back({tvar[j], 1.0});
      }
    }
    lp.add_constraint(std::move(terms), lp::Rel::kLe, cap / 1e6);
  }

  const lp::Solution sol = lp.solve();
  if (!sol.ok()) return out;

  for (std::size_t j = 0; j < candidates.size(); ++j) {
    const double r = sol.x[static_cast<std::size_t>(tvar[j])];
    if (r > 1e-6) {
      candidates[j].rate_mbps = r;
      out.total_rate_mbps += r;
      out.trees.push_back(std::move(candidates[j]));
    }
  }
  return out;
}

std::vector<std::uint16_t> tree_schedule(
    const std::vector<MulticastTree>& trees) {
  std::vector<std::uint16_t> schedule;
  if (trees.empty()) return {0};
  schedule.reserve(kScheduleLength);
  double total = 0.0;
  for (const MulticastTree& t : trees) total += t.rate_mbps;
  // Largest-remainder weighted round robin: at each slot pick the tree
  // with the highest accumulated deficit.
  std::vector<double> credit(trees.size(), 0.0);
  for (std::size_t s = 0; s < kScheduleLength; ++s) {
    std::size_t best = 0;
    for (std::size_t j = 0; j < trees.size(); ++j) {
      credit[j] += trees[j].rate_mbps / total;
      if (credit[j] > credit[best]) best = j;
    }
    credit[best] -= 1.0;
    schedule.push_back(static_cast<std::uint16_t>(best));
  }
  return schedule;
}

}  // namespace ncfn::app
