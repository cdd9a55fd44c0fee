#include "graph/paths.hpp"

#include <algorithm>

namespace ncfn::graph {

namespace {
/// DFS safety valve: expansions before the search gives up.
constexpr std::size_t kMaxExpansions = 100000;

struct DfsState {
  const Topology& topo;
  NodeIdx dst;
  double lmax;
  std::vector<bool> visited;
  std::vector<NodeIdx> nodes;
  std::vector<EdgeIdx> edges;
  double delay = 0.0;
  std::size_t expansions = 0;
  std::vector<Path> found;
};

void dfs(DfsState& s, NodeIdx at) {
  if (s.expansions++ > kMaxExpansions) return;
  if (at == s.dst) {
    s.found.push_back(Path{s.nodes, s.edges, s.delay});
    return;
  }
  for (EdgeIdx e : s.topo.out_edges(at)) {
    const EdgeInfo& ei = s.topo.edge(e);
    if (!ei.up) continue;  // failed edge: no feasible path crosses it
    const NodeIdx next = ei.to;
    if (s.visited[static_cast<std::size_t>(next)]) continue;
    if (s.delay + ei.delay_s > s.lmax) continue;
    // Interior nodes must be data centers; the destination is exempt.
    if (next != s.dst &&
        s.topo.node(next).kind != NodeKind::kDataCenter) {
      continue;
    }
    s.visited[static_cast<std::size_t>(next)] = true;
    s.nodes.push_back(next);
    s.edges.push_back(e);
    s.delay += ei.delay_s;
    dfs(s, next);
    s.delay -= ei.delay_s;
    s.edges.pop_back();
    s.nodes.pop_back();
    s.visited[static_cast<std::size_t>(next)] = false;
  }
}
}  // namespace

std::vector<Path> feasible_paths(const Topology& topo, NodeIdx src,
                                 NodeIdx dst, double lmax_s,
                                 const PathSearchLimits& limits) {
  DfsState s{topo, dst, lmax_s,
             std::vector<bool>(static_cast<std::size_t>(topo.node_count()),
                               false),
             {}, {}, 0.0, 0, {}};
  s.visited[static_cast<std::size_t>(src)] = true;
  s.nodes.push_back(src);
  dfs(s, src);
  std::sort(s.found.begin(), s.found.end(),
            [](const Path& a, const Path& b) { return a.delay_s < b.delay_s; });
  if (s.found.size() > limits.max_paths) s.found.resize(limits.max_paths);
  return s.found;
}

}  // namespace ncfn::graph
