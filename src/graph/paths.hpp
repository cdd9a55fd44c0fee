// Feasible-path enumeration (Sec. IV.A, "Feasible paths").
//
// "Given the set of candidate data centers V, we can decide all feasible
// paths (whose end-to-end delay is no larger than Lmax_m) between the
// source and each destination ... by running a modified depth-first-search
// ... as long as the path currently obtained has a delay smaller than
// Lmax_m and has no cycles."
//
// Interior nodes of a relayed path must be data centers (a flow cannot be
// relayed through another session's host). The direct source→destination
// edge, if present and within the delay bound, is always included. Paths
// are returned sorted by delay; `max_paths` caps the set (the paper notes
// candidate DC counts of 5–20 keep this search small), and the search stops
// after 100,000 DFS expansions.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/topology.hpp"

namespace ncfn::graph {

struct Path {
  std::vector<NodeIdx> nodes;  // src, relays..., dst
  std::vector<EdgeIdx> edges;  // nodes.size() - 1 edges
  double delay_s = 0.0;

  [[nodiscard]] bool uses_edge(EdgeIdx e) const {
    for (EdgeIdx x : edges) {
      if (x == e) return true;
    }
    return false;
  }
  [[nodiscard]] bool uses_node(NodeIdx n) const {
    for (NodeIdx x : nodes) {
      if (x == n) return true;
    }
    return false;
  }
};

struct PathSearchLimits {
  std::size_t max_paths = 32;  // keep the lowest-delay paths
};

/// All simple src→dst paths with total delay <= lmax_s whose interior
/// nodes are data centers, lowest delay first, truncated to
/// `limits.max_paths`.
[[nodiscard]] std::vector<Path> feasible_paths(const Topology& topo,
                                               NodeIdx src, NodeIdx dst,
                                               double lmax_s,
                                               const PathSearchLimits& limits = {});

}  // namespace ncfn::graph
