// Routing-only multicast baseline (the paper's "Non-NC" comparator).
//
// Without coding, the achievable multicast rate is given by fractional
// Steiner tree packing: choose distribution trees (here, DAG unions of one
// feasible path per receiver — forwarding over a DAG is deduplicated by
// innovation-only forwarding at relays) and assign each a rate so that the
// total rate through every link/node respects capacity. The classic
// butterfly needs three trees at rate 17.5 Mbps each to reach its
// routing-only optimum of 52.5 Mbps, versus 70 Mbps with coding.
//
// Tree enumeration takes the cartesian product of per-receiver feasible
// path sets (capped at 6 paths per receiver and 256 trees), dedupes by
// edge set, and packs rates with an LP.
#pragma once

#include <vector>

#include "ctrl/problem.hpp"
#include "graph/paths.hpp"
#include "graph/topology.hpp"

namespace ncfn::app {

struct MulticastTree {
  std::vector<graph::EdgeIdx> edges;  // DAG union of per-receiver paths
  double rate_mbps = 0.0;
  /// Next hops of each node within this tree (indexed by topo node).
  [[nodiscard]] std::vector<graph::NodeIdx> next_hops(
      const graph::Topology& topo, graph::NodeIdx node) const;
};

/// Slots in the tree schedule, which repeats every kScheduleLength
/// generations.
inline constexpr std::size_t kScheduleLength = 512;

struct TreePacking {
  std::vector<MulticastTree> trees;  // only trees with positive rate
  double total_rate_mbps = 0.0;
};

/// Pack trees for one session: maximize the total rate subject to per-edge
/// capacities.
[[nodiscard]] TreePacking pack_trees(
    const graph::Topology& topo, graph::NodeIdx source,
    const std::vector<graph::NodeIdx>& receivers, double lmax_s);

/// Weighted round-robin schedule of kScheduleLength slots mapping
/// generation id -> tree index so that tree i serves a share of
/// generations proportional to its rate. Deterministic: source and every
/// relay compute the same mapping.
[[nodiscard]] std::vector<std::uint16_t> tree_schedule(
    const std::vector<MulticastTree>& trees);

}  // namespace ncfn::app
