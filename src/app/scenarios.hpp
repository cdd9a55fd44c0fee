// Shared evaluation scenarios.
//
// * butterfly(): the classic butterfly overlay of Fig. 6 — source V1
//   (Virginia), receivers O2 (Oregon) and C2 (California), relay DCs O1,
//   C1, T (Texas) and V2, every labelled link capped at 35 Mbps so the
//   theoretical coded multicast capacity (Ford–Fulkerson) is 70 Mbps,
//   routing-only tree packing gives 52.5 Mbps, and the direct paths
//   support ~40 Mbps. One-way delays are set so the direct-ping RTTs and
//   relayed RTTs land near Table II (≈91/77 ms direct, ≈167 ms relayed).
//
// * six_datacenters(): the dynamic-scenario overlay of Sec. V.C — six
//   North-American data centers (the paper's three EC2 + three Linode
//   regions), full mesh with measured-looking delays, per-VM Bin/Bout
//   caps and per-VNF coding capacity C(v); plus helpers generating the
//   paper's random sessions ("each with a uniformly random number of
//   receivers in [1,4], sources and receivers distributed uniformly at
//   random across the six data centers").
#pragma once

#include <random>
#include <set>
#include <vector>

#include "ctrl/problem.hpp"
#include "graph/topology.hpp"

namespace ncfn::app::scenarios {

struct Butterfly {
  graph::Topology topo;
  graph::NodeIdx source;     // V1
  graph::NodeIdx o1, c1, t, v2;  // relay data centers
  graph::NodeIdx recv_o2, recv_c2;
  graph::EdgeIdx bottleneck;      // T -> V2
  graph::EdgeIdx direct_o2, direct_c2;  // direct Internet paths (TCP baseline)
};

/// Build the Fig. 6 butterfly. `with_direct_links` adds the direct
/// source→receiver paths used by the ping rows of Table II and the
/// Direct-TCP baseline of Fig. 7 (they are NOT part of the relayed
/// butterfly, so relayed experiments exclude them via `lmax` or by
/// passing false).
[[nodiscard]] Butterfly butterfly(bool with_direct_links = true);

/// The theoretical coded multicast capacity of the butterfly (Mbps).
[[nodiscard]] double butterfly_capacity_mbps(const Butterfly& b);

struct SixDc {
  graph::Topology topo;
  std::vector<graph::NodeIdx> dcs;  // CA, OR, VA, TX, GA, NJ
  /// Host nodes co-located with each DC (sources/receivers attach here);
  /// each host connects only to its home data center.
  std::vector<graph::NodeIdx> hosts;
};

struct SixDcParams {
  /// Hosts provisioned per region. Each session endpoint is its own VM
  /// (as on the paper's testbed), so enough hosts must exist for all
  /// concurrent sessions' endpoints to be distinct.
  int hosts_per_region = 8;
};

[[nodiscard]] SixDc six_datacenters(const SixDcParams& params = {});

/// The paper's random session mix: sources/receivers uniform over the six
/// regions, 1–4 receivers per session, Lmax = 150 ms. Endpoints are drawn
/// without replacement from `used_hosts` (if given), so concurrent
/// sessions get distinct VMs as on the paper's testbed.
[[nodiscard]] ctrl::SessionSpec random_session(
    const SixDc& net, coding::SessionId id, std::mt19937& rng,
    double lmax_s = 0.150, std::set<graph::NodeIdx>* used_hosts = nullptr);

}  // namespace ncfn::app::scenarios
