#include "app/scenarios.hpp"

#include <algorithm>

#include "graph/maxflow.hpp"

namespace ncfn::app::scenarios {

namespace {
constexpr double kMbps = 1e6;

// ---- six_datacenters() ----
constexpr double kVmBinMbps = 400;   // per-VM inbound cap
constexpr double kVmBoutMbps = 400;  // per-VM outbound cap
/// C(v): coding rate of one VNF. A cross-region flow traverses two
/// relay DCs, so the marginal value of one VNF is ~C/2 and deployments
/// stop being worthwhile as alpha approaches C/2 — C = 400 places the
/// Fig. 13 zero crossing at the paper's alpha = 200.
constexpr double kVnfCapacityMbps = 400;
constexpr double kHostBoutMbps = 500;  // source uplink
constexpr double kHostBinMbps = 400;   // receiver downlink
/// Inter-DC path capacities vary deterministically in
/// [kMeshCapacityBaseMbps, base + spread] Mbps — reaching a receiver's
/// full downlink needs several (possibly longer) paths, which is what
/// makes Lmax and alpha meaningful knobs (Figs. 12 and 13).
constexpr double kMeshCapacityBaseMbps = 100;
constexpr double kMeshCapacitySpreadMbps = 140;
}  // namespace

Butterfly butterfly(bool with_direct_links) {
  Butterfly b;
  graph::Topology& t = b.topo;

  auto dc = [&](const char* name) {
    graph::NodeInfo ni;
    ni.name = name;
    ni.kind = graph::NodeKind::kDataCenter;
    // Generous per-VM caps: the butterfly's bottlenecks are its links.
    ni.bin_bps = 200 * kMbps;
    ni.bout_bps = 200 * kMbps;
    ni.vnf_capacity_bps = 200 * kMbps;
    return t.add_node(ni);
  };
  auto host = [&](const char* name) {
    graph::NodeInfo ni;
    ni.name = name;
    ni.kind = graph::NodeKind::kHost;
    return t.add_node(ni);
  };

  b.source = host("V1:source");
  b.o1 = dc("O1:oregon");
  b.c1 = dc("C1:california");
  b.t = dc("T:texas");
  b.v2 = dc("V2:virginia");
  b.recv_o2 = host("O2:receiver");
  b.recv_c2 = host("C2:receiver");

  const double cap = 35 * kMbps;
  // One-way delays chosen so the relayed round trips land near Table II
  // (~167 ms) and direct pings near 90.9 / 77.0 ms.
  t.add_edge(b.source, b.o1, 0.030, cap);
  t.add_edge(b.source, b.c1, 0.025, cap);
  t.add_edge(b.o1, b.recv_o2, 0.015, cap);
  t.add_edge(b.c1, b.recv_c2, 0.012, cap);
  t.add_edge(b.o1, b.t, 0.020, cap);
  t.add_edge(b.c1, b.t, 0.017, cap);
  b.bottleneck = t.add_edge(b.t, b.v2, 0.018, cap);
  t.add_edge(b.v2, b.recv_o2, 0.021, cap);
  t.add_edge(b.v2, b.recv_c2, 0.019, cap);

  if (with_direct_links) {
    const double direct_cap = 40 * kMbps;
    b.direct_o2 = t.add_edge(b.source, b.recv_o2, 0.0454, direct_cap);
    b.direct_c2 = t.add_edge(b.source, b.recv_c2, 0.0385, direct_cap);
    // Reverse host links (ACK / ping return paths).
    t.add_edge(b.recv_o2, b.source, 0.0454, direct_cap);
    t.add_edge(b.recv_c2, b.source, 0.0385, direct_cap);
  } else {
    b.direct_o2 = -1;
    b.direct_c2 = -1;
    // Low-capacity reverse paths still exist for feedback traffic.
    t.add_edge(b.recv_o2, b.source, 0.0454, 10 * kMbps);
    t.add_edge(b.recv_c2, b.source, 0.0385, 10 * kMbps);
  }
  return b;
}

double butterfly_capacity_mbps(const Butterfly& b) {
  // The paper's 69.9 Mbps refers to the relayed butterfly, so compute the
  // bound on a copy without the direct links regardless of how `b` was
  // built (the direct links only ever add capacity).
  (void)b;
  Butterfly relay_only = butterfly(false);
  return graph::multicast_capacity(
             relay_only.topo, relay_only.source,
             {relay_only.recv_o2, relay_only.recv_c2}) /
         kMbps;
}

SixDc six_datacenters(const SixDcParams& p) {
  SixDc out;
  graph::Topology& t = out.topo;
  const char* names[6] = {"CA", "OR", "VA", "TX", "GA", "NJ"};
  // One-way inter-region delays (seconds), loosely based on North American
  // geography (CA-OR short, CA-NJ long, ...). Symmetric. Large enough
  // that the Lmax budget of 75-200 ms genuinely prunes multi-relay paths:
  // the longest single-relay-pair paths sit near 95 ms and useful detours
  // through a third region land in the 100-150 ms band.
  const double d[6][6] = {
      {0, 0.018, 0.081, 0.046, 0.062, 0.085},
      {0.018, 0, 0.087, 0.055, 0.072, 0.091},
      {0.081, 0.087, 0, 0.042, 0.017, 0.010},
      {0.046, 0.055, 0.042, 0, 0.025, 0.049},
      {0.062, 0.072, 0.017, 0.025, 0, 0.029},
      {0.085, 0.091, 0.010, 0.049, 0.029, 0}};

  for (int i = 0; i < 6; ++i) {
    graph::NodeInfo ni;
    ni.name = names[i];
    ni.kind = graph::NodeKind::kDataCenter;
    ni.bin_bps = kVmBinMbps * kMbps;
    ni.bout_bps = kVmBoutMbps * kMbps;
    ni.vnf_capacity_bps = kVnfCapacityMbps * kMbps;
    out.dcs.push_back(t.add_node(ni));
  }
  // Several hosts per region: each session endpoint gets its own VM, and
  // same-region sessions (one relay DC) coexist with cross-region ones
  // (two or more relays), spreading the alpha break-even points so the
  // Fig. 13 decline is gradual.
  for (int i = 0; i < 6; ++i) {
    for (int h = 0; h < p.hosts_per_region; ++h) {
      graph::NodeInfo ni;
      ni.name = std::string("host-") + names[i] + "-" + std::to_string(h);
      ni.kind = graph::NodeKind::kHost;
      ni.bout_bps = kHostBoutMbps * kMbps;
      ni.bin_bps = kHostBinMbps * kMbps;
      out.hosts.push_back(t.add_node(ni));
    }
  }
  // Full mesh between DCs with deterministic heterogeneous capacities.
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      if (i == j) continue;
      const double cap =
          (kMeshCapacityBaseMbps +
           static_cast<double>((i * 7 + j * 13) % 8) / 7.0 *
               kMeshCapacitySpreadMbps) *
          kMbps;
      t.add_edge(out.dcs[static_cast<std::size_t>(i)],
                 out.dcs[static_cast<std::size_t>(j)], d[i][j], cap);
    }
  }
  // Each host attaches to its home data center only; cross-region traffic
  // must ride the DC mesh (and therefore the coding VNFs).
  for (std::size_t h = 0; h < out.hosts.size(); ++h) {
    const std::size_t region = h / static_cast<std::size_t>(p.hosts_per_region);
    t.add_edge(out.hosts[h], out.dcs[region], 0.002,
               kHostBoutMbps * kMbps);
    t.add_edge(out.dcs[region], out.hosts[h], 0.002,
               kHostBinMbps * kMbps);
  }
  return out;
}

ctrl::SessionSpec random_session(const SixDc& net, coding::SessionId id,
                                 std::mt19937& rng, double lmax_s,
                                 std::set<graph::NodeIdx>* used_hosts) {
  // "Sources and receivers are distributed uniformly randomly across the
  // six data centers": pick a region uniformly, then an unused host VM in
  // that region (each endpoint is its own VM on the paper's testbed).
  const std::size_t per_region = net.hosts.size() / 6;
  std::uniform_int_distribution<std::size_t> region_pick(0, 5);
  std::uniform_int_distribution<std::size_t> host_pick(0, per_region - 1);
  std::set<graph::NodeIdx> local_used;
  std::set<graph::NodeIdx>& used = used_hosts ? *used_hosts : local_used;

  auto pick_host = [&]() -> graph::NodeIdx {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::size_t region = region_pick(rng);
      const graph::NodeIdx h = net.hosts[region * per_region + host_pick(rng)];
      if (used.count(h) == 0) return h;
    }
    // Fall back to any free host.
    for (graph::NodeIdx h : net.hosts) {
      if (used.count(h) == 0) return h;
    }
    return net.hosts.front();
  };

  ctrl::SessionSpec spec;
  spec.id = id;
  spec.lmax_s = lmax_s;
  spec.max_rate_mbps = 200.0;  // service tier: one session cannot grab
                               // the whole mesh and starve later joins
  spec.source = pick_host();
  used.insert(spec.source);
  const int k = std::uniform_int_distribution<int>(1, 4)(rng);
  for (int i = 0; i < k; ++i) {
    const graph::NodeIdx r = pick_host();
    used.insert(r);
    spec.receivers.push_back(r);
  }
  return spec;
}

}  // namespace ncfn::app::scenarios
