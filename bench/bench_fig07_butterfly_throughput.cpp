// Fig. 7 — "Throughput comparison in the butterfly topology."
//
// Three curves over time for one multicast session (two receivers pulling
// a large file): NC (coding functions at the relays), Non-NC (the same
// relays, forwarding only), and Direct TCP (no relays, direct Internet
// paths). The paper's testbed shows NC ~ 70 Mbps (the Ford–Fulkerson
// bound is 69.9), Non-NC in the mid-50s, Direct TCP in the high 30s.
#include <vector>

#include "common.hpp"
#include "graph/maxflow.hpp"
#include "netsim/tcp.hpp"

int main() {
  using namespace ncfn;
  using namespace ncfn::bench;
  print_header("Fig. 7", "Butterfly throughput over time: NC vs Non-NC vs Direct TCP");

  const auto b = app::scenarios::butterfly(false);
  const double bound =
      graph::multicast_capacity(b.topo, b.source, {b.recv_o2, b.recv_c2}) /
      1e6;
  std::printf("theoretical max (Ford–Fulkerson): %.1f Mbps (paper: 69.9)\n",
              bound);
  std::printf("paper: NC ~70, Non-NC ~52-55, Direct TCP ~35-40 Mbps\n\n");

  const double kDuration = 10.0;
  coding::CodingParams params;
  // Mbps delivered in each one-second step, from a running byte count.
  const auto per_second = [](std::uint64_t now_bytes, std::uint64_t& prev) {
    const double mbps = static_cast<double>(now_bytes - prev) * 8.0 / 1e6;
    prev = now_bytes;
    return mbps;
  };

  // ---- NC session ----
  std::vector<double> nc_series;
  {
    const auto plan = plan_butterfly(b);
    app::SyntheticProvider provider(
        7, static_cast<std::size_t>(80e6 / 8 * (kDuration + 5)), params);
    app::SimNet sim(b.topo);
    app::SessionWiring wiring;
    wiring.vnf.params = params;
    app::NcMulticastSession session(sim, plan, 0, butterfly_session(b),
                                    provider, wiring);
    session.start();
    std::uint64_t prev = 0;
    for (int t = 1; t <= static_cast<int>(kDuration); ++t) {
      sim.net().sim().run_until(t);
      nc_series.push_back(
          per_second(session.receiver(0).stats().payload_bytes, prev));
    }
  }

  // ---- Non-NC (tree forwarding) session ----
  std::vector<double> tree_series;
  {
    const auto packing = app::pack_trees(b.topo, b.source,
                                         {b.recv_o2, b.recv_c2}, 0.150);
    app::SyntheticProvider provider(
        9, static_cast<std::size_t>(60e6 / 8 * (kDuration + 5)), params);
    app::SimNet sim(b.topo);
    app::SessionWiring wiring;
    wiring.vnf.params = params;
    app::TreeMulticastSession session(sim, packing, butterfly_session(b),
                                      provider, wiring);
    session.start();
    std::uint64_t prev = 0;
    for (int t = 1; t <= static_cast<int>(kDuration); ++t) {
      sim.net().sim().run_until(t);
      tree_series.push_back(
          per_second(session.receiver(0).stats().payload_bytes, prev));
    }
  }

  // ---- Direct TCP ----
  std::vector<double> tcp_series;
  {
    const auto bd = app::scenarios::butterfly(true);
    app::SimNet sim(bd.topo);
    const std::size_t bytes = static_cast<std::size_t>(60e6 / 8 * kDuration);
    netsim::TcpConfig tcfg;
    tcfg.initial_ssthresh = 256;  // ~BDP of the 40 Mbps, 90 ms direct path
    netsim::TcpTransfer tcp(sim.net(), sim.node(bd.source),
                            sim.node(bd.recv_o2), 5000, bytes, tcfg);
    tcp.start();
    std::uint64_t prev = 0;
    for (int t = 1; t <= static_cast<int>(kDuration); ++t) {
      sim.net().sim().run_until(t);
      tcp_series.push_back(per_second(tcp.bytes_acked(), prev));
    }
  }

  std::printf("%8s %10s %10s %12s\n", "time(s)", "NC", "Non-NC", "Direct TCP");
  double nc_avg = 0, tree_avg = 0, tcp_avg = 0;
  int n = 0;
  for (std::size_t i = 0; i < nc_series.size(); ++i) {
    std::printf("%8zu %10.2f %10.2f %12.2f\n", i + 1, nc_series[i],
                tree_series[i], tcp_series[i]);
    if (i >= 2) {  // skip slow-start / pipeline ramp
      nc_avg += nc_series[i];
      tree_avg += tree_series[i];
      tcp_avg += tcp_series[i];
      ++n;
    }
  }
  std::printf("\nsteady-state averages: NC %.2f  Non-NC %.2f  Direct TCP %.2f Mbps\n",
              nc_avg / n, tree_avg / n, tcp_avg / n);
  return 0;
}
