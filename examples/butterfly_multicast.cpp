// The paper's showcase scenario (Sec. V.B): a file multicast over the
// classic butterfly with coding VNFs at four data centers, compared
// against routing-only relays on the same topology.
//
// Prints the theoretical bound (Ford–Fulkerson), the coded and
// routing-only goodput, per-relay coding statistics, and verifies every
// decoded byte.
#include <cstdio>
#include <string>

#include "app/baseline.hpp"
#include "app/provider.hpp"
#include "app/runtime.hpp"
#include "app/scenarios.hpp"
#include "ctrl/problem.hpp"
#include "graph/maxflow.hpp"

using namespace ncfn;

int main() {
  const auto b = app::scenarios::butterfly(false);
  const double bound =
      graph::multicast_capacity(b.topo, b.source, {b.recv_o2, b.recv_c2}) /
      1e6;
  std::printf("butterfly multicast, 2 receivers\n");
  std::printf("theoretical coded capacity (min cut): %.1f Mbps\n\n", bound);

  ctrl::SessionSpec spec;
  spec.id = 1;
  spec.source = b.source;
  spec.receivers = {b.recv_o2, b.recv_c2};
  spec.lmax_s = 0.150;

  // --- Coded run ---
  ctrl::DeploymentProblem prob;
  prob.topo = &b.topo;
  prob.alpha = 0.0;
  prob.sessions = {spec};
  const auto plan = ctrl::solve_deployment(prob);

  coding::CodingParams params;
  const std::size_t file_bytes = 40 * 1000 * 1000;  // 40 MB file
  app::SyntheticProvider file(123, file_bytes, params);

  double coded_goodput = 0;
  {
    app::SimNet sim(b.topo);
    app::SessionWiring wiring;
    wiring.vnf.params = params;
    app::NcMulticastSession mc(sim, plan, 0, spec, file, wiring);
    mc.receiver(0).set_verify(&file);
    mc.receiver(1).set_verify(&file);
    mc.start();
    sim.net().sim().run_until(60.0);
    coded_goodput = mc.session_goodput_mbps();
    std::printf("with network coding VNFs:\n");
    for (std::size_t k = 0; k < 2; ++k) {
      const auto& st = mc.receiver(k).stats();
      std::printf("  receiver %zu: %.1f Mbps, %llu generations, complete=%s, "
                  "corrupt=%llu\n",
                  k, mc.receiver(k).goodput_mbps(),
                  static_cast<unsigned long long>(st.generations_decoded),
                  mc.receiver(k).complete() ? "yes" : "no",
                  static_cast<unsigned long long>(st.verify_failures));
    }
    // Each relay's coding function counts its packets per node.
    for (const graph::NodeIdx v : {b.o1, b.c1, b.t, b.v2}) {
      if (sim.find_vnf(v) == nullptr) continue;
      const std::string p = "vnf.node." + std::to_string(v) + ".";
      const std::uint64_t in = sim.metrics().counter_value(p + "received");
      const std::uint64_t innovative =
          sim.metrics().counter_value(p + "innovative");
      std::printf("  relay %-14s in=%llu out=%llu innovative=%.1f%%\n",
                  b.topo.node(v).name.c_str(),
                  static_cast<unsigned long long>(in),
                  static_cast<unsigned long long>(
                      sim.metrics().counter_value(p + "emitted")),
                  100.0 * innovative / std::max<std::uint64_t>(1, in));
    }
  }

  // --- Routing-only run on the same relays ---
  const auto packing = app::pack_trees(b.topo, b.source,
                                       {b.recv_o2, b.recv_c2}, spec.lmax_s);
  double routed_goodput = 0;
  {
    app::SimNet sim(b.topo);
    app::SessionWiring wiring;
    wiring.vnf.params = params;
    app::TreeMulticastSession mc(sim, packing, spec, file, wiring);
    mc.start();
    sim.net().sim().run_until(60.0);
    routed_goodput = mc.session_goodput_mbps();
  }
  std::printf("\nrouting-only (tree packing %.1f Mbps planned): measured %.1f Mbps\n",
              packing.total_rate_mbps, routed_goodput);
  std::printf("coding gain over routing: %.0f%%\n",
              (coded_goodput / routed_goodput - 1) * 100);
  return 0;
}
