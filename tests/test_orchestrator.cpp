// End-to-end control-plane tests: controller decisions travel as NC_*
// text datagrams over the simulated network to per-DC daemons, which
// parse and apply them; daemon ping probes feed delay changes back.
#include <gtest/gtest.h>

#include "app/orchestrator.hpp"
#include "app/scenarios.hpp"

using namespace ncfn;
using namespace ncfn::app;

namespace {
Orchestrator::Config base_config() {
  Orchestrator::Config cfg;
  cfg.controller.alpha = 20.0;
  cfg.controller.tau_s = 600.0;
  cfg.controller.tau1_s = cfg.controller.tau2_s = 600.0;
  cfg.probe_interval_s = 0;  // enabled per-test
  cfg.tick_interval_s = 0;
  return cfg;
}

ctrl::SessionSpec make_session(const scenarios::SixDc& net,
                               coding::SessionId id, std::size_t src,
                               std::vector<std::size_t> dsts) {
  ctrl::SessionSpec s;
  s.id = id;
  s.source = net.hosts[src];
  for (std::size_t d : dsts) s.receivers.push_back(net.hosts[d]);
  s.lmax_s = 0.150;
  s.max_rate_mbps = 200.0;
  return s;
}
}  // namespace

TEST(Orchestrator, SignalsReachDaemonsOverTheNetwork) {
  const auto net = scenarios::six_datacenters();
  SimNet sim(net.topo);
  Orchestrator orch(sim, base_config());

  ASSERT_TRUE(orch.add_session(make_session(net, 1, 0, {10, 20})));
  EXPECT_GT(orch.signals_dispatched(), 0u);

  // Nothing is applied until the control datagrams arrive (40 ms links).
  std::uint64_t received_before = 0;
  for (graph::NodeIdx dc : net.topo.data_centers()) {
    received_before += orch.daemon(dc).stats().signals_received;
  }
  EXPECT_EQ(received_before, 0u);

  sim.net().sim().run_until(1.0);
  std::uint64_t received = 0, malformed = 0;
  for (graph::NodeIdx dc : net.topo.data_centers()) {
    received += orch.daemon(dc).stats().signals_received;
    malformed += orch.daemon(dc).stats().signals_malformed;
  }
  EXPECT_EQ(received, orch.signals_dispatched());
  EXPECT_EQ(malformed, 0u);
}

TEST(Orchestrator, ForwardingTablesInstalledMatchControllerState) {
  const auto net = scenarios::six_datacenters();
  SimNet sim(net.topo);
  Orchestrator orch(sim, base_config());
  ASSERT_TRUE(orch.add_session(make_session(net, 1, 0, {15})));
  sim.net().sim().run_until(5.0);

  // Every DC that routes the session must hold exactly the controller's
  // table after the text round trip.
  int tables_checked = 0;
  for (graph::NodeIdx dc : net.topo.data_centers()) {
    const auto expected = orch.controller().forwarding_table(dc);
    if (expected.size() == 0) continue;
    EXPECT_EQ(orch.daemon(dc).table(), expected) << "dc " << dc;
    ++tables_checked;
  }
  EXPECT_GT(tables_checked, 0);
}

TEST(Orchestrator, SessionRemovalDrainsDaemonsAfterTau) {
  const auto net = scenarios::six_datacenters();
  auto cfg = base_config();
  cfg.controller.tau_s = 60.0;
  SimNet sim(net.topo);
  Orchestrator orch(sim, cfg);
  ASSERT_TRUE(orch.add_session(make_session(net, 1, 0, {30})));
  sim.net().sim().run_until(1.0);

  orch.remove_session(1);
  orch.controller().tick(sim.net().sim().now());
  orch.flush_signals();
  sim.net().sim().run_until(2.0);
  // NC_VNF_END datagrams arrived: daemons at the session's DCs are still
  // running (grace window) ...
  bool any_end_received = false;
  for (graph::NodeIdx dc : net.topo.data_centers()) {
    if (orch.daemon(dc).stats().signals_received > 1) any_end_received = true;
  }
  EXPECT_TRUE(any_end_received);
  // ... and shut down after tau.
  sim.net().sim().run_until(120.0);
  std::uint64_t shutdowns = 0;
  for (graph::NodeIdx dc : net.topo.data_centers()) {
    shutdowns += orch.daemon(dc).stats().shutdowns;
  }
  EXPECT_GT(shutdowns, 0u);
}

TEST(Orchestrator, ProbeLoopFeedsDelayChangesIntoController) {
  const auto net = scenarios::six_datacenters();
  auto cfg = base_config();
  cfg.probe_interval_s = 100.0;
  cfg.controller.tau2_s = 150.0;
  SimNet sim(net.topo);
  Orchestrator orch(sim, cfg);
  ASSERT_TRUE(orch.add_session(make_session(net, 1, 0, {25, 35})));

  // Triple the physical delay of a DC-DC link the plan uses; the probes
  // must detect it and, after tau2 persistence, update the controller's
  // topology model.
  graph::EdgeIdx victim = -1;
  const auto& plan = orch.controller().plan();
  for (const auto& [e, rate] : plan.edge_rate_mbps[0]) {
    const auto& ei = net.topo.edge(e);
    if (net.topo.node(ei.from).kind == graph::NodeKind::kDataCenter &&
        net.topo.node(ei.to).kind == graph::NodeKind::kDataCenter) {
      victim = e;
      break;
    }
  }
  ASSERT_NE(victim, -1);
  const double old_delay = net.topo.edge(victim).delay_s;
  sim.link(victim)->set_prop_delay(old_delay * 3);
  // Reverse direction too, so the ping RTT reflects the change fully.
  const graph::EdgeIdx reverse = net.topo.find_edge(
      net.topo.edge(victim).to, net.topo.edge(victim).from);
  if (reverse >= 0) sim.link(reverse)->set_prop_delay(old_delay * 3);

  sim.net().sim().run_until(600.0);  // several probe rounds + persistence
  EXPECT_GT(orch.controller().topology().edge(victim).delay_s,
            old_delay * 1.5);
}

TEST(Orchestrator, PeriodicTickRunsHousekeeping) {
  const auto net = scenarios::six_datacenters();
  auto cfg = base_config();
  cfg.tick_interval_s = 50.0;
  cfg.controller.tau_s = 120.0;
  SimNet sim(net.topo);
  Orchestrator orch(sim, cfg);
  ASSERT_TRUE(orch.add_session(make_session(net, 1, 2, {22})));
  sim.net().sim().run_until(1.0);
  const int alive_with_session = orch.controller().alive_vnfs();
  ASSERT_GT(alive_with_session, 0);
  orch.remove_session(1);
  // The periodic tick must expire the draining VNFs without manual calls.
  sim.net().sim().run_until(400.0);
  EXPECT_EQ(orch.controller().alive_vnfs(), 0);
}

TEST(Orchestrator, BandwidthReportTriggersAlg1ThroughTheFacade) {
  const auto net = scenarios::six_datacenters();
  auto cfg = base_config();
  cfg.controller.tau1_s = 100.0;
  SimNet sim(net.topo);
  Orchestrator orch(sim, cfg);
  ASSERT_TRUE(orch.add_session(make_session(net, 1, 0, {40})));
  graph::NodeIdx used = -1;
  for (const auto& [v, n] : orch.controller().plan().vnf_count) {
    if (n > 0) {
      used = v;
      break;
    }
  }
  ASSERT_NE(used, -1);
  const double bin = orch.controller().topology().node(used).bin_bps;
  orch.report_vm_bandwidth(used, bin / 2, bin / 2);
  sim.net().sim().run_until(150.0);
  orch.report_vm_bandwidth(used, bin / 2, bin / 2);
  EXPECT_NEAR(orch.controller().topology().node(used).bin_bps, bin / 2, 1);
}
