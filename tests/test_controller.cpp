// Tests for the dynamic controller: Alg. 1 (bandwidth variation), Alg. 2
// (delay changes), Alg. 3 (session/receiver churn), VNF draining/reuse,
// and the signal log.
#include <gtest/gtest.h>

#include "app/scenarios.hpp"
#include "ctrl/controller.hpp"
#include "obs/obs.hpp"

using namespace ncfn;
using namespace ncfn::ctrl;

namespace {
Controller::Config base_config() {
  Controller::Config cfg;
  cfg.alpha = 20.0;
  cfg.tau_s = 600.0;   // 10 min
  cfg.tau1_s = 600.0;
  cfg.tau2_s = 600.0;
  return cfg;
}

SessionSpec session_between(const app::scenarios::SixDc& net,
                            coding::SessionId id, std::size_t src,
                            std::vector<std::size_t> dsts) {
  SessionSpec s;
  s.id = id;
  s.source = net.hosts[src];
  for (std::size_t d : dsts) s.receivers.push_back(net.hosts[d]);
  s.lmax_s = 0.150;
  return s;
}
}  // namespace

TEST(Controller, SessionJoinDeploysVnfsAndThroughput) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {3, 4}), 0.0));
  EXPECT_GT(ctl.total_throughput_mbps(), 0.0);
  EXPECT_GE(ctl.running_vnfs(), 1);
  // Settings + start + vnf-start signals were emitted.
  bool saw_settings = false, saw_start = false, saw_vnf_start = false;
  for (const auto& ls : ctl.signal_log()) {
    saw_settings |= std::holds_alternative<NcSettings>(ls.signal);
    saw_start |= std::holds_alternative<NcStart>(ls.signal);
    saw_vnf_start |= std::holds_alternative<NcVnfStart>(ls.signal);
  }
  EXPECT_TRUE(saw_settings);
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_vnf_start);
}

TEST(Controller, MoreSessionsMoreVnfs) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {3}), 0.0));
  const int vnfs1 = ctl.running_vnfs();
  const double tput1 = ctl.total_throughput_mbps();
  ASSERT_TRUE(ctl.add_session(session_between(net, 2, 1, {4, 5}), 60.0));
  ASSERT_TRUE(ctl.add_session(session_between(net, 3, 2, {0, 5}), 120.0));
  EXPECT_GE(ctl.running_vnfs(), vnfs1);
  EXPECT_GT(ctl.total_throughput_mbps(), tput1);
}

TEST(Controller, SessionQuitDrainsVnfsAfterTau) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {3, 4}), 0.0));
  ASSERT_TRUE(ctl.add_session(session_between(net, 2, 1, {5}), 0.0));
  const int before = ctl.alive_vnfs();
  ctl.remove_session(2, 100.0);
  ctl.tick(100.0);
  // Within tau, drained VNFs are still alive (grace window).
  EXPECT_LE(ctl.running_vnfs(), before);
  const int alive_during_grace = ctl.alive_vnfs();
  ctl.tick(100.0 + 601.0);
  EXPECT_LE(ctl.alive_vnfs(), alive_during_grace);
  EXPECT_EQ(ctl.draining_vnfs(), 0);
}

TEST(Controller, DrainingVnfIsReusedOnNewDemand) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {3, 4}), 0.0));
  ASSERT_TRUE(ctl.add_session(session_between(net, 2, 0, {3, 4}), 0.0));
  ctl.remove_session(2, 100.0);
  ctl.tick(100.0);
  const int launches_before = ctl.vm_launches();
  // Same-shaped demand returns within tau: the drained VNFs are reused.
  ASSERT_TRUE(ctl.add_session(session_between(net, 3, 0, {3, 4}), 200.0));
  if (ctl.draining_vnfs() == 0 && ctl.vm_reuses() > 0) {
    EXPECT_GE(ctl.vm_reuses(), 1);
  }
  // Either way, relaunching should not have exceeded the fresh demand.
  EXPECT_GE(ctl.vm_launches(), launches_before);
}

TEST(Controller, ReceiverJoinAndQuit) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {3}), 0.0));
  ASSERT_TRUE(ctl.add_receiver(1, net.hosts[4], 10.0));
  EXPECT_EQ(ctl.sessions()[0].receivers.size(), 2u);
  EXPECT_GT(ctl.total_throughput_mbps(), 0.0);
  ctl.remove_receiver(1, net.hosts[4], 20.0);
  EXPECT_EQ(ctl.sessions()[0].receivers.size(), 1u);
}

TEST(Controller, RemovingLastReceiverEndsSession) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {3}), 0.0));
  ctl.remove_receiver(1, net.hosts[3], 10.0);
  EXPECT_TRUE(ctl.sessions().empty());
}

TEST(Controller, BandwidthDropBelowThresholdIgnored) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {3, 4}), 0.0));
  const double tput = ctl.total_throughput_mbps();
  // A 2 % change is below the 5 % threshold: never even recorded as
  // pending.
  const graph::NodeIdx v = net.dcs[0];
  const double bin = ctl.topology().node(v).bin_bps;
  ctl.report_bandwidth(v, bin * 0.98, bin * 0.98, 10.0);
  ctl.tick(10.0 + 700.0);
  EXPECT_NEAR(ctl.total_throughput_mbps(), tput, 1e-9);
  EXPECT_NEAR(ctl.topology().node(v).bin_bps, bin, 1);
}

TEST(Controller, BandwidthCutAppliedAfterPersistence) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {3, 4}), 0.0));
  // Find a DC the plan actually uses.
  graph::NodeIdx used = -1;
  for (const auto& [v, n] : ctl.plan().vnf_count) {
    if (n > 0) {
      used = v;
      break;
    }
  }
  ASSERT_NE(used, -1);
  const double bin = ctl.topology().node(used).bin_bps;
  // Halve the bandwidth; must persist tau1 before the controller reacts.
  ctl.report_bandwidth(used, bin / 2, bin / 2, 100.0);
  EXPECT_NEAR(ctl.topology().node(used).bin_bps, bin, 1);  // not yet
  ctl.report_bandwidth(used, bin / 2, bin / 2, 100.0 + 601.0);
  EXPECT_NEAR(ctl.topology().node(used).bin_bps, bin / 2, 1);  // applied
}

TEST(Controller, BriefBandwidthSpikeIsForgotten) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {3}), 0.0));
  const graph::NodeIdx v = net.dcs[1];
  const double bin = ctl.topology().node(v).bin_bps;
  ctl.report_bandwidth(v, bin / 2, bin / 2, 100.0);       // spike starts
  ctl.report_bandwidth(v, bin, bin, 200.0);               // back to normal
  ctl.report_bandwidth(v, bin / 2, bin / 2, 100.0 + 650.0);  // new spike
  // The pending clock restarted: the change must not yet be applied.
  EXPECT_NEAR(ctl.topology().node(v).bin_bps, bin, 1);
}

TEST(Controller, DelayIncreaseReroutesAfterPersistence) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {3, 4}), 0.0));
  // Pick an edge carrying flow.
  graph::EdgeIdx used = -1;
  for (const auto& [e, r] : ctl.plan().edge_rate_mbps[0]) {
    used = e;
    break;
  }
  ASSERT_NE(used, -1);
  const double old_delay = ctl.topology().edge(used).delay_s;
  ctl.report_delay(used, old_delay * 3, 100.0);
  EXPECT_NEAR(ctl.topology().edge(used).delay_s, old_delay, 1e-12);
  ctl.report_delay(used, old_delay * 3, 100.0 + 601.0);
  EXPECT_NEAR(ctl.topology().edge(used).delay_s, old_delay * 3, 1e-12);
  // The plan is still feasible (rerouted or reduced).
  EXPECT_TRUE(ctl.plan().feasible);
}

TEST(Controller, ForwardingTablesPushedToRelays) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {3, 4}), 0.0));
  // At least one node received a non-empty forwarding table mentioning
  // session 1.
  bool found = false;
  for (const auto& ls : ctl.signal_log()) {
    if (const auto* ft = std::get_if<NcForwardTab>(&ls.signal)) {
      if (ft->table.find(1) != nullptr) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Controller, DelayDecreaseCanOnlyHelp) {
  // A link-delay drop expands every session's feasible path set; after
  // persistence the re-solve must not reduce total throughput.
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  SessionSpec s = session_between(net, 1, 0, {6, 9});
  s.lmax_s = 0.090;  // tight: long detours are initially infeasible
  ASSERT_TRUE(ctl.add_session(s, 0.0));
  const double before = ctl.total_throughput_mbps();

  // Halve the delay of every DC-DC edge (a dramatic routing improvement).
  for (int e = 0; e < net.topo.edge_count(); ++e) {
    const auto& ei = net.topo.edge(e);
    if (net.topo.node(ei.from).kind == graph::NodeKind::kDataCenter &&
        net.topo.node(ei.to).kind == graph::NodeKind::kDataCenter) {
      ctl.report_delay(e, ei.delay_s / 2, 100.0);
      ctl.report_delay(e, ei.delay_s / 2, 100.0 + 601.0);
    }
  }
  EXPECT_GE(ctl.total_throughput_mbps(), before - 1e-6);
}

TEST(Controller, ConsolidationDrainsIdleVnfs) {
  // A departure leaves the pools above the remaining plan's needs: the
  // quit itself drains the excess (NC_VNF_END), and tick() expires it
  // after tau.
  const auto net = app::scenarios::six_datacenters();
  auto cfg = base_config();
  cfg.tau_s = 60.0;
  Controller ctl(net.topo, cfg);
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {12}), 0.0));
  ASSERT_TRUE(ctl.add_session(session_between(net, 2, 0, {13}), 0.0));
  const int needed = ctl.running_vnfs();
  ctl.remove_session(2, 10.0);
  ctl.tick(10.0);
  // After the departure the plan needs fewer VNFs than `needed`; the
  // surplus drains and expires.
  ctl.tick(10.0 + 61.0);
  EXPECT_LE(ctl.alive_vnfs(), needed);
  EXPECT_EQ(ctl.draining_vnfs(), 0);
}

TEST(Controller, FixedRateSessionAdmissionAndRejection) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  SessionSpec ok = session_between(net, 1, 0, {14});
  ok.fixed_rate_mbps = 50.0;  // a 50 Mbps live stream: admissible
  EXPECT_TRUE(ctl.add_session(ok, 0.0));
  EXPECT_NEAR(ctl.plan().lambda_mbps[0], 50.0, 1e-6);

  SessionSpec impossible = session_between(net, 2, 2, {15});
  impossible.fixed_rate_mbps = 5000.0;  // beyond any path capacity
  EXPECT_FALSE(ctl.add_session(impossible, 1.0));
  // The rejected session must not linger in controller state.
  EXPECT_EQ(ctl.sessions().size(), 1u);
  EXPECT_NEAR(ctl.total_throughput_mbps(), 50.0, 1e-6);
}

TEST(Controller, RejectedJoinAnnouncesNothing) {
  // A rejected join emits no NC_SETTINGS or NC_START: not in the signal
  // log, not in the ctrl.signals_emitted.* counters, not in the trace.
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  obs::Observability hub;
  hub.trace.enable();
  ctl.set_obs(&hub);
  SessionSpec ok = session_between(net, 1, 0, {14});
  ok.fixed_rate_mbps = 50.0;
  ASSERT_TRUE(ctl.add_session(ok, 0.0));
  const std::size_t logged = ctl.signal_log().size();
  const std::size_t traced = hub.trace.record_count();
  const std::uint64_t settings =
      hub.metrics.counter_value("ctrl.signals_emitted.NC_SETTINGS");
  const std::uint64_t starts =
      hub.metrics.counter_value("ctrl.signals_emitted.NC_START");

  SessionSpec impossible = session_between(net, 2, 2, {15});
  impossible.fixed_rate_mbps = 5000.0;
  ASSERT_FALSE(ctl.add_session(impossible, 1.0));
  EXPECT_EQ(ctl.signal_log().size(), logged);
  EXPECT_EQ(hub.trace.record_count(), traced);
  EXPECT_EQ(hub.metrics.counter_value("ctrl.signals_emitted.NC_SETTINGS"),
            settings);
  EXPECT_EQ(hub.metrics.counter_value("ctrl.signals_emitted.NC_START"),
            starts);
}

TEST(Controller, RemoveUnknownSessionIsNoop) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {16}), 0.0));
  const double tput = ctl.total_throughput_mbps();
  ctl.remove_session(99, 10.0);
  ctl.remove_receiver(99, net.hosts[1], 10.0);
  ctl.remove_receiver(1, net.hosts[5], 10.0);  // not a receiver of s1
  EXPECT_NEAR(ctl.total_throughput_mbps(), tput, 1e-9);
}

TEST(Controller, SignalLogTimestampsAreMonotonic) {
  const auto net = app::scenarios::six_datacenters();
  Controller ctl(net.topo, base_config());
  ASSERT_TRUE(ctl.add_session(session_between(net, 1, 0, {17}), 0.0));
  ASSERT_TRUE(ctl.add_session(session_between(net, 2, 2, {18}), 50.0));
  ctl.remove_session(1, 100.0);
  double last = -1;
  for (const auto& ls : ctl.signal_log()) {
    EXPECT_GE(ls.at_s, last);
    last = ls.at_s;
  }
}

TEST(Controller, LmaxSweepMonotone) {
  // Fig. 12's premise: larger Lmax can only help.
  const auto net = app::scenarios::six_datacenters();
  double prev = -1;
  for (const double lmax : {0.075, 0.100, 0.150, 0.200}) {
    Controller ctl(net.topo, base_config());
    SessionSpec s = session_between(net, 1, 0, {2, 3});
    s.lmax_s = lmax;
    ASSERT_TRUE(ctl.add_session(s, 0.0));
    const double tput = ctl.total_throughput_mbps();
    EXPECT_GE(tput, prev - 1e-6) << "lmax=" << lmax;
    prev = tput;
  }
}
