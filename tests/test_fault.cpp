// Failure injection and recovery: link/node outages with fixed
// lifetime/queue semantics, VNF crash/restart, the controller's failure
// re-solve, and the end-to-end acceptance scenario (mid-session link
// failure + VNF crash with every receiver still decoding every
// generation, byte-verified).
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "app/config.hpp"
#include "app/provider.hpp"
#include "app/runtime.hpp"
#include "app/shard.hpp"
#include "coding/encoder.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/problem.hpp"
#include "netsim/loss.hpp"
#include "netsim/network.hpp"

using namespace ncfn;
using namespace ncfn::netsim;

namespace {

Network make_two_node_net(double capacity_bps, double delay_s,
                          std::size_t queue = 512) {
  Network net(1);
  net.add_node("a");
  net.add_node("b");
  LinkConfig lc;
  lc.capacity_bps = capacity_bps;
  lc.prop_delay = delay_s;
  lc.queue_packets = queue;
  net.add_link(0, 1, lc);
  return net;
}

Datagram make_dgram(NodeId src, NodeId dst, Port port, std::size_t bytes) {
  Datagram d;
  d.src = src;
  d.dst = dst;
  d.dst_port = port;
  d.payload.assign(bytes, 0xCD);
  return d;
}

}  // namespace

// ---------------------------------------------------------------------------
// Link queue accounting: a slot frees when the packet leaves the
// serializer, not when it is finally delivered.
// ---------------------------------------------------------------------------

TEST(LinkQueue, SlotFreesAtSerializerDepartureNotDelivery) {
  // 8 Mbps -> 1 ms serialization per 1000-byte wire packet, but a full
  // second of propagation. With departure-based accounting the 2-slot
  // queue is empty again after ~2 ms; delivery-based accounting (the old
  // bug) kept both slots occupied for the whole flight time and
  // tail-dropped everything sent meanwhile.
  Network net = make_two_node_net(8e6, 1.0, /*queue=*/2);
  int delivered = 0;
  net.bind(1, 9, [&](const Datagram&) { ++delivered; });
  ASSERT_TRUE(net.send(make_dgram(0, 1, 9, 972)));
  ASSERT_TRUE(net.send(make_dgram(0, 1, 9, 972)));
  net.sim().schedule(0.010, [&] {  // both serialized, both still in flight
    EXPECT_TRUE(net.send(make_dgram(0, 1, 9, 972)));
    EXPECT_TRUE(net.send(make_dgram(0, 1, 9, 972)));
  });
  net.sim().run();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(net.link(0, 1)->stats().dropped_queue, 0u);
}

TEST(LinkQueue, TailDropStillEnforcedAtTheSerializer) {
  // Same high-delay link; packets offered faster than the serializer
  // drains must still tail-drop — the fix must not disable the queue.
  Network net = make_two_node_net(8e6, 1.0, /*queue=*/2);
  int delivered = 0;
  net.bind(1, 9, [&](const Datagram&) { ++delivered; });
  for (int i = 0; i < 10; ++i) net.send(make_dgram(0, 1, 9, 972));
  net.sim().run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.link(0, 1)->stats().dropped_queue, 8u);
}

// ---------------------------------------------------------------------------
// Link lifetime: the network owns one link per ordered pair for its whole
// life (in-flight events hold a plain pointer), so a second link on a
// pair is refused.
// ---------------------------------------------------------------------------

TEST(LinkLifetimeDeathTest, AddLinkOnAnExistingPairAborts) {
  Network net = make_two_node_net(100e6, 0.5);
  net.add_link(1, 0, LinkConfig{});  // the reverse direction is its own pair
  EXPECT_NE(net.link(1, 0), nullptr);
  EXPECT_DEATH(net.add_link(0, 1, LinkConfig{}),
               "Network::add_link: 0->1 already has a link");
}

// ---------------------------------------------------------------------------
// Link up/down semantics.
// ---------------------------------------------------------------------------

TEST(LinkState, DownDropsNewAndInFlightPackets) {
  Network net = make_two_node_net(100e6, 0.5);
  int delivered = 0;
  net.bind(1, 9, [&](const Datagram&) { ++delivered; });

  ASSERT_TRUE(net.send(make_dgram(0, 1, 9, 200)));  // in flight until 0.5
  net.sim().schedule(0.2, [&] { net.link(0, 1)->set_up(false); });
  net.sim().schedule(0.3, [&] {
    EXPECT_TRUE(net.send(make_dgram(0, 1, 9, 200)));  // accepted, dropped
  });
  net.sim().schedule(0.6, [&] {
    net.link(0, 1)->set_up(true);
    EXPECT_TRUE(net.send(make_dgram(0, 1, 9, 200)));  // delivered
  });
  net.sim().run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.link(0, 1)->stats().dropped_down, 2u);
  EXPECT_TRUE(net.link(0, 1)->is_up());
}

// ---------------------------------------------------------------------------
// Controller failure handling.
// ---------------------------------------------------------------------------

namespace {

/// Diamond overlay: host S -> DCs A,B -> host R, every edge duplex so
/// feedback and heartbeats can flow backwards.
struct Diamond {
  graph::Topology topo;
  graph::NodeIdx s, a, b, r;
  graph::EdgeIdx e_ar;  // the edge the tests fail

  Diamond() {
    graph::NodeInfo host;
    host.kind = graph::NodeKind::kHost;
    graph::NodeInfo dc;
    dc.kind = graph::NodeKind::kDataCenter;
    dc.bin_bps = 1e9;
    dc.bout_bps = 1e9;
    dc.vnf_capacity_bps = 1e9;
    host.name = "S";
    s = topo.add_node(host);
    dc.name = "A";
    a = topo.add_node(dc);
    dc.name = "B";
    b = topo.add_node(dc);
    host.name = "R";
    r = topo.add_node(host);
    auto duplex = [&](graph::NodeIdx u, graph::NodeIdx v) {
      topo.add_edge(u, v, 0.005, 100e6);
      topo.add_edge(v, u, 0.005, 100e6);
    };
    duplex(s, a);
    duplex(s, b);
    duplex(a, r);
    duplex(b, r);
    e_ar = topo.find_edge(a, r);
  }
};

}  // namespace

TEST(ControllerFailure, LinkDownResolvesAroundTheOutage) {
  Diamond d;
  ctrl::Controller::Config cfg;
  cfg.alpha = 1.0;
  ctrl::Controller ctl(d.topo, cfg);
  ctrl::SessionSpec spec;
  spec.id = 1;
  spec.source = d.s;
  spec.receivers = {d.r};
  spec.max_rate_mbps = 150.0;  // needs both paths
  ASSERT_TRUE(ctl.add_session(spec, 0.0));
  ASSERT_TRUE(ctl.plan().feasible);
  ASSERT_GT(ctl.plan().edge_rate_mbps[0].count(d.e_ar), 0u);
  const double before = ctl.plan().lambda_mbps[0];

  ctl.report_link_state(d.e_ar, false, 1.0);
  EXPECT_EQ(ctl.resolves(), 1);
  ASSERT_TRUE(ctl.plan().feasible);
  EXPECT_EQ(ctl.plan().edge_rate_mbps[0].count(d.e_ar), 0u);  // rerouted
  EXPECT_GT(ctl.plan().lambda_mbps[0], 0.0);
  EXPECT_LT(ctl.plan().lambda_mbps[0], before);  // one path left

  ctl.report_link_state(d.e_ar, true, 2.0);
  EXPECT_EQ(ctl.resolves(), 2);
  EXPECT_NEAR(ctl.plan().lambda_mbps[0], before, 1e-6);  // full rate back
}

TEST(ControllerFailure, HeartbeatTimeoutDeclaresNodeDownAndRevives) {
  Diamond d;
  ctrl::Controller::Config cfg;
  cfg.alpha = 1.0;
  cfg.heartbeat_timeout_s = 1.0;
  ctrl::Controller ctl(d.topo, cfg);
  ctrl::SessionSpec spec;
  spec.id = 1;
  spec.source = d.s;
  spec.receivers = {d.r};
  spec.max_rate_mbps = 150.0;
  ASSERT_TRUE(ctl.add_session(spec, 0.0));

  ctl.heartbeat(d.a, 0.0);
  ctl.heartbeat(d.b, 0.0);
  ctl.tick(0.5);
  EXPECT_FALSE(ctl.node_down(d.a));

  ctl.heartbeat(d.b, 2.0);  // only B stays alive
  ctl.tick(2.5);
  EXPECT_TRUE(ctl.node_down(d.a));
  EXPECT_FALSE(ctl.node_down(d.b));
  EXPECT_GE(ctl.resolves(), 1);
  // The surviving plan cannot route through A.
  for (const auto& [e, rate] : ctl.plan().edge_rate_mbps[0]) {
    const auto& ei = d.topo.edge(e);
    EXPECT_NE(ei.from, d.a);
    EXPECT_NE(ei.to, d.a);
  }

  ctl.heartbeat(d.a, 3.0);  // a late heartbeat revives the DC
  EXPECT_FALSE(ctl.node_down(d.a));
}

TEST(ControllerFailure, NodeRevivalKeepsASeparatelyFailedLinkDown) {
  Diamond d;
  ctrl::Controller::Config cfg;
  cfg.alpha = 1.0;
  ctrl::Controller ctl(d.topo, cfg);
  ctrl::SessionSpec spec;
  spec.id = 1;
  spec.source = d.s;
  spec.receivers = {d.r};
  spec.max_rate_mbps = 150.0;  // needs both paths
  ASSERT_TRUE(ctl.add_session(spec, 0.0));
  const graph::EdgeIdx e_sa = d.topo.find_edge(d.s, d.a);

  ctl.report_link_state(d.e_ar, false, 1.0);
  ctl.report_node_state(d.a, false, 2.0);
  ctl.report_node_state(d.a, true, 3.0);
  // A is back, but its link to R was reported down on its own and never
  // reported up: it stays unusable and the plan keeps routing around it.
  EXPECT_FALSE(ctl.topology().edge(d.e_ar).up);
  ASSERT_TRUE(ctl.plan().feasible);
  EXPECT_EQ(ctl.plan().edge_rate_mbps[0].count(d.e_ar), 0u);

  // A link report cannot revive an edge whose DC is down, and a report
  // that changes no edge's usability re-solves nothing.
  ctl.report_node_state(d.a, false, 4.0);
  const int resolves = ctl.resolves();
  ctl.report_link_state(e_sa, true, 5.0);
  EXPECT_FALSE(ctl.topology().edge(e_sa).up);
  EXPECT_EQ(ctl.resolves(), resolves);
}

// ---------------------------------------------------------------------------
// End-to-end acceptance: mid-session link failure + VNF crash; every
// receiver decodes every generation byte-verified; the re-solve is
// visible in the trace; recovery time lands in the histogram; identical
// (scenario, seed) runs are byte-identical.
// ---------------------------------------------------------------------------

namespace {

// The diamond of tools/scenarios/diamond_fault.ncfn: the session needs
// both DC paths for full rate, and R->S carries the feedback.
constexpr char kDiamond[] = R"(
node S host
node A dc bin=1000 bout=1000 cap=1000
node B dc bin=1000 bout=1000 cap=1000
node R host
duplex S A 2 100
duplex S B 2 100
duplex A R 2 100
duplex B R 2 100
edge R S 5 10
)";

constexpr char kFaultLines[] = R"(session 1 S -> R lmax=500 maxrate=150
fail A R at=0.5 for=1.0
crash A at=0.6 for=0.4
)";

struct FaultRun {
  bool complete = false;
  std::uint64_t verify_failures = 0;
  std::uint64_t generations = 0;
  std::uint64_t recovery_samples = 0;
  int resolves = 0;
  std::string trace;
};

FaultRun run_fault_scenario(std::uint32_t seed) {
  app::ParseError err;
  const auto scenario =
      app::parse_scenario(std::string(kDiamond) + kFaultLines, &err);
  EXPECT_TRUE(scenario.has_value()) << err.message;
  FaultRun out;
  if (!scenario) return out;
  EXPECT_EQ(scenario->failures.size(), 1u);
  EXPECT_EQ(scenario->crashes.size(), 1u);
  if (scenario->failures.empty() || scenario->crashes.empty()) return out;

  coding::CodingParams params;
  app::SimNet sim(scenario->topo);
  sim.trace().enable();

  ctrl::Controller::Config ccfg;
  ccfg.alpha = scenario->alpha;
  ctrl::Controller ctl(scenario->topo, ccfg);
  ctl.set_obs(&sim.obs());
  for (const auto& spec : scenario->sessions) ctl.add_session(spec, 0.0);
  EXPECT_TRUE(ctl.plan().feasible);

  // ~2 s of payload at the planned rate, so the failure at 0.5 s lands
  // mid-transfer.
  const double lambda = ctl.plan().lambda_mbps[0];
  app::SyntheticProvider provider(
      seed, static_cast<std::size_t>(lambda * 1e6 / 8 * 2.0), params);
  app::SessionWiring wiring;
  wiring.vnf.params = params;
  wiring.seed = seed;
  app::NcMulticastSession session(sim, ctl.plan(), 0, scenario->sessions[0],
                                  provider, wiring);
  session.receiver(0).set_verify(&provider);

  // Apply the scenario's fail/crash lines the way app::ScenarioRun does.
  const app::LinkFailure lf = scenario->failures[0];
  const graph::EdgeIdx e = scenario->topo.find_edge(lf.from, lf.to);
  sim.net().sim().schedule_at(lf.at_s, [&, e] {
    sim.link(e)->set_up(false);
    ctl.report_link_state(e, false, sim.net().sim().now());
    session.rewire(ctl.plan(), 0);
  });
  sim.net().sim().schedule_at(lf.at_s + lf.for_s, [&, e] {
    sim.link(e)->set_up(true);
    ctl.report_link_state(e, true, sim.net().sim().now());
    session.rewire(ctl.plan(), 0);
  });
  const app::VnfCrash cr = scenario->crashes[0];
  sim.net().sim().schedule_at(cr.at_s, [&] {
    if (vnf::CodingVnf* v = sim.find_vnf(cr.node)) v->crash();
  });
  sim.net().sim().schedule_at(cr.at_s + cr.for_s, [&] {
    if (vnf::CodingVnf* v = sim.find_vnf(cr.node)) v->restart();
  });

  session.start();
  sim.net().sim().run_until(30.0);

  out.complete = session.all_complete();
  out.verify_failures = session.receiver(0).stats().verify_failures;
  out.generations = session.receiver(0).stats().generations_decoded;
  if (const obs::Histogram* h =
          sim.metrics().find_histogram("app.recovery_time_s")) {
    out.recovery_samples = h->count();
  }
  out.resolves = ctl.resolves();
  out.trace = sim.trace().data();
  return out;
}

}  // namespace

TEST(FaultEndToEnd, LinkFailurePlusVnfCrashStillDecodesEverything) {
  const FaultRun r = run_fault_scenario(7);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_GT(r.generations, 0u);
  EXPECT_EQ(r.resolves, 2);  // link_down + link_up
  EXPECT_GT(r.recovery_samples, 0u);
  // The controller's reaction and the outage itself are in the trace.
  EXPECT_NE(r.trace.find("\"ev\":\"resolve\""), std::string::npos);
  EXPECT_NE(r.trace.find("\"ev\":\"link_down\""), std::string::npos);
  EXPECT_NE(r.trace.find("\"ev\":\"link_up\""), std::string::npos);
  EXPECT_NE(r.trace.find("\"ev\":\"vnf_crash\""), std::string::npos);
  EXPECT_NE(r.trace.find("\"ev\":\"vnf_restart\""), std::string::npos);
}

TEST(FaultEndToEnd, IdenticalSeedsAreByteIdentical) {
  const FaultRun a = run_fault_scenario(7);
  const FaultRun b = run_fault_scenario(7);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_FALSE(a.trace.empty());
}

// ---------------------------------------------------------------------------
// A source with no hop, run through app::ScenarioRun as ncfn-run runs it.
// ---------------------------------------------------------------------------

namespace {

struct DiamondRun {
  std::vector<app::ReceiverReport> rows;
  std::string metrics;  // the merged registry as JSON
};

/// Plans the diamond plus `extra` lines and runs it for 5 s at seed 7.
DiamondRun run_diamond(const std::string& extra) {
  app::ParseError err;
  const auto scenario = app::parse_scenario(kDiamond + extra, &err);
  EXPECT_TRUE(scenario.has_value()) << err.message;
  if (!scenario) return {};
  ctrl::DeploymentProblem prob;
  prob.topo = &scenario->topo;
  prob.sessions = scenario->sessions;
  prob.alpha = scenario->alpha;
  const ctrl::DeploymentPlan plan = ctrl::solve_deployment(prob);
  EXPECT_TRUE(plan.feasible);
  if (!plan.feasible) return {};
  app::RunOptions opts;
  opts.duration_s = 5.0;
  app::ScenarioRun run(*scenario, plan, opts);
  run.run();
  return DiamondRun{run.reports(), run.metrics_json()};
}

/// The integer that follows `prefix` in `json`, or -1 if it is absent.
long long json_integer_after(const std::string& json,
                             const std::string& prefix) {
  const std::size_t at = json.find(prefix);
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + prefix.size()));
}

}  // namespace

TEST(FaultEndToEnd, SourceResumesWhenItsHopsComeBack) {
  // A->R is down over [0.5, 1.5) s and B->R over [0.6, 1.1) s, so the
  // re-solve at 0.6 s leaves the source no hop. When B->R comes back the
  // source must resume where it stopped, not past the end of its data.
  const DiamondRun run = run_diamond(
      "session 1 S -> R lmax=500 maxrate=150\n"
      "fail A R at=0.5 for=1\n"
      "fail B R at=0.6 for=0.5\n");
  const auto& rows = run.rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].verify_failures, 0u);
  // About 0.6 s of data reaches R if the source stops at 0.6 s.
  EXPECT_GT(rows[0].goodput_mbps, 80.0);
}

TEST(FaultEndToEnd, ZeroRateSessionRunsToTheEnd) {
  // lmax = 1 ms admits no path: the plan gives the session no rate, so
  // its source has no hop. It idles, and the run ends normally.
  const DiamondRun run = run_diamond("session 1 S -> R lmax=1 maxrate=150\n");
  const auto& rows = run.rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].planned_mbps, 0.0);
  EXPECT_EQ(rows[0].goodput_mbps, 0.0);
  EXPECT_EQ(rows[0].verify_failures, 0u);
}

TEST(FaultEndToEnd, RelayCrashUnderTrafficDropsAndRecovers) {
  // diamond_fault without its link outage: the plan sends half the
  // session through A, so A's crash at 0.6 s drops arrivals and starts
  // the receiver's recovery clock, and what R decodes still verifies.
  const DiamondRun run = run_diamond(
      "session 1 S -> R lmax=500 maxrate=150\n"
      "crash A at=0.6 for=0.4\n");
  ASSERT_EQ(run.rows.size(), 1u);
  EXPECT_EQ(run.rows[0].verify_failures, 0u);
  EXPECT_GT(run.rows[0].goodput_mbps, 0.0);
  EXPECT_GT(json_integer_after(run.metrics,
                               "\"vnf.node.1.crash_dropped\":"),
            0);
  EXPECT_GE(json_integer_after(run.metrics,
                               "\"app.recovery_time_s\":{\"count\":"),
            1);
}

// ---------------------------------------------------------------------------
// Receiver repair edge cases.
// ---------------------------------------------------------------------------

TEST(Repair, LargeGenerationFallsBackToCodedRepairs) {
  // g = 96 > 64: the 8-byte block mask cannot name the missing blocks;
  // the receiver must request coded repairs (mask 0) instead of a
  // truncated mask. The transfer completes despite loss on the data path.
  Network net(1);
  const NodeId s = net.add_node("src");
  const NodeId r = net.add_node("rcv");
  LinkConfig lc;
  lc.capacity_bps = 1e9;
  lc.prop_delay = 0.002;
  net.add_duplex_link(s, r, lc);
  net.link(s, r)->set_loss_model(std::make_unique<UniformLoss>(0.10));

  coding::CodingParams params;
  params.block_size = 256;
  params.generation_blocks = 96;
  app::SyntheticProvider provider(3, 4 * params.generation_bytes(), params);

  app::SourceConfig scfg;
  scfg.session = 1;
  scfg.params = params;
  scfg.lambda_mbps = 20.0;
  app::McSource src(net, s, provider, scfg);
  src.configure_hops({{ctrl::NextHop{r, scfg.data_port}, 20.0}});

  app::ReceiverConfig rcfg;
  rcfg.session = 1;
  rcfg.data_port = scfg.data_port;
  rcfg.source_node = s;
  rcfg.source_feedback_port = scfg.feedback_port;
  rcfg.repair_timeout_s = 0.05;
  rcfg.vnf.params = params;
  app::McReceiver rcv(net, r, provider, rcfg);
  rcv.set_verify(&provider);

  rcv.start();
  src.start();
  net.sim().run_until(30.0);
  EXPECT_TRUE(rcv.complete());
  EXPECT_EQ(rcv.stats().verify_failures, 0u);
  EXPECT_EQ(rcv.stats().generations_decoded, provider.generation_count());
}

TEST(Repair, RetryCountIsCappedPerGeneration) {
  // A receiver that can never complete (the source is gone) must stop
  // re-requesting after kMaxRepairRounds instead of retrying forever:
  // 64 rounds of 0.05 s end at 3.2 s, well inside the 10-s run.
  Network net(1);
  const NodeId s = net.add_node("src");
  const NodeId r = net.add_node("rcv");
  LinkConfig lc;
  lc.capacity_bps = 1e9;
  lc.prop_delay = 0.001;
  net.add_duplex_link(s, r, lc);

  coding::CodingParams params;
  params.block_size = 64;
  params.generation_blocks = 4;
  app::SyntheticProvider provider(5, 2 * params.generation_bytes(), params);

  app::ReceiverConfig rcfg;
  rcfg.session = 1;
  rcfg.data_port = 20001;
  rcfg.source_node = s;
  rcfg.source_feedback_port = 40001;
  rcfg.repair_timeout_s = 0.05;
  rcfg.vnf.params = params;
  app::McReceiver rcv(net, r, provider, rcfg);

  int requests = 0;
  net.bind(s, 40001, [&](const Datagram&) { ++requests; });  // never answers

  // Feed fewer than g packets of generation 0 — decode can never finish.
  std::mt19937 rng(11);
  const coding::Generation gen = provider.generation(0);
  coding::Encoder enc(1, gen, rng);
  rcv.start();
  for (int i = 0; i < 3; ++i) {
    Datagram d;
    d.src = s;
    d.dst = r;
    d.dst_port = rcfg.data_port;
    d.payload = enc.encode_random().serialize();
    ASSERT_TRUE(net.send(std::move(d)));
  }
  net.sim().run_until(10.0);
  EXPECT_EQ(requests, 64);
  EXPECT_FALSE(rcv.complete());
}
