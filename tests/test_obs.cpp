// Observability layer tests: metrics registry semantics, histogram edge
// cases, the trace determinism contract (two same-seed runs must be
// byte-identical), golden-trace regression for two end-to-end scenarios
// and the Direct-TCP baseline, golden controller plans under churn (the
// LP answers, bit for bit) and along every decision path (with the VNF
// pools and NC_* signals), and the zero-allocation guarantee of the
// instrumented hot path.
//
// Golden files live in tests/golden/. After an *intentional* behaviour
// change, regenerate them with:
//   NCFN_UPDATE_GOLDEN=1 ./build/tests/test_obs
// and commit the diff — the point of the harness is that packet ordering,
// drop behaviour and decode timing cannot change silently.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include "app/provider.hpp"
#include "app/runtime.hpp"
#include "app/scenarios.hpp"
#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/problem.hpp"
#include "graph/topology.hpp"
#include "netsim/loss.hpp"
#include "netsim/network.hpp"
#include "netsim/tcp.hpp"
#include "golden_file.hpp"
#include "obs/obs.hpp"

namespace {

using namespace ncfn;

// ---------------------------------------------------------------------------
// Histogram edge cases
// ---------------------------------------------------------------------------

TEST(Histogram, EmptyReportsZeros) {
  const double bounds[] = {1.0, 2.0};
  obs::Histogram h{std::span<const double>(bounds)};
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  ASSERT_EQ(h.buckets().size(), 3u);
  for (std::uint64_t b : h.buckets()) EXPECT_EQ(b, 0u);
}

TEST(Histogram, NoBoundsMeansSingleOverflowBucket) {
  obs::Histogram h{std::span<const double>{}};
  h.record(-5.0);
  h.record(0.0);
  h.record(1e12);
  ASSERT_EQ(h.buckets().size(), 1u);
  EXPECT_EQ(h.buckets()[0], 3u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), -5.0);
  EXPECT_EQ(h.max(), 1e12);
}

TEST(Histogram, BucketBoundariesAreHalfOpen) {
  // Bucket i holds bound[i-1] <= x < bound[i]; a sample exactly on a
  // bound belongs to the bucket above it.
  const double bounds[] = {1.0, 2.0};
  obs::Histogram h{std::span<const double>(bounds)};
  h.record(0.5);   // bucket 0
  h.record(1.0);   // bucket 1 (not 0)
  h.record(1.99);  // bucket 1
  h.record(2.0);   // overflow bucket
  h.record(7.0);   // overflow bucket
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.mean(), (0.5 + 1.0 + 1.99 + 2.0 + 7.0) / 5.0);
}

TEST(Histogram, MergeFoldsCountsAndExtremes) {
  const double bounds[] = {10.0};
  obs::Histogram a{std::span<const double>(bounds)};
  obs::Histogram b{std::span<const double>(bounds)};
  a.record(1.0);
  b.record(20.0);
  b.record(-3.0);
  ASSERT_TRUE(a.merge(b));
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 18.0);
  EXPECT_EQ(a.min(), -3.0);
  EXPECT_EQ(a.max(), 20.0);
  EXPECT_EQ(a.buckets()[0], 2u);
  EXPECT_EQ(a.buckets()[1], 1u);
}

TEST(Histogram, MergeIntoEmptyAdoptsExtremes) {
  const double bounds[] = {10.0};
  obs::Histogram a{std::span<const double>(bounds)};
  obs::Histogram b{std::span<const double>(bounds)};
  b.record(4.0);
  ASSERT_TRUE(a.merge(b));
  EXPECT_EQ(a.min(), 4.0);
  EXPECT_EQ(a.max(), 4.0);
}

TEST(Histogram, MergeRejectsMismatchedBounds) {
  const double b1[] = {1.0};
  const double b2[] = {2.0};
  obs::Histogram a{std::span<const double>(b1)};
  obs::Histogram b{std::span<const double>(b2)};
  a.record(0.5);
  b.record(0.5);
  EXPECT_FALSE(a.merge(b));
  EXPECT_EQ(a.count(), 1u);  // unchanged on rejection
  EXPECT_EQ(a.buckets()[0], 1u);
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAcrossRegistrations) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x");
  a.inc(3);
  // Creating more entries must not invalidate the first handle.
  for (int i = 0; i < 100; ++i) reg.counter("c" + std::to_string(i));
  obs::Counter& a2 = reg.counter("x");
  EXPECT_EQ(&a, &a2);
  EXPECT_EQ(reg.counter_value("x"), 3u);
  EXPECT_EQ(reg.counter_value("never-registered"), 0u);
  EXPECT_EQ(reg.find_counter("never-registered"), nullptr);
}

TEST(MetricsRegistry, HistogramBoundsFixedByFirstRegistration) {
  obs::MetricsRegistry reg;
  const double b1[] = {1.0, 2.0};
  const double b2[] = {9.0};
  obs::Histogram& h = reg.histogram("h", b1);
  obs::Histogram& again = reg.histogram("h", b2);
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bounds().size(), 2u);
}

TEST(MetricsRegistry, JsonIsDeterministicAndOrdered) {
  auto populate = [](obs::MetricsRegistry& reg) {
    // Insert in non-lexicographic order; output must still be sorted.
    reg.counter("zeta").inc(2);
    reg.counter("alpha").inc(1);
    reg.gauge("g").set(2.5);
    const double bounds[] = {0.5};
    reg.histogram("h", bounds).record(0.25);
  };
  obs::MetricsRegistry r1, r2;
  populate(r1);
  populate(r2);
  const std::string j = r1.to_json();
  EXPECT_EQ(j, r2.to_json());
  EXPECT_LT(j.find("\"alpha\""), j.find("\"zeta\""));
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace basics
// ---------------------------------------------------------------------------

TEST(EventTrace, DisabledEmitsNothing) {
  obs::EventTrace t;
  t.packet_enqueue(0, 1, 1500, 1);
  t.gen_decode(2, 1, 0, 5);
  t.signal(0, "NC_START");
  EXPECT_EQ(t.record_count(), 0u);
  EXPECT_TRUE(t.data().empty());
}

TEST(EventTrace, StampsClockAndFixedKeyOrder) {
  obs::EventTrace t;
  double now = 1.25;
  t.set_clock([&now] { return now; });
  t.enable();
  t.packet_enqueue(3, 4, 1500, 2);
  now = 2.5;
  t.packet_drop(3, 4, 1500, "queue");
  t.gen_close(5, 1, 7, "evict");
  ASSERT_EQ(t.record_count(), 3u);
  EXPECT_EQ(t.data(),
            "{\"t\":1.250000000,\"ev\":\"pkt_enq\",\"from\":3,\"to\":4,"
            "\"bytes\":1500,\"q\":2}\n"
            "{\"t\":2.500000000,\"ev\":\"pkt_drop\",\"from\":3,\"to\":4,"
            "\"bytes\":1500,\"reason\":\"queue\"}\n"
            "{\"t\":2.500000000,\"ev\":\"gen_close\",\"node\":5,"
            "\"session\":1,\"gen\":7,\"reason\":\"evict\"}\n");
}

// ---------------------------------------------------------------------------
// Zero-allocation hot path (the PR 1 PacketPool discipline must survive
// instrumentation): with counters attached and the trace disabled, the
// steady-state encode/add/recode loop may not touch the heap.
// ---------------------------------------------------------------------------

TEST(ObsHotPath, MetricsAttachedSteadyStateDoesNotAllocate) {
  using namespace ncfn::coding;
  CodingParams p;
  auto pool = PacketPool::make();
  std::mt19937 rng(7);
  std::vector<std::uint8_t> data(p.generation_bytes());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  Generation gen(0, data, p);
  Encoder enc(1, gen, rng, pool);

  obs::Observability obs;  // trace default-disabled; metrics always on
  const CodingObs handles = CodingObs::bind(obs, /*node=*/9);

  auto one_round = [&] {
    Decoder dec(1, 0, p, pool);
    dec.set_obs(&handles);
    for (std::size_t i = 0; i < p.generation_blocks + 2; ++i) {
      dec.add(enc.encode_random());
    }
    for (int i = 0; i < 8; ++i) {
      CodedPacket out = dec.recode(rng);
      ASSERT_EQ(out.payload_size(), p.block_size);
    }
  };

  one_round();  // warmup sizes the freelist and registers all counters
  const auto warm = pool.stats();
  const std::uint64_t seen_warm = obs.metrics.counter_value(
      "coding.packets_seen");

  for (int round = 0; round < 20; ++round) one_round();

  const auto after = pool.stats();
  EXPECT_EQ(after.heap_allocs, warm.heap_allocs)
      << "instrumented steady-state encode/add/recode touched the heap";
  EXPECT_GT(after.reuses, warm.reuses);
  // ...and the counters actually counted.
  EXPECT_EQ(obs.metrics.counter_value("coding.packets_seen"),
            seen_warm + 20 * (p.generation_blocks + 2));
  EXPECT_EQ(obs.metrics.counter_value("coding.recode_ops"),
            21u * 8u);
}

// ---------------------------------------------------------------------------
// End-to-end determinism + golden traces
// ---------------------------------------------------------------------------

struct TracedRun {
  std::string trace;
  std::string metrics_json;
};

// The examples/quickstart.cpp overlay, shrunk to a few generations so the
// trace stays golden-file sized.
TracedRun run_quickstart(std::uint32_t seed) {
  graph::Topology topo;
  graph::NodeInfo host;
  host.kind = graph::NodeKind::kHost;
  host.name = "source";
  const auto source = topo.add_node(host);
  host.name = "receiver-1";
  const auto rx1 = topo.add_node(host);
  host.name = "receiver-2";
  const auto rx2 = topo.add_node(host);
  graph::NodeInfo dc;
  dc.kind = graph::NodeKind::kDataCenter;
  dc.bin_bps = dc.bout_bps = dc.vnf_capacity_bps = 100e6;
  dc.name = "dc-east";
  const auto east = topo.add_node(dc);
  dc.name = "dc-west";
  const auto west = topo.add_node(dc);
  topo.add_edge(source, east, 0.010, 50e6);
  topo.add_edge(source, west, 0.012, 50e6);
  topo.add_edge(east, west, 0.008, 30e6);
  topo.add_edge(west, east, 0.008, 30e6);
  topo.add_edge(east, rx1, 0.009, 60e6);
  topo.add_edge(west, rx2, 0.011, 60e6);
  topo.add_edge(east, rx2, 0.020, 20e6);
  topo.add_edge(west, rx1, 0.020, 20e6);
  topo.add_edge(rx1, source, 0.020, 10e6);
  topo.add_edge(rx2, source, 0.022, 10e6);

  ctrl::SessionSpec session;
  session.id = 1;
  session.source = source;
  session.receivers = {rx1, rx2};
  session.lmax_s = 0.100;
  ctrl::DeploymentProblem problem;
  problem.topo = &topo;
  problem.sessions = {session};
  problem.alpha = 5.0;
  const ctrl::DeploymentPlan plan = ctrl::solve_deployment(problem);
  EXPECT_TRUE(plan.feasible);

  coding::CodingParams params;
  app::SyntheticProvider data(seed, 3 * params.generation_bytes(), params);
  app::SimNet sim(topo);
  sim.trace().enable();
  app::SessionWiring wiring;
  wiring.vnf.params = params;
  wiring.redundancy = 1;
  wiring.seed = seed + 90;
  app::NcMulticastSession mc(sim, plan, 0, session, data, wiring);
  mc.receiver(0).set_verify(&data);
  mc.receiver(1).set_verify(&data);
  mc.start();
  sim.net().sim().run_until(0.5);
  return TracedRun{sim.trace().data(), sim.metrics().to_json()};
}

// One NC session on the Fig. 6 butterfly, a few generations, with lossy
// bottleneck — the golden trace must cover the drop/repair path too. The
// network seed drives the loss draws, so different seeds genuinely change
// which packets die.
TracedRun run_butterfly(std::uint32_t seed) {
  const auto b = app::scenarios::butterfly(false);
  ctrl::SessionSpec spec;
  spec.id = 1;
  spec.source = b.source;
  spec.receivers = {b.recv_o2, b.recv_c2};
  spec.lmax_s = 0.150;
  ctrl::DeploymentProblem prob;
  prob.topo = &b.topo;
  prob.alpha = 0.0;
  prob.sessions = {spec};
  const auto plan = ctrl::solve_deployment(prob);
  EXPECT_TRUE(plan.feasible);

  coding::CodingParams params;
  app::SyntheticProvider provider(seed, 3 * params.generation_bytes(),
                                  params);
  app::SimNetConfig net_cfg;
  net_cfg.seed = seed;
  app::SimNet sim(b.topo, net_cfg);
  sim.link(b.bottleneck)
      ->set_loss_model(std::make_unique<netsim::UniformLoss>(0.35));
  sim.trace().enable();
  app::SessionWiring wiring;
  wiring.vnf.params = params;
  wiring.redundancy = 0;
  wiring.repair_timeout_s = 0.3;
  wiring.seed = seed + 11;
  app::NcMulticastSession session(sim, plan, 0, spec, provider, wiring);
  session.receiver(0).set_verify(&provider);
  session.receiver(1).set_verify(&provider);
  session.start();
  sim.net().sim().run_until(1.0);
  return TracedRun{sim.trace().data(), sim.metrics().to_json()};
}

TEST(TraceDeterminism, QuickstartSameSeedByteIdentical) {
  const TracedRun a = run_quickstart(1);
  const TracedRun b = run_quickstart(1);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(TraceDeterminism, ButterflySameSeedByteIdentical) {
  const TracedRun a = run_butterfly(7);
  const TracedRun b = run_butterfly(7);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(TraceDeterminism, DifferentSeedsDiverge) {
  // Sanity check that the harness is sensitive at all: a different
  // network seed changes which bottleneck packets are lost and hence the
  // recorded drop/repair trajectory.
  const TracedRun a = run_butterfly(7);
  const TracedRun b = run_butterfly(8);
  EXPECT_NE(a.trace, b.trace);
}

using ncfn::golden::check_golden;

TEST(GoldenTrace, Quickstart) {
  check_golden("trace_quickstart.jsonl", run_quickstart(1).trace);
}

TEST(GoldenTrace, QuickstartMetrics) {
  check_golden("metrics_quickstart.json", run_quickstart(1).metrics_json);
}

TEST(GoldenTrace, Butterfly) {
  check_golden("trace_butterfly.jsonl", run_butterfly(7).trace);
}

TEST(GoldenTrace, ButterflyMetrics) {
  check_golden("metrics_butterfly.json", run_butterfly(7).metrics_json);
}

// The Fig. 7 Direct-TCP baseline: one TcpTransfer over a lossy, jittery
// two-node link pair. It sends every segment and ACK as a single
// datagram and cancels its RTO timer on almost every ACK; jitter
// reorders segments into duplicate ACKs (fast retransmit) and lost
// retransmissions leave holes only the RTO repairs. The trace ends with
// one line of TcpStats, the completion time in exact %a form.
std::string run_tcp(std::uint32_t seed) {
  obs::Observability hub;
  netsim::Network net(seed);
  hub.trace.set_clock([sim = &net.sim()] { return sim->now(); });
  hub.trace.enable();
  net.set_obs(&hub);
  net.add_node("src");
  net.add_node("dst");
  netsim::LinkConfig lc;
  lc.capacity_bps = 10e6;
  lc.prop_delay = 0.010;
  lc.queue_packets = 64;
  lc.jitter = 0.002;
  net.add_duplex_link(0, 1, lc);
  net.link(0, 1)->set_loss_model(std::make_unique<netsim::UniformLoss>(0.05));
  netsim::TcpTransfer tcp(net, 0, 1, 5000, 300 * 1000);
  tcp.start();
  net.sim().run_until(120.0);
  EXPECT_TRUE(tcp.finished());
  const netsim::TcpStats& s = tcp.stats();
  EXPECT_GT(s.fast_retransmits, 0u);
  EXPECT_GT(s.timeouts, 0u);
  char line[200];
  std::snprintf(line, sizeof line,
                "{\"ev\":\"tcp_stats\",\"sent\":%llu,\"retx\":%llu,"
                "\"timeouts\":%llu,\"fast_retx\":%llu,\"done\":\"%a\"}\n",
                static_cast<unsigned long long>(s.segments_sent),
                static_cast<unsigned long long>(s.retransmissions),
                static_cast<unsigned long long>(s.timeouts),
                static_cast<unsigned long long>(s.fast_retransmits),
                s.completion_time);
  return hub.trace.data() + line;
}

TEST(GoldenTrace, DirectTcp) { check_golden("trace_tcp.jsonl", run_tcp(3)); }

// ---------------------------------------------------------------------------
// Golden controller plans under churn: the LP answers, bit for bit
// ---------------------------------------------------------------------------

/// A 64-bit FNV-1a digest of every lambda, edge rate and path rate of a
/// plan, all in exact %a form.
unsigned long long rates_digest(const ctrl::DeploymentPlan& plan) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  auto mix = [&digest](double v) {
    char buf[40];
    const int n = std::snprintf(buf, sizeof buf, "%a;", v);
    for (int k = 0; k < n; ++k) {
      digest = (digest ^ static_cast<unsigned char>(buf[k])) *
               0x100000001b3ULL;
    }
  };
  for (std::size_t m = 0; m < plan.lambda_mbps.size(); ++m) {
    mix(plan.lambda_mbps[m]);
    for (const auto& [e, rate] : plan.edge_rate_mbps[m]) {
      mix(static_cast<double>(e));
      mix(rate);
    }
    for (const auto& receiver : plan.path_rates[m]) {
      for (const ctrl::PathRate& pr : receiver) mix(pr.rate_mbps);
    }
  }
  return static_cast<unsigned long long>(digest);
}

/// One line per decision: the LP statuses, the objective and VNF count,
/// and the rates digest.
std::string plan_line(std::size_t i, const char* op,
                      const ctrl::DeploymentPlan& plan) {
  char line[200];
  std::snprintf(line, sizeof line,
                "%3zu %-7s relax=%s final=%s obj=%a vnfs=%d rates=%016llx\n",
                i, op, lp::status_name(plan.relax_status),
                lp::status_name(plan.final_status), plan.objective,
                plan.total_vnfs(), rates_digest(plan));
  return line;
}

// A seeded churn script on the Sec. V.C overlay (16 hosts per region):
// sessions join and quit (2 to 5 live), receivers join and leave, and
// data centers report 75 % or 125 % of the nominal VM bandwidth. The
// incremental re-solves freeze the unaffected sessions, so their LPs
// carry 100+ fixing rows.
std::string run_churn_plans(std::uint32_t seed, std::size_t decisions) {
  app::scenarios::SixDcParams params;
  params.hosts_per_region = 16;
  const auto net = app::scenarios::six_datacenters(params);
  ctrl::Controller::Config cfg;
  cfg.tau1_s = 0.0;  // a bandwidth report applies at the next tick
  ctrl::Controller ctl(net.topo, cfg);
  std::mt19937 rng(seed);
  std::set<graph::NodeIdx> used;
  coding::SessionId next_id = 1;
  std::string out;
  for (std::size_t i = 0; i < decisions; ++i) {
    const double now = 60.0 * static_cast<double>(i + 1);
    const std::vector<ctrl::SessionSpec>& live = ctl.sessions();
    const unsigned roll = rng() % 8;
    const char* op = "bw";
    if (live.size() < 2 || (live.size() < 5 && roll < 2)) {
      op = "join";
      ctl.add_session(
          app::scenarios::random_session(net, next_id++, rng, 0.150, &used),
          now);
    } else if (roll < 3) {
      op = "quit";
      const ctrl::SessionSpec s = live[rng() % live.size()];
      used.erase(s.source);
      for (const graph::NodeIdx h : s.receivers) used.erase(h);
      ctl.remove_session(s.id, now);
    } else if (roll < 5) {
      op = "rx-join";
      const coding::SessionId id = live[rng() % live.size()].id;
      graph::NodeIdx h = net.hosts[rng() % net.hosts.size()];
      while (used.count(h) != 0) h = net.hosts[rng() % net.hosts.size()];
      used.insert(h);
      ctl.add_receiver(id, h, now);
    } else if (roll < 6) {
      op = "rx-quit";
      const ctrl::SessionSpec s = live[rng() % live.size()];
      if (s.receivers.size() > 1) {
        used.erase(s.receivers.back());
        ctl.remove_receiver(s.id, s.receivers.back(), now);
      }
    } else {
      const graph::NodeIdx dc = net.dcs[rng() % net.dcs.size()];
      const bool low_in = rng() % 2 == 0;
      ctl.report_bandwidth(dc, low_in ? 300e6 : 500e6,
                           low_in ? 500e6 : 300e6, now);
    }
    ctl.tick(now);
    out += plan_line(i, op, ctl.plan());
  }
  return out;
}

TEST(GoldenPlans, ControllerChurn) {
  check_golden("plans_churn.txt", run_churn_plans(11, 120));
}

// Every controller decision path on the same overlay: joins and quits
// (down to no live session), receiver churn (the last receiver's quit
// ends its session), Alg. 1 bandwidth reports, Alg. 2 delay increases on
// a planned edge and decreases anywhere, a planned DC-DC edge failing and
// recovering, and a data center whose heartbeats stop until tick()
// declares it down and a later heartbeat revives it. One line per
// decision: the plan, the VNF pools and the NC_* signals it emitted.
// After every decision the running pools match the plan's x_v while every
// DC is up (a crashed DC's pool is gone, so then they hold at most that).
std::string run_decision_paths(std::uint32_t seed, std::size_t decisions) {
  app::scenarios::SixDcParams params;
  params.hosts_per_region = 16;
  const auto net = app::scenarios::six_datacenters(params);
  ctrl::Controller::Config cfg;
  cfg.tau1_s = 0.0;  // bandwidth and delay reports apply at the next tick
  cfg.tau2_s = 0.0;
  cfg.heartbeat_timeout_s = 150.0;  // down after three silent decisions
  ctrl::Controller ctl(net.topo, cfg);
  std::mt19937 rng(seed);
  std::set<graph::NodeIdx> used;
  coding::SessionId next_id = 1;
  graph::EdgeIdx failed = -1;  // the planned edge taken down, if any
  graph::NodeIdx silent = -1;  // the DC whose heartbeats are withheld
  const auto dc_pair = [&net](graph::EdgeIdx e) {
    const graph::EdgeInfo& ei = net.topo.edge(e);
    return net.topo.node(ei.from).kind == graph::NodeKind::kDataCenter &&
           net.topo.node(ei.to).kind == graph::NodeKind::kDataCenter;
  };
  std::string out;
  for (std::size_t i = 0; i < decisions; ++i) {
    const double now = 60.0 * static_cast<double>(i + 1);
    const std::size_t signals_before = ctl.signal_log().size();
    const std::vector<ctrl::SessionSpec>& live = ctl.sessions();
    std::vector<graph::EdgeIdx> planned;  // edges carrying flow, in order
    for (const auto& rates : ctl.plan().edge_rate_mbps) {
      for (const auto& [e, rate] : rates) planned.push_back(e);
    }
    const unsigned roll = rng() % 16;
    const char* op = "idle";
    if (live.empty() || (live.size() < 4 && roll < 2)) {
      op = "join";
      ctl.add_session(
          app::scenarios::random_session(net, next_id++, rng, 0.150, &used),
          now);
    } else if (roll < 5) {
      op = "quit";
      const ctrl::SessionSpec s = live[rng() % live.size()];
      used.erase(s.source);
      for (const graph::NodeIdx h : s.receivers) used.erase(h);
      ctl.remove_session(s.id, now);
    } else if (roll < 7) {
      op = "rx-join";
      const coding::SessionId id = live[rng() % live.size()].id;
      graph::NodeIdx h = net.hosts[rng() % net.hosts.size()];
      while (used.count(h) != 0) h = net.hosts[rng() % net.hosts.size()];
      used.insert(h);
      ctl.add_receiver(id, h, now);
    } else if (roll < 8) {
      op = "rx-quit";
      const ctrl::SessionSpec s = live[rng() % live.size()];
      const graph::NodeIdx h = s.receivers[rng() % s.receivers.size()];
      if (s.receivers.size() == 1) used.erase(s.source);
      used.erase(h);
      ctl.remove_receiver(s.id, h, now);
    } else if (roll < 10) {
      op = "bw";
      const graph::NodeIdx dc = net.dcs[rng() % net.dcs.size()];
      const bool low_in = rng() % 2 == 0;
      ctl.report_bandwidth(dc, low_in ? 300e6 : 500e6,
                           low_in ? 500e6 : 300e6, now);
    } else if (roll < 11 && !planned.empty()) {
      op = "delay+";
      const graph::EdgeIdx e = planned[rng() % planned.size()];
      ctl.report_delay(e, ctl.topology().edge(e).delay_s * 1.5, now);
    } else if (roll < 12) {
      op = "delay-";
      std::vector<graph::EdgeIdx> slowed;
      for (graph::EdgeIdx e = 0; e < net.topo.edge_count(); ++e) {
        if (ctl.topology().edge(e).delay_s > net.topo.edge(e).delay_s) {
          slowed.push_back(e);
        }
      }
      if (!slowed.empty()) {
        const graph::EdgeIdx e = slowed[rng() % slowed.size()];
        ctl.report_delay(e, net.topo.edge(e).delay_s, now);
      } else {
        const auto edges = static_cast<unsigned>(net.topo.edge_count());
        auto e = static_cast<graph::EdgeIdx>(rng() % edges);
        while (!dc_pair(e)) e = static_cast<graph::EdgeIdx>(rng() % edges);
        ctl.report_delay(e, ctl.topology().edge(e).delay_s * 0.8, now);
      }
    } else if (roll < 13 && failed >= 0) {
      op = "link-up";
      ctl.report_link_state(failed, true, now);
      failed = -1;
    } else if (roll < 13) {
      op = "link-dn";
      std::vector<graph::EdgeIdx> candidates;
      for (const graph::EdgeIdx e : planned) {
        if (dc_pair(e) && ctl.topology().edge(e).up) candidates.push_back(e);
      }
      if (!candidates.empty()) {
        failed = candidates[rng() % candidates.size()];
        ctl.report_link_state(failed, false, now);
      }
    } else if (roll < 14 && silent >= 0) {
      op = "hb-back";
      silent = -1;
    } else if (roll < 14) {
      op = "hb-stop";
      silent = net.dcs[rng() % net.dcs.size()];
    }
    for (const graph::NodeIdx dc : net.dcs) {
      if (dc != silent) ctl.heartbeat(dc, now);
    }
    ctl.tick(now);

    int down = 0;
    for (const graph::NodeIdx dc : net.dcs) down += ctl.node_down(dc) ? 1 : 0;
    if (down == 0) {
      EXPECT_EQ(ctl.running_vnfs(), ctl.plan().total_vnfs()) << "decision " << i;
    } else {
      EXPECT_LE(ctl.running_vnfs(), ctl.plan().total_vnfs()) << "decision " << i;
    }
    std::map<std::string, int> emitted;
    const auto& log = ctl.signal_log();
    for (std::size_t k = signals_before; k < log.size(); ++k) {
      ++emitted[ctrl::signal_name(log[k].signal)];
    }
    char line[256];
    std::snprintf(line, sizeof line,
                  "%3zu %-7s sessions=%zu down=%d obj=%a vnfs=%d "
                  "rates=%016llx run=%d drain=%d launch=%d reuse=%d "
                  "resolves=%d",
                  i, op, ctl.sessions().size(), down, ctl.plan().objective,
                  ctl.plan().total_vnfs(), rates_digest(ctl.plan()),
                  ctl.running_vnfs(), ctl.draining_vnfs(), ctl.vm_launches(),
                  ctl.vm_reuses(), ctl.resolves());
    out += line;
    for (const auto& [kind, n] : emitted) {
      out += " " + kind + "=" + std::to_string(n);
    }
    out += "\n";
  }
  return out;
}

TEST(GoldenPlans, EveryDecisionPath) {
  check_golden("decisions_churn.txt", run_decision_paths(5, 160));
}

}  // namespace
