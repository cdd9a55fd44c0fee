// Unit tests for the discrete-event simulator and the network substrate:
// event ordering, link timing, queueing, loss models, probes.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "netsim/loss.hpp"
#include "netsim/network.hpp"
#include "netsim/sim.hpp"
#include "obs/obs.hpp"

using namespace ncfn::netsim;

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(5.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule(0.5, recurse);
  };
  sim.schedule(0.5, recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, CancelSuppressesEvent) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(2.0, [&] { ++fired; });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(1.0, [&] { ++fired; });
  sim.run();
  sim.cancel(id);  // must not blow up or affect later events
  sim.schedule(1.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, LongRunCancelsTimersWhileLiveEventsRun) {
  // The retransmission-timer pattern at scale: 10^5 live events each arm
  // a timer and cancel a random earlier one, which may still be pending
  // or may already have fired (a no-op). Times sit on a 10 ms grid, so
  // ties are common and the (at, id) order is exercised.
  constexpr int kLive = 100000;
  struct Meta {
    Time at;
    EventId id;
    bool cancelled;
  };
  Simulator sim;
  std::mt19937 rng(2024);
  std::vector<Meta> meta;
  std::vector<std::size_t> ran;
  std::vector<std::size_t> timers;  // indices into meta, possibly fired
  std::vector<char> fired;
  std::size_t cancels = 0;
  auto add = [&](Time at, std::function<void(std::size_t)> body) {
    const std::size_t idx = meta.size();
    meta.push_back({at, 0, false});
    fired.push_back(0);
    meta[idx].id = sim.schedule_at(at, [&, idx, body = std::move(body)] {
      ran.push_back(idx);
      fired[idx] = 1;
      body(idx);
    });
  };
  auto timer_body = [](std::size_t) {};
  auto live_body = [&](std::size_t) {
    const Time at = sim.now() + 0.01 * static_cast<double>(rng() % 200);
    add(at, timer_body);
    timers.push_back(meta.size() - 1);
    if (timers.size() > 1) {
      const std::size_t k = rng() % (timers.size() - 1);
      const std::size_t victim = timers[k];
      timers[k] = timers.back();
      timers.pop_back();
      sim.cancel(meta[victim].id);
      if (fired[victim] == 0) {
        meta[victim].cancelled = true;
        ++cancels;
      }
    }
  };
  for (int i = 0; i < kLive; ++i) {
    add(0.01 * static_cast<double>(rng() % 10000), live_body);
  }

  const std::size_t executed = sim.run_until(1000.0);

  EXPECT_GE(meta.size(), static_cast<std::size_t>(2 * kLive));
  EXPECT_GT(cancels, static_cast<std::size_t>(kLive / 4));
  std::size_t live = 0;
  for (const Meta& m : meta) live += m.cancelled ? 0 : 1;
  EXPECT_EQ(executed, live);
  ASSERT_EQ(ran.size(), live);
  for (std::size_t i = 0; i < ran.size(); ++i) {
    const Meta& m = meta[ran[i]];
    ASSERT_FALSE(m.cancelled) << "cancelled event " << m.id << " ran";
    if (i > 0) {
      const Meta& prev = meta[ran[i - 1]];
      ASSERT_TRUE(prev.at < m.at || (prev.at == m.at && prev.id < m.id))
          << "event " << m.id << " ran out of (at, id) order";
    }
  }
}

TEST(Simulator, RunMovesCallbacksOutOfTheQueue) {
  // What a callback captured (a link burst's datagrams, say) is moved
  // through the queue, never copied.
  struct Tally {
    int* copies;
    explicit Tally(int* c) : copies(c) {}
    Tally(const Tally& o) : copies(o.copies) { ++*copies; }
    Tally(Tally&& o) noexcept : copies(o.copies) {}
  };
  Simulator sim;
  int copies = 0;
  int fired = 0;
  for (int i = 0; i < 3; ++i) {
    sim.schedule(1.0 + i, [t = Tally(&copies), &fired] { ++fired; });
  }
  copies = 0;  // count only what happens inside the simulator
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(copies, 0);
}

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
  d.payload.assign(bytes, 0xAB);
  return d;
}
}  // namespace

TEST(Network, DeliversWithSerializationPlusPropagation) {
  Network net = make_two_node_net(8e6, 0.05);  // 8 Mbps, 50 ms
  double arrival = -1;
  net.bind(1, 9, [&](const Datagram&) { arrival = net.sim().now(); });
  // 972-byte payload + 28 overhead = 1000 B = 8000 bits -> 1 ms serialize.
  ASSERT_TRUE(net.send(make_dgram(0, 1, 9, 972)));
  net.sim().run();
  EXPECT_NEAR(arrival, 0.051, 1e-9);
}

TEST(Network, BackToBackPacketsQueueBehindSerializer) {
  Network net = make_two_node_net(8e6, 0.0);
  std::vector<double> arrivals;
  net.bind(1, 9, [&](const Datagram&) { arrivals.push_back(net.sim().now()); });
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(net.send(make_dgram(0, 1, 9, 972)));
  net.sim().run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[0], 0.001, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.002, 1e-9);
  EXPECT_NEAR(arrivals[2], 0.003, 1e-9);
}

TEST(Network, TailDropWhenQueueFull) {
  Network net = make_two_node_net(8e6, 0.0, /*queue=*/2);
  int delivered = 0;
  net.bind(1, 9, [&](const Datagram&) { ++delivered; });
  for (int i = 0; i < 10; ++i) net.send(make_dgram(0, 1, 9, 972));
  net.sim().run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.link(0, 1)->stats().dropped_queue, 8u);
}

TEST(Network, RecordsIntoItsOwnHub) {
  Network net = make_two_node_net(8e6, 0.05);
  ASSERT_NE(net.obs(), nullptr);
  net.obs()->trace.enable();
  net.sim().schedule(1.0, [&] { net.send(make_dgram(0, 1, 9, 972)); });
  net.sim().run();
  const ncfn::obs::Counter* delivered =
      net.obs()->metrics.find_counter("netsim.link.0-1.delivered");
  ASSERT_NE(delivered, nullptr);
  EXPECT_EQ(delivered->value(), 1u);
  // Records carry the network's simulated time: queued at 1 s, delivered
  // after 1 ms of serialization and 50 ms of propagation.
  const std::string& trace = net.obs()->trace.data();
  EXPECT_NE(trace.find("{\"t\":1.000000000,\"ev\":\"pkt_enq\""),
            std::string::npos)
      << trace;
  EXPECT_NE(trace.find("{\"t\":1.051000000,\"ev\":\"pkt_dlv\""),
            std::string::npos)
      << trace;

  // A hub swapped in later takes the records of links built afterwards.
  ncfn::obs::Observability other;
  net.set_obs(&other);
  EXPECT_EQ(net.obs(), &other);
  LinkConfig lc;
  lc.capacity_bps = 8e6;
  net.add_link(1, 0, lc);
  ASSERT_TRUE(net.send(make_dgram(1, 0, 9, 972)));
  net.sim().run();
  const ncfn::obs::Counter* back =
      other.metrics.find_counter("netsim.link.1-0.delivered");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->value(), 1u);
}

TEST(NetworkDeathTest, SetObsRejectsNull) {
  Network net(1);
  EXPECT_DEATH(net.set_obs(nullptr), "Network::set_obs: null hub");
}

TEST(Network, NoLinkMeansSendFails) {
  Network net = make_two_node_net(8e6, 0.0);
  EXPECT_FALSE(net.send(make_dgram(1, 0, 9, 10)));  // reverse direction
}

TEST(Network, UnboundPortDropsSilently) {
  Network net = make_two_node_net(8e6, 0.0);
  ASSERT_TRUE(net.send(make_dgram(0, 1, 1234, 10)));
  net.sim().run();  // no crash, packet vanished
  EXPECT_EQ(net.link(0, 1)->stats().delivered, 1u);
}

TEST(Network, UnbindStopsDelivery) {
  Network net = make_two_node_net(8e6, 0.0);
  int delivered = 0;
  net.bind(1, 9, [&](const Datagram&) { ++delivered; });
  net.send(make_dgram(0, 1, 9, 10));
  net.sim().run();
  net.unbind(1, 9);
  net.send(make_dgram(0, 1, 9, 10));
  net.sim().run();
  EXPECT_EQ(delivered, 1);
}

TEST(Network, CapacityChangeAffectsOnlyLaterPackets) {
  Network net = make_two_node_net(8e6, 0.0);
  std::vector<double> arrivals;
  net.bind(1, 9, [&](const Datagram&) { arrivals.push_back(net.sim().now()); });
  net.send(make_dgram(0, 1, 9, 972));                 // 1 ms at 8 Mbps
  net.link(0, 1)->set_capacity_bps(4e6);              // halve
  net.send(make_dgram(0, 1, 9, 972));                 // 2 ms at 4 Mbps
  net.sim().run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.001, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.003, 1e-9);
}

TEST(Network, PingRttSumsBothDirections) {
  Network net(1);
  net.add_node("a");
  net.add_node("b");
  LinkConfig fwd{8e6, 0.030, 512};
  LinkConfig rev{8e6, 0.040, 512};
  net.add_link(0, 1, fwd);
  net.add_link(1, 0, rev);
  const auto rtt = net.ping_rtt(0, 1, 972);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_NEAR(*rtt, 0.030 + 0.040 + 2 * 0.001, 1e-9);
  EXPECT_FALSE(net.ping_rtt(0, 0, 64).has_value());
}

TEST(Network, BandwidthProbeIsNoisyButCentered) {
  Network net = make_two_node_net(100e6, 0.01);
  double sum = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const auto bw = net.probe_bandwidth_bps(0, 1, 0.02);
    ASSERT_TRUE(bw.has_value());
    EXPECT_GE(*bw, 98e6 - 1);
    EXPECT_LE(*bw, 102e6 + 1);
    sum += *bw;
  }
  EXPECT_NEAR(sum / n, 100e6, 0.5e6);
}

TEST(Network, JitterBoundsAndReordersDeliveries) {
  Network net(5);
  net.add_node("a");
  net.add_node("b");
  LinkConfig lc;
  lc.capacity_bps = 1e9;
  lc.prop_delay = 0.010;
  lc.jitter = 0.005;
  net.add_link(0, 1, lc);
  std::vector<std::uint64_t> order;
  std::vector<double> arrivals;
  net.bind(1, 9, [&](const Datagram& d) {
    order.push_back(d.payload[0]);
    arrivals.push_back(net.sim().now());
  });
  for (int i = 0; i < 200; ++i) {
    Datagram d;
    d.src = 0;
    d.dst = 1;
    d.dst_port = 9;
    d.payload = {static_cast<std::uint8_t>(i)};
    net.send(std::move(d));
  }
  net.sim().run();
  ASSERT_EQ(order.size(), 200u);
  // Every delivery within [prop, prop + jitter] of its serialization end.
  for (double t : arrivals) {
    EXPECT_GE(t, 0.010 - 1e-12);
    EXPECT_LE(t, 0.010 + 0.005 + 200 * 29 * 8 / 1e9 + 1e-9);
  }
  // And the stream is genuinely reordered.
  bool reordered = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(Network, ZeroJitterKeepsOrder) {
  Network net = make_two_node_net(1e9, 0.01);
  std::vector<std::uint8_t> order;
  net.bind(1, 9,
           [&](const Datagram& d) { order.push_back(d.payload[0]); });
  for (int i = 0; i < 50; ++i) {
    Datagram d;
    d.src = 0;
    d.dst = 1;
    d.dst_port = 9;
    d.payload = {static_cast<std::uint8_t>(i)};
    net.send(std::move(d));
  }
  net.sim().run();
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

// ---- Bursts: one departure and one delivery event per link burst ----

namespace {
/// `n` datagrams 0 -> 1 on `port`, payload[0] = index in the burst.
std::vector<Datagram> make_burst(std::size_t n, Port port = 9) {
  std::vector<Datagram> burst;
  for (std::size_t i = 0; i < n; ++i) {
    Datagram d = make_dgram(0, 1, port, 972);
    d.payload[0] = static_cast<std::uint8_t>(i);
    burst.push_back(std::move(d));
  }
  return burst;
}
}  // namespace

TEST(Network, BurstRunsTwoEventsWhereSingleSendsRunTwoEach) {
  constexpr std::size_t kN = 8;
  Network bursty = make_two_node_net(8e6, 0.05);
  bursty.send_burst(make_burst(kN));
  EXPECT_EQ(bursty.sim().run(), 2u);
  EXPECT_EQ(bursty.link(0, 1)->stats().delivered, kN);

  Network single = make_two_node_net(8e6, 0.05);
  for (Datagram& d : make_burst(kN)) ASSERT_TRUE(single.send(std::move(d)));
  EXPECT_EQ(single.sim().run(), 2 * kN);
  EXPECT_EQ(single.link(0, 1)->stats().delivered, kN);
}

TEST(Network, BurstArrivesInOrderAtLastPacketDeliveryTime) {
  Network net = make_two_node_net(8e6, 0.05);  // 1 ms per 1000 B packet
  std::vector<std::uint8_t> order;
  std::vector<double> arrivals;
  net.bind(1, 9, [&](const Datagram& d) {
    order.push_back(d.payload[0]);
    arrivals.push_back(net.sim().now());
  });
  net.send_burst(make_burst(4));
  net.sim().run();
  EXPECT_EQ(order, (std::vector<std::uint8_t>{0, 1, 2, 3}));
  ASSERT_EQ(arrivals.size(), 4u);
  for (double t : arrivals) EXPECT_NEAR(t, 0.004 + 0.05, 1e-9);
}

TEST(Network, TailDropInsideBurst) {
  Network net = make_two_node_net(8e6, 0.0, /*queue=*/2);
  std::vector<std::uint8_t> order;
  net.bind(1, 9, [&](const Datagram& d) { order.push_back(d.payload[0]); });
  net.send_burst(make_burst(4));
  net.sim().run();
  EXPECT_EQ(order, (std::vector<std::uint8_t>{0, 1}));
  const LinkStats& s = net.link(0, 1)->stats();
  EXPECT_EQ(s.delivered, 2u);
  EXPECT_EQ(s.dropped_queue, 2u);
  EXPECT_TRUE(s.conserved());
}

TEST(Network, LinkDownDropsWholeBurstInFlight) {
  Network net = make_two_node_net(8e6, 0.05);
  int delivered = 0;
  net.bind(1, 9, [&](const Datagram&) { ++delivered; });
  net.send_burst(make_burst(4));
  net.sim().run_until(0.02);  // serialized, still propagating
  EXPECT_EQ(net.link(0, 1)->stats().in_flight, 4u);
  net.link(0, 1)->set_up(false);
  net.sim().run();
  EXPECT_EQ(delivered, 0);
  const LinkStats& s = net.link(0, 1)->stats();
  EXPECT_EQ(s.dropped_down, 4u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_TRUE(s.conserved());
}

TEST(Network, BindAndBindBurstShareOneBindingPerPort) {
  Network net = make_two_node_net(8e6, 0.0);
  int datagrams = 0;
  std::vector<std::size_t> runs;
  const auto count_datagrams = [&](const Datagram&) { ++datagrams; };
  const auto count_runs = [&](std::span<Datagram> run) {
    runs.push_back(run.size());
  };

  // bind_burst replaces bind: the burst handler alone sees the burst.
  net.bind(1, 9, count_datagrams);
  net.bind_burst(1, 9, count_runs);
  net.send_burst(make_burst(3));
  net.sim().run();
  EXPECT_EQ(datagrams, 0);
  EXPECT_EQ(runs, (std::vector<std::size_t>{3}));

  // And bind replaces bind_burst.
  net.bind(1, 9, count_datagrams);
  net.send_burst(make_burst(3));
  net.sim().run();
  EXPECT_EQ(datagrams, 3);
  EXPECT_EQ(runs.size(), 1u);

  // unbind removes either kind.
  net.unbind(1, 9);
  net.send_burst(make_burst(3));
  net.bind_burst(1, 9, count_runs);
  net.unbind(1, 9);
  ASSERT_TRUE(net.send(make_dgram(0, 1, 9, 10)));
  net.sim().run();
  EXPECT_EQ(datagrams, 3);
  EXPECT_EQ(runs.size(), 1u);
  EXPECT_EQ(net.link(0, 1)->stats().delivered, 10u);
}

// ---- Loss models ----

TEST(Loss, UniformRateIsStatisticallyCorrect) {
  std::mt19937 rng(123);
  UniformLoss loss(0.3);
  int drops = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) drops += loss.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.3, 0.02);
}

TEST(Loss, BurstStationaryRateNearPaperFormula) {
  // P_n = 0.25 P_{n-1} + P converges to P / 0.75 when drops are rare.
  std::mt19937 rng(7);
  const double p = 0.02;
  BurstLoss loss(p);
  int drops = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) drops += loss.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, p / 0.75, 0.005);
}

TEST(Loss, BurstZeroPNeverDrops) {
  std::mt19937 rng(7);
  BurstLoss loss(0.0);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(loss.drop(rng));
}

TEST(Loss, GilbertElliottBadStateDropsMore) {
  std::mt19937 rng(9);
  GilbertElliottLoss loss(0.05, 0.2, 0.001, 0.5);
  int drops = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) drops += loss.drop(rng) ? 1 : 0;
  // Stationary bad-state probability = 0.05/(0.05+0.2) = 0.2
  // -> overall ~ 0.2*0.5 + 0.8*0.001 ~ 0.10.
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.10, 0.02);
}

TEST(Loss, GilbertElliottSamplesBeforeTransition) {
  // Deterministic alternation (p_gb = p_bg = 1): the first packet must be
  // sampled in the initial good state and survive; dropping it means the
  // implementation transitioned before sampling.
  std::mt19937 rng(1);
  GilbertElliottLoss loss(1.0, 1.0, 0.0, 1.0);
  EXPECT_FALSE(loss.drop(rng));  // good
  EXPECT_TRUE(loss.drop(rng));   // bad
  EXPECT_FALSE(loss.drop(rng));  // good again
}

TEST(Loss, GilbertElliottStationaryLossRate) {
  // Stationary bad-state share = p_gb/(p_gb+p_bg) = 0.2; with a lossless
  // good state the long-run loss rate is exactly 0.2 * loss_bad = 0.06.
  std::mt19937 rng(17);
  GilbertElliottLoss loss(0.02, 0.08, 0.0, 0.3);
  int drops = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) drops += loss.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.06, 0.006);
}

TEST(Network, LinkLossModelDropsPackets) {
  Network net = make_two_node_net(100e6, 0.0, /*queue=*/4096);
  net.link(0, 1)->set_loss_model(std::make_unique<UniformLoss>(0.5));
  int delivered = 0;
  net.bind(1, 9, [&](const Datagram&) { ++delivered; });
  const int n = 2000;
  for (int i = 0; i < n; ++i) net.send(make_dgram(0, 1, 9, 100));
  net.sim().run();
  EXPECT_NEAR(delivered, n / 2, 120);
  EXPECT_EQ(net.link(0, 1)->stats().dropped_loss + net.link(0, 1)->stats().delivered,
            static_cast<std::uint64_t>(n));
}
