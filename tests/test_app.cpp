// Tests for the application layer: data providers, feedback messages,
// the routing-only tree-packing baseline, source pacing, and receiver
// verification and reassembly.
#include <gtest/gtest.h>

#include <map>

#include "app/baseline.hpp"
#include "app/messages.hpp"
#include "app/provider.hpp"
#include "app/receiver.hpp"
#include "app/scenarios.hpp"
#include "app/source.hpp"
#include "coding/encoder.hpp"

using namespace ncfn;
using namespace ncfn::app;

TEST(Provider, SyntheticIsDeterministic) {
  coding::CodingParams p;
  p.block_size = 32;
  p.generation_blocks = 4;
  SyntheticProvider a(42, 1000, p), b(42, 1000, p), c(43, 1000, p);
  EXPECT_EQ(a.generation_bytes(3), b.generation_bytes(3));
  EXPECT_NE(a.generation_bytes(3), c.generation_bytes(3));
  EXPECT_NE(a.generation_bytes(2), a.generation_bytes(3));
}

TEST(Provider, SyntheticGenerationCountAndTail) {
  coding::CodingParams p;
  p.block_size = 10;
  p.generation_blocks = 4;  // 40 bytes per generation
  SyntheticProvider prov(1, 95, p);
  EXPECT_EQ(prov.generation_count(), 3u);
  EXPECT_EQ(prov.generation_bytes(2).size(), 15u);  // 95 - 80
  EXPECT_EQ(prov.generation(2).payload_bytes(), 15u);
}

TEST(Provider, BufferMatchesSourceData) {
  coding::CodingParams p;
  p.block_size = 16;
  p.generation_blocks = 2;
  std::vector<std::uint8_t> data(70);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 3);
  }
  BufferProvider prov(data, p);
  EXPECT_EQ(prov.generation_count(), 3u);
  const auto g1 = prov.generation(1);
  EXPECT_EQ(g1.block(0)[0], data[32]);
  EXPECT_EQ(prov.generation(2).payload_bytes(), 6u);
}

TEST(Messages, FeedbackRoundTrip) {
  Feedback f;
  f.type = FeedbackType::kRepair;
  f.session = 0xABCD1234;
  f.generation = 999;
  f.count = 3;
  f.block_mask = 0b1011;
  f.receiver_node = 17;
  const auto wire = f.serialize();
  const auto back = Feedback::parse(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, f.type);
  EXPECT_EQ(back->session, f.session);
  EXPECT_EQ(back->generation, f.generation);
  EXPECT_EQ(back->count, f.count);
  EXPECT_EQ(back->block_mask, f.block_mask);
  EXPECT_EQ(back->receiver_node, f.receiver_node);
}

TEST(Messages, ParseRejectsBadInput) {
  std::vector<std::uint8_t> wire(23, 0);
  wire[0] = 9;  // unknown type
  EXPECT_FALSE(Feedback::parse(wire).has_value());
  wire.resize(10);
  EXPECT_FALSE(Feedback::parse(wire).has_value());
}

// ---- Tree packing (Non-NC baseline) ----

TEST(Baseline, ButterflyPacksToRoutingOptimum) {
  // The classic result: routing-only multicast on the butterfly achieves
  // 1.5x the link capacity = 52.5 Mbps, vs 70 with coding.
  const auto b = scenarios::butterfly(false);
  const auto packing =
      pack_trees(b.topo, b.source, {b.recv_o2, b.recv_c2}, 0.150);
  EXPECT_NEAR(packing.total_rate_mbps, 52.5, 1.0);
  EXPECT_GE(packing.trees.size(), 2u);
}

TEST(Baseline, SingleReceiverPackingEqualsMaxFlow) {
  // With one receiver, trees are just paths: packing = max flow.
  const auto b = scenarios::butterfly(false);
  const auto packing = pack_trees(b.topo, b.source, {b.recv_o2}, 0.150);
  EXPECT_NEAR(packing.total_rate_mbps, 70.0, 1.0);
}

TEST(Baseline, UnreachableReceiverGivesEmptyPacking) {
  graph::Topology t;
  graph::NodeInfo h;
  h.kind = graph::NodeKind::kHost;
  const auto s = t.add_node(h);
  const auto d = t.add_node(h);
  const auto packing = pack_trees(t, s, {d}, 0.1);
  EXPECT_TRUE(packing.trees.empty());
  EXPECT_EQ(packing.total_rate_mbps, 0.0);
}

TEST(Baseline, TreeNextHopsFollowEdges) {
  const auto b = scenarios::butterfly(false);
  const auto packing =
      pack_trees(b.topo, b.source, {b.recv_o2, b.recv_c2}, 0.150);
  ASSERT_FALSE(packing.trees.empty());
  for (const auto& tree : packing.trees) {
    // The source must have at least one outgoing hop in every tree.
    EXPECT_FALSE(tree.next_hops(b.topo, b.source).empty());
  }
}

TEST(Baseline, ScheduleSharesMatchRates) {
  std::vector<MulticastTree> trees(2);
  trees[0].rate_mbps = 30;
  trees[1].rate_mbps = 10;
  const auto sched = tree_schedule(trees);
  ASSERT_EQ(sched.size(), kScheduleLength);
  int c0 = 0;
  for (auto s : sched) c0 += s == 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(c0) / static_cast<double>(kScheduleLength),
              0.75, 0.02);
}

TEST(Baseline, ScheduleNeverStarvesATree) {
  std::vector<MulticastTree> trees(3);
  trees[0].rate_mbps = 100;
  trees[1].rate_mbps = 1;
  trees[2].rate_mbps = 1;
  const auto sched = tree_schedule(trees);
  std::set<std::uint16_t> seen(sched.begin(), sched.end());
  EXPECT_EQ(seen.size(), 3u);
}

// ---- Source pacing ----

TEST(Source, PacesAtConfiguredRatePerHop) {
  netsim::Network net(1);
  const auto s = net.add_node("src");
  const auto d = net.add_node("dst");
  netsim::LinkConfig lc;
  lc.capacity_bps = 1e9;
  lc.prop_delay = 0.001;
  net.add_duplex_link(s, d, lc);

  coding::CodingParams params;
  params.block_size = 1460;
  params.generation_blocks = 4;
  SyntheticProvider provider(1, 300 * params.generation_bytes(), params);
  SourceConfig cfg;
  cfg.session = 1;
  cfg.params = params;
  cfg.lambda_mbps = 8.0;
  cfg.data_port = 9000;
  cfg.feedback_port = 9500;
  McSource src(net, s, provider, cfg);
  src.configure_hops({{ctrl::NextHop{d, 9000}, 8.0}});

  int packets = 0;
  net.bind(d, 9000, [&](const netsim::Datagram&) { ++packets; });
  src.start();
  net.sim().run_until(1.0);
  // 8 Mbps at 1460 B payload -> ~685 packets/s.
  EXPECT_NEAR(packets, 685, 30);
}

TEST(Source, RedundancyInflatesPacketCount) {
  auto run_with_redundancy = [](int r) {
    netsim::Network net(1);
    const auto s = net.add_node("src");
    const auto d = net.add_node("dst");
    netsim::LinkConfig lc;
    lc.capacity_bps = 1e9;
    lc.prop_delay = 0.001;
    net.add_duplex_link(s, d, lc);
    coding::CodingParams params;
    SyntheticProvider provider(1, 200 * params.generation_bytes(), params);
    SourceConfig cfg;
    cfg.params = params;
    cfg.lambda_mbps = 8.0;
    cfg.redundancy = r;
    McSource src(net, s, provider, cfg);
    src.configure_hops({{ctrl::NextHop{d, cfg.data_port}, 8.0}});
    int packets = 0;
    net.bind(d, cfg.data_port, [&](const netsim::Datagram&) { ++packets; });
    src.start();
    net.sim().run_until(2.0);
    return packets;
  };
  const int nc0 = run_with_redundancy(0);
  const int nc1 = run_with_redundancy(1);
  // NC1 sends (g+1)/g = 25% more packets at the same payload rate.
  EXPECT_NEAR(static_cast<double>(nc1) / nc0, 1.25, 0.05);
}

TEST(Source, StopsWhenDataExhausted) {
  netsim::Network net(1);
  const auto s = net.add_node("src");
  const auto d = net.add_node("dst");
  netsim::LinkConfig lc;
  lc.capacity_bps = 1e9;
  lc.prop_delay = 0.001;
  net.add_duplex_link(s, d, lc);
  coding::CodingParams params;
  SyntheticProvider provider(1, 2 * params.generation_bytes(), params);
  SourceConfig cfg;
  cfg.params = params;
  cfg.lambda_mbps = 50.0;
  McSource src(net, s, provider, cfg);
  src.configure_hops({{ctrl::NextHop{d, cfg.data_port}, 50.0}});
  int packets = 0;
  net.bind(d, cfg.data_port, [&](const netsim::Datagram&) { ++packets; });
  src.start();
  net.sim().run_until(60.0);
  EXPECT_TRUE(src.data_exhausted());
  // Roughly 2 generations * 4 blocks; the event queue must have drained
  // (pacers stop, no busy loop for a minute of sim time).
  EXPECT_LE(packets, 20);
}

TEST(Source, ServesRepairRequests) {
  netsim::Network net(1);
  const auto s = net.add_node("src");
  const auto d = net.add_node("dst");
  netsim::LinkConfig lc;
  lc.capacity_bps = 1e9;
  lc.prop_delay = 0.001;
  net.add_duplex_link(s, d, lc);
  coding::CodingParams params;
  SyntheticProvider provider(1, 4 * params.generation_bytes(), params);
  SourceConfig cfg;
  cfg.params = params;
  cfg.lambda_mbps = 80.0;
  McSource src(net, s, provider, cfg);
  src.configure_hops({{ctrl::NextHop{d, cfg.data_port}, 80.0}});
  int packets = 0;
  net.bind(d, cfg.data_port, [&](const netsim::Datagram&) { ++packets; });
  src.start();
  net.sim().run_until(10.0);
  ASSERT_TRUE(src.data_exhausted());
  const int before = packets;

  Feedback fb;
  fb.type = FeedbackType::kRepair;
  fb.session = cfg.session;
  fb.generation = 1;
  fb.count = 3;
  fb.receiver_node = d;
  netsim::Datagram dg;
  dg.src = d;
  dg.dst = s;
  dg.dst_port = cfg.feedback_port;
  dg.payload = fb.serialize();
  ASSERT_TRUE(net.send(std::move(dg)));
  net.sim().run_until(20.0);
  EXPECT_EQ(packets, before + 3);
  EXPECT_EQ(src.stats().repair_requests, 1u);
  EXPECT_EQ(src.stats().repair_packets_sent, 3u);
}

TEST(Source, KeepsRepairRequestsReceivedWithNoHop) {
  // A re-solve can leave a running source no hop. A repair request that
  // arrives meanwhile waits for the rewire that brings a hop back.
  netsim::Network net(1);
  const auto s = net.add_node("src");
  const auto d = net.add_node("dst");
  netsim::LinkConfig lc;
  lc.capacity_bps = 1e9;
  lc.prop_delay = 0.001;
  net.add_duplex_link(s, d, lc);
  coding::CodingParams params;
  SyntheticProvider provider(1, 4 * params.generation_bytes(), params);
  SourceConfig cfg;
  cfg.params = params;
  cfg.lambda_mbps = 80.0;
  McSource src(net, s, provider, cfg);
  src.configure_hops({});
  int packets = 0;
  net.bind(d, cfg.data_port, [&](const netsim::Datagram&) { ++packets; });
  src.start();

  Feedback fb;
  fb.type = FeedbackType::kRepair;
  fb.session = cfg.session;
  fb.generation = 1;
  fb.count = 2;
  fb.receiver_node = d;
  netsim::Datagram dg;
  dg.src = d;
  dg.dst = s;
  dg.dst_port = cfg.feedback_port;
  dg.payload = fb.serialize();
  ASSERT_TRUE(net.send(std::move(dg)));
  net.sim().run_until(1.0);
  EXPECT_EQ(src.stats().repair_requests, 1u);
  EXPECT_EQ(packets, 0);

  src.reconfigure_hops({{ctrl::NextHop{d, cfg.data_port}, 80.0}});
  net.sim().run_until(10.0);
  EXPECT_EQ(src.stats().repair_packets_sent, 2u);
  EXPECT_GT(packets, 2);  // the stream resumed after the repairs
}

// ---- Receiver verify and reassembly ----

TEST(Receiver, VerifyComparesOnlyUnpaddedBytes) {
  netsim::Network net(1);
  const auto s = net.add_node("src");
  const auto d = net.add_node("dst");
  netsim::LinkConfig lc;
  lc.capacity_bps = 1e9;
  lc.prop_delay = 0.001;
  net.add_duplex_link(s, d, lc);

  coding::CodingParams params;
  params.block_size = 16;
  params.generation_blocks = 4;
  // Generation 2 is short: 20 bytes, so block 1 holds 4 bytes and 12 of
  // padding, and blocks 2 and 3 are all padding.
  SyntheticProvider provider(3, 2 * params.generation_bytes() + 20, params);
  ReceiverConfig cfg;
  cfg.vnf.params = params;
  cfg.data_port = 9000;
  cfg.source_node = s;
  cfg.enable_repair = false;
  McReceiver rx(net, d, provider, cfg);
  rx.set_verify(&provider);
  std::map<coding::GenerationId, std::vector<std::uint8_t>> delivered;
  rx.set_ordered_sink(
      [&](coding::GenerationId gen, std::vector<std::uint8_t> bytes) {
        delivered[gen] = std::move(bytes);
      });
  rx.start();

  // Send generation `gen` as its systematic blocks, with byte `byte` of
  // block `blk` flipped when blk < g.
  std::mt19937 rng(1);
  const auto send = [&](coding::GenerationId gen, std::size_t blk,
                        std::size_t byte) {
    const coding::Generation source = provider.generation(gen);
    coding::Encoder enc(cfg.session, source, rng);
    for (std::size_t i = 0; i < params.generation_blocks; ++i) {
      coding::CodedPacket pkt = enc.encode_systematic(i);
      if (i == blk) pkt.payload()[byte] ^= 0x01;
      netsim::Datagram dg;
      dg.src = s;
      dg.dst = d;
      dg.dst_port = cfg.data_port;
      dg.payload = pkt.serialize();
      ASSERT_TRUE(net.send(std::move(dg)));
    }
    net.sim().run();
  };

  send(0, 3, 15);  // the last unpadded byte of a full generation
  EXPECT_EQ(rx.stats().verify_failures, 1u);
  send(1, 4, 0);  // untouched
  EXPECT_EQ(rx.stats().verify_failures, 1u);
  send(2, 1, 4);  // the first padding byte of the short generation
  EXPECT_EQ(rx.stats().verify_failures, 1u);
  EXPECT_EQ(rx.stats().generations_decoded, 3u);
  EXPECT_TRUE(rx.complete());

  // The sink gets each generation's unpadded bytes, as decoded.
  ASSERT_EQ(delivered.size(), 3u);
  auto corrupted = provider.generation_bytes(0);
  corrupted.back() ^= 0x01;
  EXPECT_EQ(delivered[0], corrupted);
  EXPECT_EQ(delivered[1], provider.generation_bytes(1));
  EXPECT_EQ(delivered[2], provider.generation_bytes(2));
  EXPECT_EQ(delivered[2].size(), 20u);
}
