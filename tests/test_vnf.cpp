// Tests for the coding VNF data plane (roles, pipelined recoding, credit
// shares, lanes, pause/resume) and the control daemon (signal handling,
// table-update cost, tau shutdown and reuse).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "app/provider.hpp"
#include "coding/encoder.hpp"
#include "ctrl/signals.hpp"
#include "netsim/network.hpp"
#include "vnf/coding_vnf.hpp"
#include "vnf/daemon.hpp"

using namespace ncfn;
using namespace ncfn::vnf;
using ncfn::ctrl::NextHop;
using ncfn::ctrl::VnfRole;

namespace {

struct Rig {
  netsim::Network net{1};
  netsim::NodeId src, relay, dst;
  coding::CodingParams params;

  Rig() {
    src = net.add_node("src");
    relay = net.add_node("relay");
    dst = net.add_node("dst");
    netsim::LinkConfig lc;
    lc.capacity_bps = 1e9;
    lc.prop_delay = 0.001;
    net.add_link(src, relay, lc);
    net.add_link(relay, dst, lc);
    params.block_size = 64;
    params.generation_blocks = 4;
  }

  VnfConfig vnf_config() {
    VnfConfig cfg;
    cfg.params = params;
    cfg.seed = 3;
    return cfg;
  }

  void send_packet(const coding::CodedPacket& pkt, netsim::Port port) {
    netsim::Datagram d;
    d.src = src;
    d.dst = relay;
    d.dst_port = port;
    d.payload = pkt.serialize();
    ASSERT_TRUE(net.send(std::move(d)));
  }
};

}  // namespace

TEST(CodingVnf, RecodeRelayEmitsOnePacketPerArrival) {
  Rig rig;
  CodingVnf relay(rig.net, rig.relay, rig.vnf_config());
  relay.configure_session(1, VnfRole::kRecode, 9000);
  relay.set_next_hops(1, {NextHopRate{NextHop{rig.dst, 9000}, 1.0}});

  std::vector<coding::CodedPacket> received;
  rig.net.bind(rig.dst, 9000, [&](const netsim::Datagram& d) {
    auto pkt = coding::CodedPacket::parse(d.payload, rig.params);
    ASSERT_TRUE(pkt.has_value());
    received.push_back(*pkt);
  });

  std::mt19937 rng(5);
  const auto data = app::SyntheticProvider(1, rig.params.generation_bytes(),
                                           rig.params)
                        .generation(0);
  coding::Encoder enc(1, data, rng);
  for (int i = 0; i < 6; ++i) rig.send_packet(enc.encode_random(), 9000);
  rig.net.sim().run();

  EXPECT_EQ(received.size(), 6u);
  EXPECT_EQ(relay.stats(1).received, 6u);
  EXPECT_EQ(relay.stats(1).emitted, 6u);
  // Downstream decoder completes from the recoded stream.
  coding::Decoder dec(1, 0, rig.params);
  for (const auto& p : received) dec.add(p);
  EXPECT_TRUE(dec.complete());
}

TEST(CodingVnf, FirstPacketOfGenerationPassesThroughUnchanged) {
  Rig rig;
  VnfConfig cfg = rig.vnf_config();
  cfg.recode_hold_s = 0;  // strict per-arrival emission
  CodingVnf relay(rig.net, rig.relay, cfg);
  relay.configure_session(1, VnfRole::kRecode, 9000);
  relay.set_next_hops(1, {NextHopRate{NextHop{rig.dst, 9000}, 1.0}});

  std::vector<coding::CodedPacket> received;
  rig.net.bind(rig.dst, 9000, [&](const netsim::Datagram& d) {
    received.push_back(*coding::CodedPacket::parse(d.payload, rig.params));
  });

  std::mt19937 rng(5);
  const auto gen = app::SyntheticProvider(2, rig.params.generation_bytes(),
                                          rig.params)
                       .generation(0);
  coding::Encoder enc(1, gen, rng);
  const auto first = enc.encode_random();
  rig.send_packet(first, 9000);
  rig.net.sim().run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_TRUE(std::ranges::equal(received[0].coeffs(), first.coeffs()));
  EXPECT_TRUE(std::ranges::equal(received[0].payload(), first.payload()));
}

TEST(CodingVnf, IngressDropsAllZeroCoefficientVectors) {
  // Such a packet carries nothing. A recode relay that admitted two for
  // one generation would forward the first as the generation's first
  // packet and then have to recode the second from no pivot at all.
  Rig rig;
  VnfConfig cfg = rig.vnf_config();
  cfg.recode_hold_s = 0;
  CodingVnf relay(rig.net, rig.relay, cfg);
  relay.configure_session(1, VnfRole::kRecode, 9000);
  relay.set_next_hops(1, {NextHopRate{NextHop{rig.dst, 9000}, 1.0}});
  std::vector<coding::CodedPacket> received;
  rig.net.bind(rig.dst, 9000, [&](const netsim::Datagram& d) {
    received.push_back(*coding::CodedPacket::parse(d.payload, rig.params));
  });

  const std::vector<std::uint8_t> zeros(rig.params.generation_blocks, 0);
  const std::vector<std::uint8_t> payload(rig.params.block_size, 0x5a);
  const auto empty = coding::CodedPacket::make(1, 0, zeros, payload);
  rig.send_packet(empty, 9000);
  rig.send_packet(empty, 9000);
  rig.net.sim().run();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(relay.stats(1).received, 0u);
  EXPECT_EQ(relay.find_decoder(1, 0), nullptr);

  // A valid packet after them opens the generation as usual: it passes
  // through as the first packet, and the next one is recoded.
  std::mt19937 rng(5);
  const auto gen = app::SyntheticProvider(2, rig.params.generation_bytes(),
                                          rig.params)
                       .generation(0);
  coding::Encoder enc(1, gen, rng);
  const auto first = enc.encode_random();
  const auto second = enc.encode_random();
  rig.send_packet(first, 9000);
  rig.send_packet(second, 9000);
  rig.net.sim().run();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_TRUE(std::ranges::equal(received[0].coeffs(), first.coeffs()));
  EXPECT_FALSE(std::ranges::equal(received[1].coeffs(), second.coeffs()));
  EXPECT_EQ(relay.stats(1).received, 2u);
  EXPECT_EQ(relay.find_decoder(1, 0)->rank(), 2u);
}

TEST(CodingVnf, CreditSharesThinTheStream) {
  Rig rig;
  CodingVnf relay(rig.net, rig.relay, rig.vnf_config());
  relay.configure_session(1, VnfRole::kForward, 9000);
  // Half-rate next hop: 10 arrivals -> 5 emissions.
  relay.set_next_hops(1, {NextHopRate{NextHop{rig.dst, 9000}, 0.5}});
  int received = 0;
  rig.net.bind(rig.dst, 9000, [&](const netsim::Datagram&) { ++received; });

  std::mt19937 rng(6);
  const auto gen = app::SyntheticProvider(3, rig.params.generation_bytes(),
                                          rig.params)
                       .generation(0);
  coding::Encoder enc(1, gen, rng);
  for (int i = 0; i < 10; ++i) rig.send_packet(enc.encode_random(), 9000);
  rig.net.sim().run();
  EXPECT_EQ(received, 5);
}

TEST(CodingVnf, DecodeRoleDeliversBlocksToSink) {
  Rig rig;
  CodingVnf dec_vnf(rig.net, rig.relay, rig.vnf_config());
  dec_vnf.configure_session(1, VnfRole::kDecode, 9000);
  std::vector<std::vector<std::uint8_t>> got;
  dec_vnf.set_decode_sink([&](coding::SessionId, coding::GenerationId,
                              std::vector<std::vector<std::uint8_t>> blocks) {
    got = std::move(blocks);
  });

  std::mt19937 rng(7);
  app::SyntheticProvider provider(4, rig.params.generation_bytes(),
                                  rig.params);
  const auto gen = provider.generation(0);
  coding::Encoder enc(1, gen, rng);
  for (int i = 0; i < 8; ++i) rig.send_packet(enc.encode_random(), 9000);
  rig.net.sim().run();
  ASSERT_EQ(got.size(), rig.params.generation_blocks);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], std::vector<std::uint8_t>(gen.block(i).begin(),
                                                gen.block(i).end()));
  }
  EXPECT_EQ(dec_vnf.stats(1).decoded_generations, 1u);
}

namespace {

/// Coded packets for generations 0..n-1: g + 2 random combinations each,
/// so every generation completes from its own packets.
struct CodedStream {
  CodedStream(const coding::CodingParams& params, coding::GenerationId n)
      : provider(8, params.generation_bytes() * n, params) {
    std::mt19937 rng(9);
    for (coding::GenerationId gen = 0; gen < n; ++gen) {
      const coding::Generation source = provider.generation(gen);
      coding::Encoder enc(1, source, rng);
      auto& pkts = packets.emplace_back();
      for (std::size_t k = 0; k < params.generation_blocks + 2; ++k) {
        pkts.push_back(enc.encode_random());
      }
    }
  }

  /// True if `pkt`'s payload is the combination its coefficients name.
  [[nodiscard]] bool consistent(const coding::CodedPacket& pkt) const {
    std::mt19937 unused(0);
    const coding::Generation source = provider.generation(pkt.generation);
    const coding::Encoder enc(1, source, unused);
    return std::ranges::equal(enc.encode_with(pkt.coeffs()).payload(),
                              pkt.payload());
  }

  app::SyntheticProvider provider;
  std::vector<std::vector<coding::CodedPacket>> packets;
};

/// Step `gen` (0..n) of a streamed run: the second half of generation
/// gen - 1, which completes it, then the first half of generation gen,
/// which leaves it decoding.
void send_step(Rig& rig, const CodedStream& stream, coding::GenerationId gen,
               netsim::Port port) {
  constexpr std::size_t kHalf = 3;
  if (gen > 0) {
    const auto& prev = stream.packets[gen - 1];
    for (std::size_t k = kHalf; k < prev.size(); ++k) {
      rig.send_packet(prev[k], port);
    }
  }
  if (gen < stream.packets.size()) {
    for (std::size_t k = 0; k < kHalf; ++k) {
      rig.send_packet(stream.packets[gen][k], port);
    }
  }
  rig.net.sim().run();
}

}  // namespace

TEST(CodingVnf, DecodeRoleReleasesDeliveredGenerations) {
  Rig rig;
  rig.params.buffer_generations = 8;
  const std::size_t g = rig.params.generation_blocks;
  const coding::GenerationId kGens = 3 * 8 + 1;
  const CodedStream stream(rig.params, kGens);
  CodingVnf vnf(rig.net, rig.relay, rig.vnf_config());
  vnf.configure_session(1, VnfRole::kDecode, 9000);
  std::map<coding::GenerationId, int> deliveries;
  vnf.set_decode_sink([&](coding::SessionId, coding::GenerationId gen,
                          std::vector<std::vector<std::uint8_t>> blocks) {
    ++deliveries[gen];
    const auto src = stream.provider.generation(gen);
    ASSERT_EQ(blocks.size(), g);
    for (std::size_t i = 0; i < g; ++i) {
      EXPECT_TRUE(std::ranges::equal(blocks[i], src.block(i)))
          << "generation " << gen << " block " << i;
    }
  });

  for (coding::GenerationId gen = 0; gen <= kGens; ++gen) {
    send_step(rig, stream, gen, 9000);
    // Only the generation still decoding holds rows; every delivered one
    // gave its rows back.
    const coding::Decoder* open = vnf.find_decoder(1, gen);
    const std::size_t decoding_rows =
        gen < kGens && open != nullptr ? open->rank() : 0;
    EXPECT_EQ(vnf.buffer().pool().stats().outstanding(), decoding_rows)
        << "after step " << gen;
    // The FIFO still counts the delivered generations.
    EXPECT_EQ(vnf.buffer().generations_buffered(),
              std::min<std::size_t>(gen + 1, 8));
  }
  EXPECT_EQ(vnf.buffer().generations_buffered(), 8u);
  EXPECT_EQ(vnf.buffer().evictions(), kGens - 8);
  ASSERT_EQ(deliveries.size(), kGens);
  for (const auto& [gen, n] : deliveries) EXPECT_EQ(n, 1) << gen;
  EXPECT_EQ(vnf.stats(1).decoded_generations, kGens);

  // A late duplicate of a delivered, still-buffered generation.
  const coding::GenerationId late = kGens - 2;
  const coding::Decoder* dec = vnf.find_decoder(1, late);
  ASSERT_NE(dec, nullptr);
  EXPECT_TRUE(dec->released());
  const std::size_t seen = dec->packets_seen();
  const VnfSessionStats before = vnf.stats(1);
  rig.send_packet(stream.packets[late][0], 9000);
  rig.net.sim().run();
  EXPECT_EQ(vnf.stats(1).received, before.received + 1);
  EXPECT_EQ(vnf.stats(1).innovative, before.innovative);
  EXPECT_EQ(vnf.stats(1).decoded_generations, kGens);
  EXPECT_EQ(deliveries[late], 1);
  EXPECT_EQ(dec->packets_seen(), seen + 1);
  EXPECT_EQ(dec->rank(), g);
  EXPECT_TRUE(dec->complete());
  for (std::size_t c = 0; c < g; ++c) EXPECT_TRUE(dec->has_pivot(c));
  EXPECT_EQ(vnf.buffer().pool().stats().outstanding(), 0u);
}

TEST(CodingVnf, RecodeRoleKeepsRowsForLateArrivals) {
  Rig rig;
  rig.params.buffer_generations = 8;
  const std::size_t g = rig.params.generation_blocks;
  const coding::GenerationId kGens = 3 * 8 + 1;
  const CodedStream stream(rig.params, kGens);
  CodingVnf relay(rig.net, rig.relay, rig.vnf_config());
  relay.configure_session(1, VnfRole::kRecode, 9000);
  relay.set_next_hops(1, {NextHopRate{NextHop{rig.dst, 9000}, 1.0}});
  std::vector<coding::CodedPacket> out;
  rig.net.bind(rig.dst, 9000, [&](const netsim::Datagram& d) {
    out.push_back(*coding::CodedPacket::parse(d.payload, rig.params));
  });

  for (coding::GenerationId gen = 0; gen <= kGens; ++gen) {
    send_step(rig, stream, gen, 9000);
  }
  // Every buffered generation keeps its rows for repairs.
  std::size_t rows = 0;
  for (coding::GenerationId gen = kGens - 8; gen < kGens; ++gen) {
    const coding::Decoder* dec = relay.find_decoder(1, gen);
    ASSERT_NE(dec, nullptr);
    EXPECT_FALSE(dec->released());
    EXPECT_TRUE(dec->complete());
    rows += dec->rank();
  }
  EXPECT_EQ(rows, 8 * g);
  EXPECT_EQ(relay.buffer().pool().stats().outstanding(), rows);

  // A late arrival is recoded from the held rows.
  out.clear();
  rig.send_packet(stream.packets[kGens - 2][0], 9000);
  rig.net.sim().run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].generation, kGens - 2);
  // Recoded, not passed through.
  EXPECT_FALSE(std::ranges::equal(out[0].coeffs(),
                                  stream.packets[kGens - 2][0].coeffs()));
  EXPECT_TRUE(stream.consistent(out[0]));
}

TEST(CodingVnf, SwitchFromDecodeNeverRecodesReleasedGenerations) {
  Rig rig;
  const coding::GenerationId kGens = 4;
  const CodedStream stream(rig.params, kGens);
  CodingVnf vnf(rig.net, rig.relay, rig.vnf_config());
  vnf.configure_session(1, VnfRole::kDecode, 9000);
  for (coding::GenerationId gen = 0; gen <= kGens; ++gen) {
    send_step(rig, stream, gen, 9000);
  }
  ASSERT_EQ(vnf.stats(1).decoded_generations, kGens);
  ASSERT_TRUE(vnf.find_decoder(1, 2)->released());

  // The session becomes a relay: its delivered generations are dropped,
  // so late arrivals rebuild state from what they carry.
  vnf.configure_session(1, VnfRole::kRecode, 9000);
  vnf.set_next_hops(1, {NextHopRate{NextHop{rig.dst, 9000}, 1.0}});
  for (coding::GenerationId gen = 0; gen < kGens; ++gen) {
    EXPECT_EQ(vnf.find_decoder(1, gen), nullptr) << gen;
  }
  std::vector<coding::CodedPacket> out;
  rig.net.bind(rig.dst, 9000, [&](const netsim::Datagram& d) {
    out.push_back(*coding::CodedPacket::parse(d.payload, rig.params));
  });
  rig.send_packet(stream.packets[2][0], 9000);
  rig.send_packet(stream.packets[2][1], 9000);
  rig.net.sim().run();
  const coding::Decoder* dec = vnf.find_decoder(1, 2);
  ASSERT_NE(dec, nullptr);
  EXPECT_FALSE(dec->released());
  EXPECT_EQ(dec->rank(), 2u);
  // The first passes through, the second is recoded from the fresh rows.
  ASSERT_EQ(out.size(), 2u);
  for (const coding::CodedPacket& pkt : out) {
    EXPECT_EQ(pkt.generation, 2u);
    EXPECT_TRUE(stream.consistent(pkt));
  }
}

TEST(CodingVnf, SwitchToDecodeDropsHeldRecodesOfDeliveredGenerations) {
  Rig rig;
  const CodedStream stream(rig.params, 1);
  CodingVnf vnf(rig.net, rig.relay, rig.vnf_config());
  vnf.configure_session(1, VnfRole::kRecode, 9000);
  vnf.set_next_hops(1, {NextHopRate{NextHop{rig.dst, 9000}, 1.0}});
  int sent_on = 0;
  rig.net.bind(rig.dst, 9000, [&](const netsim::Datagram&) { ++sent_on; });
  // Rank 2 of 4: both earned emissions are held for recode_hold_s.
  rig.send_packet(stream.packets[0][0], 9000);
  rig.send_packet(stream.packets[0][1], 9000);
  rig.net.sim().run_until(0.01);
  ASSERT_EQ(sent_on, 0);
  // The session becomes a destination and delivers the generation before
  // the hold expires; the expiring hold must not recode from it.
  vnf.configure_session(1, VnfRole::kDecode, 9000);
  for (std::size_t k = 2; k < stream.packets[0].size(); ++k) {
    rig.send_packet(stream.packets[0][k], 9000);
  }
  rig.net.sim().run();
  EXPECT_EQ(vnf.stats(1).decoded_generations, 1u);
  EXPECT_TRUE(vnf.find_decoder(1, 0)->released());
  EXPECT_EQ(sent_on, 0);
}

TEST(CodingVnf, GenerationReopenedWithinOneBatchIsDeliveredOnce) {
  // With a one-generation buffer, one batch [A, B, A] evicts A's decoder
  // and reopens A, so both runs of A meet the reopened decoder at emit.
  Rig rig;
  rig.params.buffer_generations = 1;
  const std::size_t g = rig.params.generation_blocks;
  app::SyntheticProvider provider(5, rig.params.generation_bytes() * 2,
                                  rig.params);
  const coding::Generation a = provider.generation(0);
  const coding::Generation b = provider.generation(1);
  std::mt19937 rng(11);
  coding::Encoder enc_a(1, a, rng);
  coding::Encoder enc_b(1, b, rng);
  CodingVnf vnf(rig.net, rig.relay, rig.vnf_config());
  vnf.configure_session(1, VnfRole::kDecode, 9000);
  int delivered = 0;
  vnf.set_decode_sink([&](coding::SessionId, coding::GenerationId gen,
                          std::vector<std::vector<std::uint8_t>> blocks) {
    ++delivered;
    EXPECT_EQ(gen, 0u);
    ASSERT_EQ(blocks.size(), g);
    for (std::size_t i = 0; i < g; ++i) {
      EXPECT_TRUE(std::ranges::equal(blocks[i], a.block(i))) << i;
    }
  });
  const auto burst = [&](std::size_t a_again) {
    std::vector<netsim::Datagram> out;
    const auto add = [&](const coding::CodedPacket& pkt) {
      netsim::Datagram& d = out.emplace_back();
      d.src = rig.src;
      d.dst = rig.relay;
      d.dst_port = 9000;
      d.payload = pkt.serialize();
    };
    for (std::size_t i = 0; i < g; ++i) add(enc_a.encode_systematic(i));
    add(enc_b.encode_systematic(0));
    for (std::size_t i = 0; i < a_again; ++i) add(enc_a.encode_systematic(i));
    rig.net.send_burst(std::move(out));
    rig.net.sim().run();
  };

  // Reopened A still incomplete: nothing to recover yet.
  burst(1);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(vnf.find_decoder(1, 0)->rank(), 1u);
  // Reopened A complete: delivered at the first run, released, and the
  // second run must not recover it again.
  burst(g);
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(vnf.find_decoder(1, 0)->released());
}

TEST(CodingVnf, ProcessingLaneSaturationDropsPackets) {
  Rig rig;
  VnfConfig cfg = rig.vnf_config();
  cfg.proc_rate_Bps = 1e4;  // pathologically slow VNF
  cfg.fixed_overhead_s = 0.01;
  cfg.proc_queue_limit = 4;
  CodingVnf relay(rig.net, rig.relay, cfg);
  relay.configure_session(1, VnfRole::kRecode, 9000);
  relay.set_next_hops(1, {NextHopRate{NextHop{rig.dst, 9000}, 1.0}});

  std::mt19937 rng(8);
  const auto gen = app::SyntheticProvider(5, rig.params.generation_bytes(),
                                          rig.params)
                       .generation(0);
  coding::Encoder enc(1, gen, rng);
  for (int i = 0; i < 50; ++i) rig.send_packet(enc.encode_random(), 9000);
  rig.net.sim().run();
  EXPECT_GT(relay.stats(1).proc_dropped, 0u);
  EXPECT_LT(relay.stats(1).received, 50u);
}

TEST(CodingVnf, MoreLanesRaiseThroughput) {
  // Two generations hash to different lanes; with 2 lanes they are
  // processed concurrently, halving the finish time.
  auto run_with_lanes = [](std::size_t lanes) {
    Rig rig;
    VnfConfig cfg = rig.vnf_config();
    cfg.proc_rate_Bps = 1e5;
    cfg.fixed_overhead_s = 0.0;
    CodingVnf relay(rig.net, rig.relay, cfg);
    relay.set_lanes(lanes);
    relay.configure_session(1, VnfRole::kRecode, 9000);
    relay.set_next_hops(1, {NextHopRate{NextHop{rig.dst, 9000}, 1.0}});
    std::mt19937 rng(9);
    app::SyntheticProvider provider(6, 4 * rig.params.generation_bytes(),
                                    rig.params);
    for (coding::GenerationId g = 0; g < 4; ++g) {
      const auto gen = provider.generation(g);
      coding::Encoder enc(1, gen, rng);
      for (int i = 0; i < 8; ++i) {
        netsim::Datagram d;
        d.src = rig.src;
        d.dst = rig.relay;
        d.dst_port = 9000;
        d.payload = enc.encode_random().serialize();
        rig.net.send(std::move(d));
      }
    }
    rig.net.sim().run();
    return rig.net.sim().now();
  };
  const double t1 = run_with_lanes(1);
  const double t4 = run_with_lanes(4);
  EXPECT_LT(t4, t1 * 0.75);
}

TEST(CodingVnf, PauseBuffersAndResumeFlushes) {
  Rig rig;
  CodingVnf relay(rig.net, rig.relay, rig.vnf_config());
  relay.configure_session(1, VnfRole::kRecode, 9000);
  relay.set_next_hops(1, {NextHopRate{NextHop{rig.dst, 9000}, 1.0}});
  int received = 0;
  rig.net.bind(rig.dst, 9000, [&](const netsim::Datagram&) { ++received; });

  relay.pause();
  std::mt19937 rng(10);
  const auto gen = app::SyntheticProvider(7, rig.params.generation_bytes(),
                                          rig.params)
                       .generation(0);
  coding::Encoder enc(1, gen, rng);
  for (int i = 0; i < 4; ++i) rig.send_packet(enc.encode_random(), 9000);
  rig.net.sim().run();
  EXPECT_EQ(received, 0);  // paused: nothing emitted
  relay.resume();
  rig.net.sim().run();
  EXPECT_EQ(received, 4);  // backlog flushed
}

TEST(CodingVnf, DropSessionStopsProcessing) {
  Rig rig;
  CodingVnf relay(rig.net, rig.relay, rig.vnf_config());
  relay.configure_session(1, VnfRole::kRecode, 9000);
  relay.set_next_hops(1, {NextHopRate{NextHop{rig.dst, 9000}, 1.0}});
  relay.drop_session(1);
  int received = 0;
  rig.net.bind(rig.dst, 9000, [&](const netsim::Datagram&) { ++received; });
  std::mt19937 rng(11);
  const auto gen = app::SyntheticProvider(8, rig.params.generation_bytes(),
                                          rig.params)
                       .generation(0);
  coding::Encoder enc(1, gen, rng);
  rig.send_packet(enc.encode_random(), 9000);
  rig.net.sim().run();
  EXPECT_EQ(received, 0);
}

TEST(CodingVnf, TreeRoutingForwardsInnovativeAlongTheRightTree) {
  // Two trees; generations dispatched by schedule. The relay must copy
  // each innovative packet only to the generation's tree hops and drop
  // duplicates entirely.
  Rig rig;
  const auto dst2 = rig.net.add_node("dst2");
  netsim::LinkConfig lc;
  lc.capacity_bps = 1e9;
  lc.prop_delay = 0.001;
  rig.net.add_link(rig.relay, dst2, lc);

  CodingVnf relay(rig.net, rig.relay, rig.vnf_config());
  relay.configure_session(1, VnfRole::kForward, 9000);
  TreeRouting routing;
  routing.schedule = {0, 1};  // even generations -> tree 0, odd -> tree 1
  routing.hops_per_tree = {{NextHop{rig.dst, 9000}},
                           {NextHop{dst2, 9000}}};
  relay.set_tree_routing(1, std::move(routing));

  int to_dst = 0, to_dst2 = 0;
  rig.net.bind(rig.dst, 9000, [&](const netsim::Datagram&) { ++to_dst; });
  rig.net.bind(dst2, 9000, [&](const netsim::Datagram&) { ++to_dst2; });

  std::mt19937 rng(21);
  app::SyntheticProvider provider(31, 2 * rig.params.generation_bytes(),
                                  rig.params);
  for (coding::GenerationId g = 0; g < 2; ++g) {
    const auto gen = provider.generation(g);
    coding::Encoder enc(1, gen, rng);
    for (std::size_t i = 0; i < rig.params.generation_blocks; ++i) {
      const auto pkt = enc.encode_systematic(i);
      rig.send_packet(pkt, 9000);
      rig.send_packet(pkt, 9000);  // duplicate: must be dropped
    }
  }
  rig.net.sim().run();
  EXPECT_EQ(to_dst, 4);   // generation 0's four blocks, once each
  EXPECT_EQ(to_dst2, 4);  // generation 1's
}

TEST(CodingVnf, ConfigureSessionRebindsPort) {
  Rig rig;
  CodingVnf relay(rig.net, rig.relay, rig.vnf_config());
  relay.configure_session(1, VnfRole::kRecode, 9000);
  relay.configure_session(1, VnfRole::kRecode, 9001);  // move ports
  relay.set_next_hops(1, {NextHopRate{NextHop{rig.dst, 9000}, 1.0}});
  int received = 0;
  rig.net.bind(rig.dst, 9000, [&](const netsim::Datagram&) { ++received; });
  std::mt19937 rng(5);
  const auto gen = app::SyntheticProvider(1, rig.params.generation_bytes(),
                                          rig.params)
                       .generation(0);
  coding::Encoder enc(1, gen, rng);
  rig.send_packet(enc.encode_random(), 9000);  // old port: dead
  rig.send_packet(enc.encode_random(), 9001);  // new port: live
  rig.net.sim().run();
  EXPECT_EQ(received, 1);
}

TEST(CodingVnf, MalformedDatagramIsIgnored) {
  Rig rig;
  CodingVnf relay(rig.net, rig.relay, rig.vnf_config());
  relay.configure_session(1, VnfRole::kRecode, 9000);
  netsim::Datagram d;
  d.src = rig.src;
  d.dst = rig.relay;
  d.dst_port = 9000;
  d.payload = {1, 2, 3};  // not a coded packet
  ASSERT_TRUE(rig.net.send(std::move(d)));
  rig.net.sim().run();
  EXPECT_EQ(relay.stats(1).received, 0u);
}

// ---- Daemon ----

TEST(Daemon, SettingsConfigureSessions) {
  Rig rig;
  DaemonConfig dcfg;
  dcfg.vnf = rig.vnf_config();
  VnfDaemon daemon(rig.net, rig.relay, dcfg);
  ctrl::NcSettings settings;
  settings.generation_blocks =
      static_cast<std::uint32_t>(rig.params.generation_blocks);
  settings.block_size = static_cast<std::uint32_t>(rig.params.block_size);
  settings.sessions = {ctrl::SessionSetting{1, VnfRole::kRecode, 9000}};
  daemon.handle_signal(settings);
  daemon.vnf().set_next_hops(1, {NextHopRate{NextHop{rig.dst, 9000}, 1.0}});

  int received = 0;
  rig.net.bind(rig.dst, 9000, [&](const netsim::Datagram&) { ++received; });
  std::mt19937 rng(12);
  const auto gen = app::SyntheticProvider(9, rig.params.generation_bytes(),
                                          rig.params)
                       .generation(0);
  coding::Encoder enc(1, gen, rng);
  rig.send_packet(enc.encode_random(), 9000);
  rig.net.sim().run();
  EXPECT_EQ(received, 1);
}

TEST(Daemon, SettingsChangeWithWorkInFlight) {
  // NC_SETTINGS with a new block size restarts the coding function while
  // a packet still waits in its lane. The drain already scheduled for it
  // must find the function alive: the packet is dropped, and the
  // function then serves the new size.
  Rig rig;
  DaemonConfig dcfg;
  dcfg.vnf = rig.vnf_config();
  VnfDaemon daemon(rig.net, rig.relay, dcfg);
  const std::vector<NextHopRate> hops = {
      NextHopRate{NextHop{rig.dst, 9000}, 1.0}};
  ctrl::NcSettings settings;
  settings.generation_blocks =
      static_cast<std::uint32_t>(rig.params.generation_blocks);
  settings.block_size = static_cast<std::uint32_t>(rig.params.block_size);
  settings.sessions = {ctrl::SessionSetting{1, VnfRole::kRecode, 9000}};
  daemon.handle_signal(settings);
  daemon.vnf().set_next_hops(1, hops);

  int received = 0;
  rig.net.bind(rig.dst, 9000, [&](const netsim::Datagram&) { ++received; });
  std::mt19937 rng(12);
  const auto first = app::SyntheticProvider(9, rig.params.generation_bytes(),
                                            rig.params)
                         .generation(0);
  coding::Encoder enc(1, first, rng);
  rig.send_packet(enc.encode_random(), 9000);  // queued at ~1.0008 ms

  coding::CodingParams doubled = rig.params;
  doubled.block_size *= 2;
  ctrl::NcSettings resize = settings;
  resize.block_size = static_cast<std::uint32_t>(doubled.block_size);
  // After the packet joins the lane, before its ~6.4-us service ends.
  rig.net.sim().schedule(0.001004, [&] {
    ASSERT_EQ(rig.net.link(rig.src, rig.relay)->stats().delivered, 1u);
    daemon.handle_signal(resize);
    daemon.vnf().set_next_hops(1, hops);
  });
  rig.net.sim().run();
  EXPECT_EQ(daemon.vnf().config().params.block_size, doubled.block_size);
  EXPECT_EQ(daemon.vnf().stats(1).received, 0u);
  EXPECT_EQ(received, 0);

  const auto second =
      app::SyntheticProvider(9, doubled.generation_bytes(), doubled)
          .generation(0);
  coding::Encoder enc2(1, second, rng);
  rig.send_packet(enc2.encode_random(), 9000);
  rig.net.sim().run();
  EXPECT_EQ(daemon.vnf().stats(1).received, 1u);
  EXPECT_EQ(received, 1);
}

TEST(Daemon, SignalsArriveOverTheNetwork) {
  Rig rig;
  DaemonConfig dcfg;
  dcfg.vnf = rig.vnf_config();
  VnfDaemon daemon(rig.net, rig.relay, dcfg);
  // Send NC_START over the control port as a datagram.
  netsim::Datagram d;
  d.src = rig.src;
  d.dst = rig.relay;
  d.dst_port = dcfg.control_port;
  const std::string text = ctrl::serialize(ctrl::Signal{ctrl::NcStart{1}});
  d.payload.assign(text.begin(), text.end());
  ASSERT_TRUE(rig.net.send(std::move(d)));
  rig.net.sim().run();
  EXPECT_EQ(daemon.stats().signals_received, 1u);
  EXPECT_EQ(daemon.stats().signals_malformed, 0u);
}

TEST(Daemon, MalformedControlMessageCounted) {
  Rig rig;
  DaemonConfig dcfg;
  dcfg.vnf = rig.vnf_config();
  VnfDaemon daemon(rig.net, rig.relay, dcfg);
  netsim::Datagram d;
  d.src = rig.src;
  d.dst = rig.relay;
  d.dst_port = dcfg.control_port;
  const std::string text = "GARBAGE\nEND\n";
  d.payload.assign(text.begin(), text.end());
  rig.net.send(std::move(d));
  rig.net.sim().run();
  EXPECT_EQ(daemon.stats().signals_malformed, 1u);
}

TEST(Daemon, TableUpdateCostScalesWithChangedEntries) {
  Rig rig;
  DaemonConfig dcfg;
  dcfg.vnf = rig.vnf_config();
  VnfDaemon daemon(rig.net, rig.relay, dcfg);

  ctrl::ForwardingTable t1;
  for (coding::SessionId s = 1; s <= 10; ++s) {
    t1.set(s, {NextHop{rig.dst, static_cast<std::uint16_t>(9000 + s)}});
  }
  daemon.handle_signal(ctrl::NcForwardTab{t1});
  const double full = daemon.stats().last_table_update_cost_s;
  EXPECT_NEAR(full, 10 * dcfg.table_entry_apply_s, 1e-9);
  rig.net.sim().run();

  // Change 2 of 10 entries: cost is 20% of the full update.
  ctrl::ForwardingTable t2 = t1;
  t2.set(1, {NextHop{rig.dst, 1}});
  t2.set(2, {NextHop{rig.dst, 2}});
  daemon.handle_signal(ctrl::NcForwardTab{t2});
  EXPECT_NEAR(daemon.stats().last_table_update_cost_s,
              2 * dcfg.table_entry_apply_s, 1e-9);
}

TEST(Daemon, VnfEndShutsDownAfterTauUnlessReused) {
  Rig rig;
  DaemonConfig dcfg;
  dcfg.vnf = rig.vnf_config();
  {
    VnfDaemon daemon(rig.net, rig.relay, dcfg);
    daemon.handle_signal(ctrl::NcVnfEnd{0, 10.0});
    rig.net.sim().run_until(5.0);
    EXPECT_TRUE(daemon.running());  // still in the grace window
    rig.net.sim().run_until(11.0);
    EXPECT_FALSE(daemon.running());
    EXPECT_EQ(daemon.stats().shutdowns, 1u);
  }
  // Reuse case: NC_VNF_START within tau cancels the pending shutdown.
  {
    netsim::Network net2(2);
    const auto n = net2.add_node("relay");
    DaemonConfig cfg2;
    cfg2.vnf = dcfg.vnf;
    VnfDaemon daemon(net2, n, cfg2);
    daemon.handle_signal(ctrl::NcVnfEnd{0, 10.0});
    net2.sim().run_until(5.0);
    daemon.handle_signal(ctrl::NcVnfStart{0, 1});
    net2.sim().run_until(20.0);
    EXPECT_TRUE(daemon.running());
    EXPECT_EQ(daemon.stats().shutdowns, 0u);
  }
}

TEST(Daemon, ProbesReportBandwidthAndRtt) {
  Rig rig;
  netsim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  lc.prop_delay = 0.020;
  rig.net.add_link(rig.relay, rig.src, lc);  // reverse path for RTT
  DaemonConfig dcfg;
  dcfg.vnf = rig.vnf_config();
  VnfDaemon daemon(rig.net, rig.relay, dcfg);
  int reports = 0;
  daemon.start_probes({rig.dst}, 1.0,
                      [&](netsim::NodeId peer, std::optional<double> bw,
                          std::optional<netsim::Time> /*rtt*/) {
                        EXPECT_EQ(peer, rig.dst);
                        ASSERT_TRUE(bw.has_value());
                        EXPECT_NEAR(*bw, 1e9, 0.05e9);
                        ++reports;
                      });
  rig.net.sim().run_until(5.5);
  EXPECT_EQ(reports, 5);
  daemon.stop_probes();
  rig.net.sim().run_until(20.0);
  EXPECT_EQ(reports, 5);
}
