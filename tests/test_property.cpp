// Property-based tests: invariants that must hold over randomized inputs
// and parameter sweeps (TEST_P), tying the optimizer to information-
// theoretic bounds and the codec to exact recovery.
#include <gtest/gtest.h>

#include <random>

#include "app/baseline.hpp"
#include "app/provider.hpp"
#include "app/runtime.hpp"
#include "app/scenarios.hpp"
#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "ctrl/problem.hpp"
#include "ctrl/quantize.hpp"
#include "graph/maxflow.hpp"
#include "netsim/loss.hpp"

using namespace ncfn;

namespace {
graph::Topology random_overlay(std::mt19937& rng, int n_dcs,
                               graph::NodeIdx& src, graph::NodeIdx& dst1,
                               graph::NodeIdx& dst2) {
  graph::Topology t;
  std::uniform_real_distribution<double> cap(10e6, 100e6);
  std::uniform_real_distribution<double> delay(0.005, 0.040);
  std::vector<graph::NodeIdx> dcs;
  for (int i = 0; i < n_dcs; ++i) {
    graph::NodeInfo ni;
    ni.name = "dc" + std::to_string(i);
    ni.kind = graph::NodeKind::kDataCenter;
    ni.bin_bps = 500e6;
    ni.bout_bps = 500e6;
    ni.vnf_capacity_bps = 500e6;
    dcs.push_back(t.add_node(ni));
  }
  graph::NodeInfo host;
  host.kind = graph::NodeKind::kHost;
  host.name = "src";
  src = t.add_node(host);
  host.name = "d1";
  dst1 = t.add_node(host);
  host.name = "d2";
  dst2 = t.add_node(host);
  // Source feeds 2-3 DCs; DCs form a sparse random mesh; 2-3 DCs feed
  // each receiver. Every edge has a finite random capacity.
  std::uniform_int_distribution<int> pick(0, n_dcs - 1);
  for (int i = 0; i < n_dcs; ++i) {
    if (i < 3) t.add_edge(src, dcs[static_cast<std::size_t>(i)], delay(rng), cap(rng));
    for (int j = 0; j < n_dcs; ++j) {
      if (i != j && (i + j) % 2 == 0) {
        t.add_edge(dcs[static_cast<std::size_t>(i)], dcs[static_cast<std::size_t>(j)], delay(rng), cap(rng));
      }
    }
  }
  // An ordered pair has at most one edge (the simulator has one link per
  // pair): a receiver edge drawn twice is added once.
  const auto add_once = [&t](graph::NodeIdx from, graph::NodeIdx to,
                             double delay_s, double capacity_bps) {
    if (t.find_edge(from, to) < 0) t.add_edge(from, to, delay_s, capacity_bps);
  };
  add_once(dcs[static_cast<std::size_t>(pick(rng))], dst1, delay(rng), cap(rng));
  add_once(dcs[static_cast<std::size_t>(n_dcs - 1)], dst1, delay(rng), cap(rng));
  add_once(dcs[static_cast<std::size_t>(pick(rng))], dst2, delay(rng), cap(rng));
  add_once(dcs[0], dst2, delay(rng), cap(rng));
  return t;
}
}  // namespace

TEST(Property, PlanThroughputNeverExceedsMaxFlowBound) {
  // Conceptual-flow LP optimum <= min over receivers of s-t max flow
  // (Ahlswede et al.: with coding they are equal when paths are not
  // delay- or count-limited; the LP side can only be lower).
  std::mt19937 rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    graph::NodeIdx src, d1, d2;
    const auto topo = random_overlay(rng, 5, src, d1, d2);
    ctrl::DeploymentProblem prob;
    prob.topo = &topo;
    prob.alpha = 0.0;
    ctrl::SessionSpec spec;
    spec.id = 1;
    spec.source = src;
    spec.receivers = {d1, d2};
    spec.lmax_s = 10.0;  // effectively unconstrained
    prob.sessions.push_back(spec);
    const auto plan = ctrl::solve_deployment(prob);
    ASSERT_TRUE(plan.feasible) << trial;
    const double bound =
        graph::multicast_capacity(topo, src, {d1, d2}) / 1e6;
    EXPECT_LE(plan.lambda_mbps[0], bound + 0.01) << "trial " << trial;
  }
}

TEST(Property, RoutingNeverBeatsCoding) {
  // Tree packing (routing) <= conceptual-flow LP (coding), always.
  std::mt19937 rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    graph::NodeIdx src, d1, d2;
    const auto topo = random_overlay(rng, 5, src, d1, d2);
    ctrl::DeploymentProblem prob;
    prob.topo = &topo;
    prob.alpha = 0.0;
    ctrl::SessionSpec spec;
    spec.id = 1;
    spec.source = src;
    spec.receivers = {d1, d2};
    spec.lmax_s = 10.0;
    prob.sessions.push_back(spec);
    const auto plan = ctrl::solve_deployment(prob);
    const auto packing = app::pack_trees(topo, src, {d1, d2}, 10.0);
    if (!plan.feasible) continue;
    EXPECT_LE(packing.total_rate_mbps, plan.lambda_mbps[0] + 0.5)
        << "trial " << trial;
  }
}

TEST(Property, EdgeRatesRespectCapsInEveryPlan) {
  std::mt19937 rng(55);
  for (int trial = 0; trial < 8; ++trial) {
    graph::NodeIdx src, d1, d2;
    const auto topo = random_overlay(rng, 6, src, d1, d2);
    ctrl::DeploymentProblem prob;
    prob.topo = &topo;
    prob.alpha = 10.0;
    ctrl::SessionSpec spec;
    spec.id = 1;
    spec.source = src;
    spec.receivers = {d1, d2};
    spec.lmax_s = 10.0;
    prob.sessions.push_back(spec);
    const auto plan = ctrl::solve_deployment(prob);
    if (!plan.feasible) continue;
    // Per-edge caps.
    for (const auto& [e, rate] : plan.edge_rate_mbps[0]) {
      EXPECT_LE(rate, topo.edge(e).capacity_bps / 1e6 + 1e-5);
    }
    // Conceptual flows deliver lambda to every receiver.
    for (std::size_t k = 0; k < 2; ++k) {
      double total = 0;
      for (const auto& pr : plan.path_rates[0][k]) total += pr.rate_mbps;
      EXPECT_GE(total, plan.lambda_mbps[0] - 1e-5);
    }
  }
}

TEST(Property, RandomTopologiesDecodeEndToEnd) {
  // Full stack on random overlays: solve (2), quantize, wire, run real
  // coded packets — every decoded byte must verify and goodput must be a
  // solid fraction of the planned (quantized) rate.
  std::mt19937 rng(31337);
  int exercised = 0;
  for (int trial = 0; trial < 6; ++trial) {
    graph::NodeIdx src, d1, d2;
    const auto topo = random_overlay(rng, 4, src, d1, d2);
    ctrl::DeploymentProblem prob;
    prob.topo = &topo;
    prob.alpha = 0.0;
    ctrl::SessionSpec spec;
    spec.id = 1;
    spec.source = src;
    spec.receivers = {d1, d2};
    spec.lmax_s = 10.0;
    spec.max_rate_mbps = 30.0;  // keep the packet-level run light
    prob.sessions.push_back(spec);
    auto plan = ctrl::solve_deployment(prob);
    if (!plan.feasible || plan.lambda_mbps[0] < 5.0) continue;
    // Reverse feedback edges so receivers can reach the source.
    auto topo2 = topo;
    for (graph::NodeIdx r : {d1, d2}) {
      if (topo2.find_edge(r, src) < 0) topo2.add_edge(r, src, 0.02, 10e6);
    }

    coding::CodingParams params;
    app::SyntheticProvider provider(
        static_cast<std::uint64_t>(trial) + 100,
        static_cast<std::size_t>(40e6 / 8 * 6), params);
    app::SimNet sim(topo2);
    app::SessionWiring wiring;
    wiring.vnf.params = params;
    wiring.seed = static_cast<std::uint32_t>(trial * 7 + 3);
    app::NcMulticastSession mc(sim, plan, 0, spec, provider, wiring);
    mc.receiver(0).set_verify(&provider);
    mc.receiver(1).set_verify(&provider);
    mc.start();
    sim.net().sim().run_until(3.0);

    // Quantization may have lowered the deliverable rate; recompute it.
    auto quantized = plan;
    ctrl::quantize_plan(quantized, params.generation_blocks);
    const double target = quantized.lambda_mbps[0];
    if (target < 1.0) continue;
    ++exercised;
    EXPECT_GT(mc.session_goodput_mbps(), 0.55 * target)
        << "trial " << trial << " target " << target;
    EXPECT_EQ(mc.receiver(0).stats().verify_failures, 0u) << trial;
    EXPECT_EQ(mc.receiver(1).stats().verify_failures, 0u) << trial;
  }
  EXPECT_GE(exercised, 3);  // the generator must yield usable topologies
}

// ---- Codec properties over a parameter sweep ----

struct CodecParams {
  std::size_t blocks;
  std::size_t block_size;
  double loss;
};

class CodecSweep : public ::testing::TestWithParam<CodecParams> {};

TEST_P(CodecSweep, DecodesThroughLossyRelayChain) {
  const auto [g, bs, loss] = GetParam();
  coding::CodingParams p;
  p.generation_blocks = g;
  p.block_size = bs;
  std::mt19937 rng(static_cast<unsigned>(g * 1000 + bs));
  std::uniform_real_distribution<double> u(0, 1);

  std::vector<std::uint8_t> data(p.generation_bytes());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  coding::Generation gen(0, data, p);
  coding::Encoder enc(1, gen, rng);
  coding::Decoder relay(1, 0, p), dst(1, 0, p);

  int sent = 0;
  while (!dst.complete() && sent < 5000) {
    ++sent;
    if (u(rng) >= loss) relay.add(enc.encode_random());
    if (relay.rank() > 0 && u(rng) >= loss) dst.add(relay.recode(rng));
  }
  ASSERT_TRUE(dst.complete())
      << "g=" << g << " bs=" << bs << " loss=" << loss;
  const auto blocks = dst.recover();
  for (std::size_t i = 0; i < g; ++i) {
    ASSERT_EQ(blocks[i],
              std::vector<std::uint8_t>(gen.block(i).begin(),
                                        gen.block(i).end()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecSweep,
    ::testing::Values(CodecParams{1, 64, 0.0}, CodecParams{2, 64, 0.2},
                      CodecParams{4, 1460, 0.0}, CodecParams{4, 1460, 0.3},
                      CodecParams{8, 256, 0.5}, CodecParams{16, 128, 0.1},
                      CodecParams{32, 32, 0.0}, CodecParams{64, 16, 0.2}));

// ---- Loss model properties ----

class UniformLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(UniformLossSweep, EmpiricalRateMatches) {
  const double rate = GetParam();
  std::mt19937 rng(static_cast<unsigned>(rate * 1e4) + 1);
  netsim::UniformLoss loss(rate);
  int drops = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) drops += loss.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, rate, 0.015) << rate;
}

INSTANTIATE_TEST_SUITE_P(Rates, UniformLossSweep,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2, 0.3, 0.5));

TEST(Property, BurstLossMonotoneInP) {
  std::mt19937 rng(3);
  double prev = -1;
  for (const double p : {0.0, 0.01, 0.02, 0.03, 0.05}) {
    netsim::BurstLoss loss(p);
    int drops = 0;
    const int n = 60000;
    for (int i = 0; i < n; ++i) drops += loss.drop(rng) ? 1 : 0;
    const double rate = static_cast<double>(drops) / n;
    EXPECT_GE(rate, prev - 0.005) << p;
    prev = rate;
  }
}

TEST(Property, InnovationNeverExceedsPacketCount) {
  coding::CodingParams p;
  p.generation_blocks = 8;
  p.block_size = 32;
  std::mt19937 rng(9);
  std::vector<std::uint8_t> data(p.generation_bytes(), 1);
  coding::Generation gen(0, data, p);
  coding::Encoder enc(1, gen, rng);
  coding::Decoder dec(1, 0, p);
  for (int i = 1; i <= 20; ++i) {
    dec.add(enc.encode_random());
    EXPECT_LE(dec.rank(), std::min<std::size_t>(static_cast<std::size_t>(i),
                                                p.generation_blocks));
    EXPECT_EQ(dec.packets_seen(), static_cast<std::size_t>(i));
  }
}

TEST(Property, RandomCodingIsAlmostAlwaysInnovative) {
  // Over GF(2^8), a fresh random combination is dependent with probability
  // ~ 1/256 per missing dimension; across many generations the innovation
  // ratio must be near 1.
  coding::CodingParams p;
  p.generation_blocks = 4;
  p.block_size = 16;
  std::mt19937 rng(10);
  int innovative = 0, total = 0;
  for (int g = 0; g < 200; ++g) {
    std::vector<std::uint8_t> data(p.generation_bytes());
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    coding::Generation gen(static_cast<coding::GenerationId>(g), data, p);
    coding::Encoder enc(1, gen, rng);
    coding::Decoder dec(1, static_cast<coding::GenerationId>(g), p);
    for (std::size_t i = 0; i < p.generation_blocks; ++i) {
      ++total;
      innovative += dec.add(enc.encode_random()) ? 1 : 0;
    }
  }
  EXPECT_GT(static_cast<double>(innovative) / total, 0.97);
}
