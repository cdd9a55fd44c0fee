// End-to-end packets/sec through a recode lane (google-benchmark): a
// source node feeds coded generations over a netsim link into a
// RECODE-role CodingVnf, which recodes and emits to a sink node. The
// wall-clock cost per packet is dominated by the fixed per-packet
// overheads this PR amortizes — simulator events, header parses, RNG
// draws, map lookups, counter updates — so the benchmark arg sweeps the
// lane batch size:
//
//   batch=1   strict per-packet operation (the pre-batching baseline:
//             one service event, one recode sweep, one link departure
//             and one delivery event per packet),
//   batch=32  full PacketBatch operation (one drain event per batch, one
//             recode_batch coefficient sweep per run, burst links).
//
// items_per_second is arrival packets through the lane; the acceptance
// gate for the batched data plane is >= 2x batch=32 over batch=1 at
// g=32. tools/bench_all.sh records its results in BENCH_vnf_pps.json.
#include <benchmark/benchmark.h>

#include <random>
#include <span>
#include <vector>

#include "coding/encoder.hpp"
#include "coding/generation.hpp"
#include "coding/pool.hpp"
#include "netsim/network.hpp"
#include "vnf/coding_vnf.hpp"

namespace {

using namespace ncfn;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> d(0, 255);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(d(rng));
  return out;
}

void BM_VnfRecodeLanePps(benchmark::State& state) {
  const auto max_batch = static_cast<std::size_t>(state.range(0));
  coding::CodingParams p;
  p.generation_blocks = 32;  // the acceptance-gate generation size
  // RFC 2544-style minimum-frame payload: pps benchmarks use small
  // packets so the (batch-invariant) GF kernel share of each packet
  // stays low and the measurement isolates the fixed per-packet costs
  // this data plane amortizes — events, parses, draws, lookups. The
  // kernel-bound regime at MTU-sized blocks is bench_micro_codec's job.
  p.block_size = 64;

  netsim::Network net(1);
  const auto n_src = net.add_node("src");
  const auto n_relay = net.add_node("relay");
  const auto n_sink = net.add_node("sink");
  netsim::LinkConfig lc;
  lc.capacity_bps = 1e12;  // fat pipes: the lane, not the wire, dominates
  lc.prop_delay = 1e-6;
  lc.queue_packets = 1 << 16;
  net.add_link(n_src, n_relay, lc);
  net.add_link(n_relay, n_sink, lc);

  vnf::VnfConfig vc;
  vc.params = p;
  vc.max_batch = max_batch;
  vc.proc_queue_limit = 1 << 16;
  vnf::CodingVnf relay(net, n_relay, vc);
  relay.configure_session(1, ctrl::VnfRole::kRecode, 7000);
  relay.set_next_hops(1, {{{n_sink, 7001}, 1.0}});

  std::uint64_t sink_rx = 0;
  net.bind_burst(n_sink, 7001,
                 [&](std::span<netsim::Datagram> b) { sink_rx += b.size(); });

  // One prototype generation's worth of arrivals — systematic first (the
  // standard source setup; relay ingest takes the identity-coefficient
  // fast path), then 8 random combinations so the lane also sees coded
  // and post-completion traffic. Each timed generation re-stamps the
  // generation id, so every pass rebuilds decoder rank from zero.
  const auto data = random_bytes(p.generation_bytes(), 42);
  coding::Generation gen(0, data, p);
  std::mt19937 rng(43);
  auto pool = coding::PacketPool::make();
  coding::Encoder enc(1, gen, rng, pool);
  std::vector<coding::CodedPacket> proto;
  for (std::size_t i = 0; i < p.generation_blocks; ++i) {
    proto.push_back(enc.encode_systematic(i));
  }
  for (std::size_t i = 0; i < 8; ++i) proto.push_back(enc.encode_random());

  std::uint64_t items = 0;
  coding::GenerationId gen_id = 0;
  constexpr std::size_t kGensPerIter = 4;
  std::vector<netsim::Datagram> burst;
  for (auto _ : state) {
    for (std::size_t m = 0; m < kGensPerIter; ++m) {
      const coding::GenerationId gid = gen_id++;
      for (coding::CodedPacket& pkt : proto) {
        pkt.generation = gid;
        netsim::Datagram d;
        d.src = n_src;
        d.dst = n_relay;
        d.dst_port = 7000;
        d.payload = net.take_buffer();
        pkt.serialize_into(d.payload);
        if (max_batch == 1) {
          // Pre-batching baseline: packet-at-a-time into the link.
          net.send(std::move(d));
        } else {
          burst.push_back(std::move(d));
          if (burst.size() == coding::kBatchCapacity) {
            net.send_burst(std::move(burst));
            burst.clear();
          }
        }
      }
      if (!burst.empty()) {
        net.send_burst(std::move(burst));
        burst.clear();
      }
      items += proto.size();
    }
    net.sim().run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  state.counters["sink_rx"] = static_cast<double>(sink_rx);
  state.SetLabel(max_batch == 1 ? "per_packet" : "batched");
}
BENCHMARK(BM_VnfRecodeLanePps)->Arg(1)->Arg(32);

}  // namespace
