// relay_g32 workload: the coding-function data plane on its own.
//
// A 3-node netsim chain: a seeded source encodes generations (g = 32,
// 1460-B blocks, 32 systematic + 8 random coded packets each) and sends
// them to a recode-role CodingVnf at a data-center node, which forwards
// recoded packets to a decode-role CodingVnf at the sink host. Links are
// fat, so nothing queues or drops. Each round offers kGensPerRound
// generations and drains the simulator (closed loop); only encoding, sending and the
// drain are timed. Every decoded generation is compared byte for byte
// with the source content after its round.
//
//   perf_relay --seed <n> [--seconds <s>] [--min-rounds <n>]
//              [--setup-only 1] [--print-tier 1]
//
// Prints one JSON line: rounds, per-round wall times, packets offered,
// generations offered/verified, failures and the metrics registry.
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "app/provider.hpp"
#include "coding/encoder.hpp"
#include "ctrl/controller.hpp"
#include "gf/gf256_simd.hpp"
#include "harness/common.hpp"
#include "netsim/network.hpp"
#include "obs/obs.hpp"
#include "vnf/coding_vnf.hpp"

#ifdef PERFBENCH_TRACED
#include "trace/node_kinds.hpp"
#include "trace/provider.hpp"
#endif

using namespace ncfn;
namespace hb = perfbench::harness;

namespace {

constexpr coding::SessionId kSession = 1;
constexpr std::size_t kSystematic = 32;
constexpr std::size_t kCoded = 8;
constexpr std::size_t kGensPerRound = 4;
constexpr netsim::NodeId kSrc = 0, kRelay = 1, kSink = 2;

coding::CodingParams relay_params() {
  coding::CodingParams p;
  p.generation_blocks = 32;
  p.block_size = 1460;
  return p;
}

/// The chain and its decoded output.
struct Chain {
  explicit Chain(std::uint32_t seed)
      : net(seed),
        provider(seed, std::size_t{1} << 40, relay_params()),
        rng(seed ^ 0x5eedu) {
    net.set_obs(&hub);
    for (const char* name : {"src", "relay", "sink"}) net.add_node(name);
#ifdef PERFBENCH_TRACED
    using perfbench::trace::Key;
    perfbench::trace::register_node_kinds(
        net, {Key::kAppEndpoint, Key::kVnf, Key::kAppEndpoint});
#endif
    netsim::LinkConfig fat;
    fat.capacity_bps = 400e9;
    fat.prop_delay = 0.001;
    fat.queue_packets = 1u << 20;
    net.add_link(kSrc, kRelay, fat);
    net.add_link(kRelay, kSink, fat);

    vnf::VnfConfig cfg;
    cfg.params = relay_params();
    cfg.proc_rate_Bps = 1e13;  // lanes never saturate
    cfg.proc_queue_limit = 1u << 20;
    cfg.max_batch = 32;
    cfg.seed = seed;
    const netsim::Port port = ctrl::session_data_port(kSession);
    relay = std::make_unique<vnf::CodingVnf>(net, kRelay, cfg);
    relay->configure_session(kSession, ctrl::VnfRole::kRecode, port);
    relay->set_next_hops(kSession, {vnf::NextHopRate{{kSink, port}, 1.0}});
    sink = std::make_unique<vnf::CodingVnf>(net, kSink, cfg);
    sink->configure_session(kSession, ctrl::VnfRole::kDecode, port);
    sink->set_decode_sink([this](coding::SessionId, coding::GenerationId g,
                                 std::vector<std::vector<std::uint8_t>> b) {
      decoded[g] = std::move(b);
    });
  }

  // Declared first: the network and the VNFs hold handles into it.
  obs::Observability hub;
  netsim::Network net;
  std::unique_ptr<vnf::CodingVnf> relay, sink;
  app::SyntheticProvider provider;
  std::mt19937 rng;
  std::map<coding::GenerationId, std::vector<std::vector<std::uint8_t>>>
      decoded;
};

/// Blocks of a decoded generation against the source bytes.
bool matches(const std::vector<std::vector<std::uint8_t>>& blocks,
             const std::vector<std::uint8_t>& expected) {
  std::size_t off = 0;
  for (const auto& b : blocks) {
    const std::size_t n = std::min(b.size(), expected.size() - off);
    if (n > 0 && std::memcmp(b.data(), expected.data() + off, n) != 0) {
      return false;
    }
    off += n;
  }
  return off == expected.size();
}

}  // namespace

int main(int argc, char** argv) {
  hb::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint32_t>(flags.num("seed", 1));
  const double seconds = flags.num("seconds", 5);
  const auto min_rounds =
      static_cast<std::size_t>(flags.num("min-rounds", 20));
  const bool setup_only = flags.num("setup-only", 0) != 0;
  const bool print_tier = flags.num("print-tier", 0) != 0;
  flags.done();
  if (print_tier) {
    std::printf("%s\n", gf::simd::tier_name(gf::simd::active_tier()));
  }

  std::unique_ptr<Chain> chain;
  {
    PB_SPAN(kAppWire);
    chain = std::make_unique<Chain>(seed);
  }
  if (setup_only) return 0;
#ifdef PERFBENCH_TRACED
  const perfbench::trace::TimedProvider provider(chain->provider);
#else
  const app::GenerationProvider& provider = chain->provider;
#endif

  const netsim::Port port = ctrl::session_data_port(kSession);
  std::vector<double> round_s;
  std::uint64_t packets = 0, offered = 0, verified = 0, failed = 0;
  std::string first_failure;
  coding::GenerationId next_gen = 0;
  const double t_begin = hb::now_s();
  while (round_s.size() < min_rounds || hb::now_s() - t_begin < seconds) {
    // Content synthesis is the application's, not the data plane's.
    std::vector<coding::Generation> round;
    for (std::size_t i = 0; i < kGensPerRound; ++i) {
      round.push_back(provider.generation(next_gen + i));
    }
    const double t0 = hb::now_s();
    {
      PB_SPAN(kHarness);
      for (const coding::Generation& gen : round) {
        coding::Encoder enc(kSession, gen, chain->rng);
        std::vector<netsim::Datagram> burst(kSystematic + kCoded);
        for (std::size_t i = 0; i < burst.size(); ++i) {
          const coding::CodedPacket pkt = i < kSystematic
                                              ? enc.encode_systematic(i)
                                              : enc.encode_random();
          burst[i].src = kSrc;
          burst[i].dst = kRelay;
          burst[i].dst_port = port;
          pkt.serialize_into(burst[i].payload);
        }
        packets += burst.size();
        chain->net.send_burst(std::move(burst));
      }
      chain->net.sim().run();
    }
    round_s.push_back(hb::now_s() - t0);

    PB_SPAN(kHarness);
    for (std::size_t i = 0; i < kGensPerRound; ++i) {
      const coding::GenerationId g = next_gen + i;
      ++offered;
      const auto it = chain->decoded.find(g);
      const char* why = nullptr;
      if (it == chain->decoded.end()) {
        why = "not decoded";
      } else if (!matches(it->second, chain->provider.generation_bytes(g))) {
        why = "decoded bytes differ from the source";
      }
      if (why != nullptr) {
        ++failed;
        if (first_failure.empty()) {
          first_failure = "generation " + std::to_string(g) + ": " + why;
        }
      } else {
        ++verified;
      }
      if (it != chain->decoded.end()) chain->decoded.erase(it);
    }
    next_gen += static_cast<coding::GenerationId>(kGensPerRound);
  }

  std::printf(
      "{\"rounds\": %zu, \"round_s\": [%s], \"packets\": %llu, "
      "\"generations\": %llu, \"verified\": %llu, \"failed\": %llu, "
      "\"first_failure\": %s, \"metrics\": %s}\n",
      round_s.size(), hb::join(round_s).c_str(),
      static_cast<unsigned long long>(packets),
      static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(verified),
      static_cast<unsigned long long>(failed),
      hb::quoted(first_failure).c_str(),
      chain->hub.metrics.to_json().c_str());
  return 0;
}
