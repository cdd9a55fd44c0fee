// Table II — "Delay comparison."
//
// Three measurements per receiver, as in Sec. V.B.2:
//   (1) ping RTT on the direct Internet path (90.85/77.01 ms in the paper);
//   (2) round trip of the first generation over the relayed path
//       V1 -> C1 -> T -> V2 -> receiver with network coding in place
//       (~168 ms in the paper);
//   (3) the same relayed path with relays directly forwarding
//       (~167 ms — coding adds only 0.9-1.5 %).
// "We allow each receiver to send an acknowledge directly back to the
// source once it has successfully received the (decoded) first
// generation"; the return path mirrors the relayed route's delay.
//
// The coding overhead on the relayed path comes from packet
// synchronization (a recoding relay holds an emission until the
// generation reaches full rank) plus per-packet GF(2^8) work — both are
// modeled, so the delta is small and positive, as in the paper.
#include <algorithm>

#include "app/provider.hpp"
#include "app/receiver.hpp"
#include "app/source.hpp"
#include "common.hpp"
#include "vnf/coding_vnf.hpp"

namespace {

using namespace ncfn;

struct ChainResult {
  double rtt_s = -1;
};

/// One unicast transfer down the relay chain; relays either recode or
/// forward. Returns the first-generation round trip seen by the source.
ChainResult run_chain(bool with_coding, double feedback_jitter_s) {
  netsim::Network net(1);
  const auto v1 = net.add_node("V1:source");
  const auto c1 = net.add_node("C1");
  const auto t = net.add_node("T");
  const auto v2 = net.add_node("V2");
  const auto rx = net.add_node("receiver");

  auto link = [&](netsim::NodeId a, netsim::NodeId b, double delay) {
    netsim::LinkConfig lc;
    lc.capacity_bps = 35e6;
    lc.prop_delay = delay;
    net.add_link(a, b, lc);
  };
  link(v1, c1, 0.025);
  link(c1, t, 0.017);
  link(t, v2, 0.018);
  link(v2, rx, 0.021);
  // ACK return path: same length as the forward relay route (the paper's
  // acknowledgements ride the Internet back), plus measurement jitter.
  link(rx, v1, 0.081 + feedback_jitter_s);

  coding::CodingParams params;
  app::SyntheticProvider provider(3, 64 * params.generation_bytes(), params);

  app::SourceConfig scfg;
  scfg.session = 1;
  scfg.params = params;
  scfg.lambda_mbps = 35.0;
  scfg.redundancy = 0;
  app::McSource source(net, v1, provider, scfg);
  source.configure_hops({{ctrl::NextHop{c1, scfg.data_port}, 35.0}});

  const ctrl::VnfRole role =
      with_coding ? ctrl::VnfRole::kRecode : ctrl::VnfRole::kForward;
  vnf::VnfConfig vcfg;
  vcfg.params = params;
  std::vector<std::unique_ptr<vnf::CodingVnf>> relays;
  const netsim::NodeId chain[3] = {c1, t, v2};
  const netsim::NodeId next[3] = {t, v2, rx};
  for (int i = 0; i < 3; ++i) {
    vcfg.seed = static_cast<std::uint32_t>(10 + i);
    auto relay = std::make_unique<vnf::CodingVnf>(net, chain[i], vcfg);
    relay->configure_session(1, role, scfg.data_port);
    relay->set_next_hops(
        1, {vnf::NextHopRate{ctrl::NextHop{next[i], scfg.data_port}, 1.0}});
    relays.push_back(std::move(relay));
  }

  app::ReceiverConfig rcfg;
  rcfg.session = 1;
  rcfg.data_port = scfg.data_port;
  rcfg.source_node = v1;
  rcfg.source_feedback_port = scfg.feedback_port;
  rcfg.enable_repair = false;
  rcfg.vnf = vcfg;
  app::McReceiver receiver(net, rx, provider, rcfg);

  receiver.start();
  source.start();
  net.sim().run_until(2.0);

  ChainResult r;
  const auto& acks = source.stats().first_gen_ack_rtt;
  if (auto it = acks.find(rx); it != acks.end()) r.rtt_s = it->second;
  return r;
}

struct Acc {
  double mn = 1e9, mx = 0, sum = 0;
  int n = 0;
  void add(double v) {
    if (v < 0) return;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    sum += v;
    ++n;
  }
  [[nodiscard]] double avg() const { return n > 0 ? sum / n : -1; }
};

}  // namespace

int main() {
  using namespace ncfn;
  using namespace ncfn::bench;
  print_header("Tab. II",
               "Delay comparison: direct ping vs relayed first-generation RTT");
  std::printf("paper: direct 90.9 / 77.0 ms; relayed w/ coding 168.8 / 168.2 ms;\n");
  std::printf("       relayed w/o coding 167.3 / 166.5 ms (coding adds 0.9-1.5%%)\n\n");

  // Direct pings (coded-packet-sized probes on the direct Internet paths).
  const auto bd = app::scenarios::butterfly(true);
  coding::CodingParams params;
  app::SimNet sim(bd.topo);
  const auto ping_o2 = sim.net().ping_rtt(
      sim.node(bd.source), sim.node(bd.recv_o2), params.packet_bytes());
  const auto ping_c2 = sim.net().ping_rtt(
      sim.node(bd.source), sim.node(bd.recv_c2), params.packet_bytes());

  Acc coded, plain;
  for (int run = 0; run < 8; ++run) {
    const double jitter = 0.0002 * run;  // 0 - 1.4 ms of path jitter
    coded.add(run_chain(/*with_coding=*/true, jitter).rtt_s);
    plain.add(run_chain(/*with_coding=*/false, jitter).rtt_s);
  }

  std::printf("%-26s %10s %10s %10s\n", "", "min(ms)", "max(ms)", "avg(ms)");
  std::printf("%-26s %10.2f %10.2f %10.2f   (receiver O2)\n",
              "Direct path (ping)", *ping_o2 * 1e3, *ping_o2 * 1e3,
              *ping_o2 * 1e3);
  std::printf("%-26s %10.2f %10.2f %10.2f   (receiver C2)\n\n",
              "Direct path (ping)", *ping_c2 * 1e3, *ping_c2 * 1e3,
              *ping_c2 * 1e3);
  std::printf("%-26s %10.2f %10.2f %10.2f\n", "Relayed path w/ coding",
              coded.mn * 1e3, coded.mx * 1e3, coded.avg() * 1e3);
  std::printf("%-26s %10.2f %10.2f %10.2f\n", "Relayed path w/o coding",
              plain.mn * 1e3, plain.mx * 1e3, plain.avg() * 1e3);
  std::printf("%-26s %+10.1f%%  (paper: +0.9%% to +1.5%%)\n",
              "coding delay overhead",
              (coded.avg() / plain.avg() - 1.0) * 100);
  return 0;
}
