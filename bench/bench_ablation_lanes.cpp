// Ablation — multi-VNF dispatch within a data center (Sec. IV.A: "In
// case of multiple VNFs launched in one data center, we dispatch the
// incoming packets across these VNFs based on session id and generation
// id ... Packets belonging to the same generation are dispatched to the
// same VNF instance").
//
// One relay DC whose per-VNF coding rate is the bottleneck; the offered
// stream is far above a single instance's capacity. Throughput must scale
// close to linearly with the number of deployed instances (lanes) until
// the link rate is reached, because whole generations shard cleanly
// across instances.
#include "app/provider.hpp"
#include "app/receiver.hpp"
#include "app/source.hpp"
#include "common.hpp"
#include "vnf/coding_vnf.hpp"

namespace {

using namespace ncfn;

double run_with_lanes(std::size_t lanes) {
  netsim::Network net(1);
  const auto src = net.add_node("src");
  const auto dc = net.add_node("dc");
  const auto dst = net.add_node("dst");
  netsim::LinkConfig lc;
  lc.capacity_bps = 200e6;
  lc.prop_delay = 0.005;
  lc.queue_packets = 2048;
  net.add_link(src, dc, lc);
  net.add_link(dc, dst, lc);
  net.add_link(dst, src, lc);  // feedback

  coding::CodingParams params;
  app::SyntheticProvider provider(5, static_cast<std::size_t>(200e6 / 8 * 4),
                                  params);

  app::SourceConfig scfg;
  scfg.session = 1;
  scfg.params = params;
  scfg.lambda_mbps = 160.0;
  app::McSource source(net, src, provider, scfg);
  source.configure_hops({{ctrl::NextHop{dc, scfg.data_port}, 160.0}});

  vnf::VnfConfig vcfg;
  vcfg.params = params;
  // One instance codes ~40 Mbps: service = 2*4*1464 B / proc_rate.
  vcfg.proc_rate_Bps = 2.0 * 4 * 1464 * (40e6 / (1460 * 8));
  vcfg.fixed_overhead_s = 0;
  vnf::CodingVnf relay(net, dc, vcfg);
  relay.set_lanes(lanes);
  relay.configure_session(1, ctrl::VnfRole::kRecode, scfg.data_port);
  relay.set_next_hops(
      1, {vnf::NextHopRate{ctrl::NextHop{dst, scfg.data_port}, 1.0}});

  app::ReceiverConfig rcfg;
  rcfg.session = 1;
  rcfg.data_port = scfg.data_port;
  rcfg.source_node = src;
  rcfg.source_feedback_port = scfg.feedback_port;
  rcfg.enable_repair = false;  // measure raw lane capacity
  rcfg.vnf = vcfg;
  rcfg.vnf.proc_rate_Bps = 1e12;  // receiver decode is not the bottleneck
  app::McReceiver rx(net, dst, provider, rcfg);

  rx.start();
  source.start();
  net.sim().run_until(2.0);
  return rx.goodput_mbps();
}

}  // namespace

int main() {
  using namespace ncfn::bench;
  print_header("Ablation", "Multi-VNF dispatch: throughput vs instances per DC");
  std::printf("one instance codes ~40 Mbps; offered stream 160 Mbps\n\n");
  std::printf("%10s %18s %14s\n", "lanes", "throughput(Mbps)", "scaling");
  double base = 0;
  for (const std::size_t lanes : {1, 2, 3, 4, 6, 8}) {
    const double tput = run_with_lanes(lanes);
    if (lanes == 1) base = tput;
    std::printf("%10zu %18.2f %13.2fx\n", lanes, tput, tput / base);
  }
  std::printf("\ngeneration-sharded dispatch scales until the offered rate "
              "(160 Mbps) is met\n");
  return 0;
}
