// Sec. V.C.5 — "Delay Overhead for VNF Launch and Update."
//
// Three cases measured in the paper, averaged over ten runs:
//   (i)   launching a new VM instance            ~35 s
//   (ii)  starting a coding function on a VM     ~376 ms
//   (iii) updating a 10-entry forwarding table   78-311 ms
// Launching a VM is ~100x slower than starting a coding function, which
// justifies the tau-delayed shutdown + reuse design. We reproduce the
// ordering with the daemon's provisioning model plus jitter.
#include <random>

#include "common.hpp"
#include "vnf/daemon.hpp"

int main() {
  using namespace ncfn;
  using namespace ncfn::bench;
  print_header("Sec. V.C.5", "VNF launch / start / table-update overhead");
  std::printf("paper: VM launch 35 s; coding-function start 376.21 ms;\n");
  std::printf("       table update 78-311 ms (Table III)\n\n");

  std::mt19937 rng(5);
  std::normal_distribution<double> vm_jitter(0.0, 2.0);
  std::normal_distribution<double> start_jitter(0.0, 0.020);

  double vm_sum = 0, start_sum = 0, update_sum = 0;
  const int runs = 10;
  for (int i = 0; i < runs; ++i) {
    netsim::Network net(static_cast<std::uint32_t>(100 + i));
    const auto node = net.add_node("relay");
    // (i) A VM launch is provisioning time before the daemon exists.
    const double vm_launch_s = 35.0 + vm_jitter(rng);
    vnf::DaemonConfig dcfg;
    dcfg.vnf_start_s = 0.376 + start_jitter(rng);
    vnf::VnfDaemon daemon(net, node, dcfg);

    vm_sum += vm_launch_s;

    // (ii) coding-function start: signal -> ready event.
    const double before = net.sim().now();
    daemon.handle_signal(ctrl::NcVnfStart{0, 1});
    net.sim().run();
    start_sum += net.sim().now() - before;

    // (iii) full 10-entry table install.
    ctrl::ForwardingTable tab;
    for (coding::SessionId s = 1; s <= 10; ++s) {
      tab.set(s, {ctrl::NextHop{s, static_cast<std::uint16_t>(20000 + s)}});
    }
    daemon.handle_signal(ctrl::NcForwardTab{tab});
    update_sum += daemon.stats().last_table_update_cost_s;
    net.sim().run();
  }

  std::printf("%-38s %12.2f s\n", "(i)   VM instance launch (avg of 10)",
              vm_sum / runs);
  std::printf("%-38s %12.2f ms\n", "(ii)  coding-function start (avg of 10)",
              start_sum / runs * 1e3);
  std::printf("%-38s %12.2f ms\n", "(iii) 10-entry table update (avg of 10)",
              update_sum / runs * 1e3);
  std::printf("\nVM launch / function start ratio: %.0fx (paper: ~100x)\n",
              (vm_sum / runs) / (start_sum / runs));
  return 0;
}
