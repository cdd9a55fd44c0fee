#include "app/orchestrator.hpp"

#include <string>

#include "ctrl/signals.hpp"

namespace ncfn::app {

namespace {
/// One-way delay and capacity of the controller <-> DC control links.
constexpr double kControlLinkDelayS = 0.040;
constexpr double kControlLinkBps = 100e6;
}  // namespace

Orchestrator::Orchestrator(SimNet& sim, const Config& cfg)
    : sim_(sim), cfg_(cfg), ctl_(sim.topo(), cfg.controller) {
  ctl_.set_obs(&sim_.obs());
  netsim::Network& net = sim_.net();
  ctl_node_ = net.add_node("controller");

  netsim::LinkConfig lc;
  lc.capacity_bps = kControlLinkBps;
  lc.prop_delay = kControlLinkDelayS;

  for (graph::NodeIdx dc : sim_.topo().data_centers()) {
    net.add_link(ctl_node_, static_cast<netsim::NodeId>(dc), lc);
    net.add_link(static_cast<netsim::NodeId>(dc), ctl_node_, lc);
    auto daemon = std::make_unique<vnf::VnfDaemon>(
        net, static_cast<netsim::NodeId>(dc), cfg_.daemon);
    if (cfg_.probe_interval_s > 0) {
      // Probe the other DCs' delays; report into Alg. 2.
      std::vector<netsim::NodeId> peers;
      for (graph::NodeIdx other : sim_.topo().data_centers()) {
        if (other != dc) peers.push_back(static_cast<netsim::NodeId>(other));
      }
      daemon->start_probes(
          std::move(peers), cfg_.probe_interval_s,
          [this, dc](netsim::NodeId peer, std::optional<double> /*bw*/,
                     std::optional<netsim::Time> rtt) {
            on_probe_report(dc, peer, rtt);
          });
    }
    daemons_.emplace(dc, std::move(daemon));
  }
  if (cfg_.tick_interval_s > 0) schedule_tick();
}

void Orchestrator::schedule_tick() {
  sim_.net().sim().schedule(cfg_.tick_interval_s, [this] {
    ctl_.tick(sim_.net().sim().now());
    flush_signals();
    schedule_tick();
  });
}

void Orchestrator::on_probe_report(graph::NodeIdx from_dc,
                                   netsim::NodeId peer,
                                   std::optional<netsim::Time> rtt) {
  if (!rtt) return;
  // One-way estimate for the from_dc -> peer overlay edge.
  const graph::EdgeIdx e =
      sim_.topo().find_edge(from_dc, static_cast<graph::NodeIdx>(peer));
  if (e < 0) return;
  ctl_.report_delay(e, *rtt / 2.0, sim_.net().sim().now());
  flush_signals();
}

void Orchestrator::flush_signals() {
  const auto& log = ctl_.signal_log();
  for (; flushed_ < log.size(); ++flushed_) {
    const auto& entry = log[flushed_];
    // Ship to the target's daemon if it runs one (data centers); signals
    // addressed to hosts (sources) are informational in this deployment.
    const auto dc = static_cast<graph::NodeIdx>(entry.target_node);
    if (daemons_.count(dc) == 0) continue;
    const std::string text = ctrl::serialize(entry.signal);
    netsim::Datagram d;
    d.src = ctl_node_;
    d.dst = static_cast<netsim::NodeId>(dc);
    d.dst_port = vnf::kControlPort;
    d.payload.assign(text.begin(), text.end());
    if (sim_.net().send(std::move(d))) ++dispatched_;
  }
}

bool Orchestrator::add_session(const ctrl::SessionSpec& spec) {
  const bool ok = ctl_.add_session(spec, sim_.net().sim().now());
  flush_signals();
  return ok;
}

void Orchestrator::remove_session(coding::SessionId id) {
  ctl_.remove_session(id, sim_.net().sim().now());
  flush_signals();
}

void Orchestrator::report_vm_bandwidth(graph::NodeIdx dc, double bin_bps,
                                       double bout_bps) {
  ctl_.report_bandwidth(dc, bin_bps, bout_bps, sim_.net().sim().now());
  flush_signals();
}

}  // namespace ncfn::app
