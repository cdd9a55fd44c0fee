#include "app/orchestrator.hpp"

#include <string>
#include <string_view>

#include "coding/strparse.hpp"
#include "ctrl/signals.hpp"

namespace ncfn::app {

Orchestrator::Orchestrator(SimNet& sim, const Config& cfg)
    : sim_(sim), cfg_(cfg), ctl_(sim.topo(), cfg.controller) {
  ctl_.set_obs(&sim_.obs());
  netsim::Network& net = sim_.net();
  ctl_node_ = net.add_node("controller");

  netsim::LinkConfig lc;
  lc.capacity_bps = cfg_.control_link_bps;
  lc.prop_delay = cfg_.control_link_delay_s;

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
  if (cfg_.heartbeat_interval_s > 0) {
    net.bind(ctl_node_, cfg_.heartbeat_port,
             [this](const netsim::Datagram& d) { on_heartbeat(d); });
    hb_bound_ = true;
    for (auto& [dc, daemon] : daemons_) {
      daemon->start_heartbeats(ctl_node_, cfg_.heartbeat_port,
                               cfg_.heartbeat_interval_s);
    }
  }
  if (cfg_.tick_interval_s > 0) schedule_tick();
}

Orchestrator::~Orchestrator() {
  if (hb_bound_) sim_.net().unbind(ctl_node_, cfg_.heartbeat_port);
}

void Orchestrator::on_heartbeat(const netsim::Datagram& d) {
  const std::string text(d.payload.begin(), d.payload.end());
  if (text.rfind("HB ", 0) != 0) return;
  const auto node =
      coding::parse_num<graph::NodeIdx>(std::string_view(text).substr(3));
  if (!node || *node < 0) return;
  ctl_.heartbeat(*node, sim_.net().sim().now());
  flush_signals();  // a heartbeat from a down DC revives it (re-solve)
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
    d.dst_port = cfg_.daemon.control_port;
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

bool Orchestrator::add_receiver(coding::SessionId id,
                                graph::NodeIdx receiver) {
  const bool ok = ctl_.add_receiver(id, receiver, sim_.net().sim().now());
  flush_signals();
  return ok;
}

void Orchestrator::remove_receiver(coding::SessionId id,
                                   graph::NodeIdx receiver) {
  ctl_.remove_receiver(id, receiver, sim_.net().sim().now());
  flush_signals();
}

void Orchestrator::report_vm_bandwidth(graph::NodeIdx dc, double bin_bps,
                                       double bout_bps) {
  ctl_.report_bandwidth(dc, bin_bps, bout_bps, sim_.net().sim().now());
  flush_signals();
}

}  // namespace ncfn::app
