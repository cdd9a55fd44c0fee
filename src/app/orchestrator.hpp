// Full control-plane deployment: the central controller runs at its own
// node in the simulated network (the paper ran it on a server in Hong
// Kong) and every data center runs a VnfDaemon. Controller decisions are
// shipped as NC_* signal datagrams over controller<->DC control links and
// parsed by the daemons from the text wire format — the same end-to-end
// path as the paper's prototype, including propagation delay, so signal
// latency is part of the simulation.
//
// The daemons' periodic ping probes feed measured link delays back into
// the controller (Alg. 2's input); per-VM bandwidth reports (Alg. 1's
// input, iperf3 in the paper) come from the scenario driver, since VM NIC
// capacity is a node property the overlay links do not expose directly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "app/runtime.hpp"
#include "ctrl/controller.hpp"
#include "vnf/daemon.hpp"

namespace ncfn::app {

class Orchestrator {
 public:
  struct Config {
    ctrl::Controller::Config controller;
    vnf::DaemonConfig daemon;
    /// Period of the daemons' ping probes (0 = no probes).
    double probe_interval_s = 600.0;
    /// Period of the controller's housekeeping tick (0 = manual).
    double tick_interval_s = 600.0;
  };

  /// Builds daemons on every data center of `sim` and a controller node
  /// connected to all of them. The topology must be the one `sim` was
  /// built from.
  Orchestrator(SimNet& sim, const Config& cfg);

  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  // ---- Session lifecycle (timestamps taken from the simulated clock) ----
  bool add_session(const ctrl::SessionSpec& spec);
  void remove_session(coding::SessionId id);
  /// Per-VM bandwidth measurement for a DC (the iperf3 report).
  void report_vm_bandwidth(graph::NodeIdx dc, double bin_bps,
                           double bout_bps);

  [[nodiscard]] ctrl::Controller& controller() { return ctl_; }
  [[nodiscard]] vnf::VnfDaemon& daemon(graph::NodeIdx dc) {
    return *daemons_.at(dc);
  }
  /// Signals shipped over the network so far.
  [[nodiscard]] std::size_t signals_dispatched() const { return dispatched_; }

  /// Ship any controller signals logged since the last flush to their
  /// target daemons (called automatically by the session API).
  void flush_signals();

 private:
  void schedule_tick();
  void on_probe_report(graph::NodeIdx from_dc, netsim::NodeId peer,
                       std::optional<netsim::Time> rtt);

  SimNet& sim_;
  Config cfg_;
  ctrl::Controller ctl_;
  netsim::NodeId ctl_node_;
  std::map<graph::NodeIdx, std::unique_ptr<vnf::VnfDaemon>> daemons_;
  std::size_t flushed_ = 0;    // signal-log entries already shipped
  std::size_t dispatched_ = 0;
};

}  // namespace ncfn::app
