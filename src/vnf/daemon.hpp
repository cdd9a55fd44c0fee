// Per-node daemon (Sec. III.A): receives NC_* signals from the controller
// over the (simulated) network and manages the local coding function.
//
// The daemon reproduces the control-plane costs the paper measures in
// Sec. V.C.5 and Table III:
//   * launching a new VM instance:            ~35 s
//   * starting a coding function on a live VM: ~376 ms
//   * forwarding-table update:                 ~31 ms per changed entry
//     (78 ms at 20 % of a 10-entry table up to 311 ms at 100 %)
// A forwarding-table update pauses the coding function (the SIGUSR1
// analogue), applies the new table, then resumes. NC_VNF_END arms a
// shutdown timer tau seconds out; a reuse (NC_VNF_START or new settings
// before the deadline) cancels it, modelling the paper's VNF-reuse
// optimization.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "ctrl/signals.hpp"
#include "netsim/network.hpp"
#include "vnf/coding_vnf.hpp"

namespace ncfn::vnf {

/// Port every daemon receives NC_* signals on.
inline constexpr netsim::Port kControlPort = 100;
/// Forwarding-table apply cost per changed entry: case (iii) of
/// Sec. V.C.5 (Table III).
inline constexpr double kTableEntryApplyS = 0.031;

struct DaemonConfig {
  double vnf_start_s = 0.376;  // case (ii) of Sec. V.C.5
  VnfConfig vnf;
};

struct DaemonStats {
  std::uint64_t signals_received = 0;
  std::uint64_t signals_malformed = 0;
  std::uint64_t table_updates = 0;
  double last_table_update_cost_s = 0;
  std::uint64_t vnf_starts = 0;
  std::uint64_t shutdowns = 0;
  std::uint64_t shutdowns_cancelled = 0;  // reuse within tau
};

class VnfDaemon {
 public:
  VnfDaemon(netsim::Network& net, netsim::NodeId node,
            const DaemonConfig& cfg);
  ~VnfDaemon();

  VnfDaemon(const VnfDaemon&) = delete;
  VnfDaemon& operator=(const VnfDaemon&) = delete;

  /// Deliver a control signal as the controller would (also reachable via
  /// the network on the control port with the text wire format).
  void handle_signal(const ctrl::Signal& s);

  [[nodiscard]] CodingVnf& vnf() { return vnf_; }
  [[nodiscard]] const DaemonStats& stats() const { return stats_; }
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] const ctrl::ForwardingTable& table() const { return table_; }

  /// Periodic measurement loop: every `interval_s`, reports the measured
  /// bandwidth/RTT towards each peer via `report` (the iperf3/ping loop
  /// feeding the controller in Sec. IV.B).
  using ProbeReport = std::function<void(
      netsim::NodeId peer, std::optional<double> bandwidth_bps,
      std::optional<netsim::Time> rtt_s)>;
  void start_probes(std::vector<netsim::NodeId> peers, double interval_s,
                    ProbeReport report);
  void stop_probes() { probing_ = false; }

 private:
  void on_control_datagram(const netsim::Datagram& d);
  void apply_settings(const ctrl::NcSettings& s);
  void apply_table(const ctrl::NcForwardTab& t);
  void probe_round();

  netsim::Network& net_;
  netsim::NodeId node_;
  DaemonConfig cfg_;
  CodingVnf vnf_;
  ctrl::ForwardingTable table_;
  DaemonStats stats_;
  // Control-plane observability handles into the network's hub.
  obs::Observability* obs_ = nullptr;
  obs::Histogram* m_table_update_s_ = nullptr;
  obs::Counter* m_table_updates_ = nullptr;
  obs::Counter* m_vnf_starts_ = nullptr;
  obs::Counter* m_shutdowns_ = nullptr;
  obs::Counter* m_shutdowns_cancelled_ = nullptr;
  bool running_ = true;
  std::uint64_t shutdown_epoch_ = 0;  // bump to cancel pending shutdowns
  bool shutdown_pending_ = false;

  bool probing_ = false;
  std::vector<netsim::NodeId> probe_peers_;
  double probe_interval_s_ = 600;
  ProbeReport probe_report_;
};

}  // namespace ncfn::vnf
