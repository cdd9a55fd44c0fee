// The central controller (Sec. III.A + Sec. IV.B).
//
// Owns the controller-side view of the overlay (topology with measured
// bandwidths/delays), the set of multicast sessions, the current
// deployment plan, and the per-DC VNF pools. Implements the paper's
// dynamic algorithms:
//
//   Alg. 1  Bandwidth variation — a per-VM bandwidth change of more than
//           5 % (the paper's rho1) that persists for tau1 triggers an
//           incremental re-solve of (2) with unaffected sessions' flows
//           frozen; scale-out happens only if the re-solved objective
//           beats keeping the current deployment.
//   Alg. 2  Delay changes — a link-delay change of more than 5 % (rho2)
//           persisting for tau2 updates the feasible path sets and
//           re-solves.
//   Alg. 3  Session/receiver arrivals and departures — joins solve for the
//           new demand only (existing flows frozen, deployment as floor);
//           quits compare "grow flows into freed capacity" against
//           "shut down now-redundant VNFs" by objective value.
//
// VNF lifecycle: a VNF ordered to stop (NC_VNF_END) keeps running for tau
// seconds and is reused in preference to launching a new VM if demand
// returns — the paper measured VM launch at ~35 s versus ~376 ms for
// starting a coding function on a live VM.
//
// Every decision re-solves (2) through solve_for(): the sessions it may
// change are unfrozen, every other session keeps its flows, and the live
// deployment is a floor, fixed, or free. A decision with two candidate
// plans installs the better one.
//
// Every decision is exposed through a signal log (the NC_* messages of
// Sec. III.A) so daemons — or tests — can replay exactly what the
// controller ordered.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ctrl/problem.hpp"
#include "ctrl/signals.hpp"
#include "graph/topology.hpp"
#include "obs/obs.hpp"

namespace ncfn::ctrl {

/// UDP data port used for a session's coded traffic.
[[nodiscard]] inline std::uint16_t session_data_port(coding::SessionId id) {
  return static_cast<std::uint16_t>(20000 + id % 20000);
}

class Controller {
 public:
  struct Config {
    double alpha = 20.0;  // Mbps-equivalent cost per VNF
    double tau_s = 600.0;   // idle-VNF grace period before shutdown
    double tau1_s = 600.0;  // bandwidth-change persistence requirement
    double tau2_s = 600.0;  // delay-change persistence requirement
    /// Declare a data center down when its daemon heartbeat is older
    /// than this at tick() time. 0 disables liveness tracking.
    double heartbeat_timeout_s = 0.0;
  };

  struct LoggedSignal {
    double at_s;
    std::uint32_t target_node;  // daemon's node (DC idx), or controller
    Signal signal;
  };

  Controller(graph::Topology topo, const Config& cfg);

  // ---- Session management (Alg. 3) ----
  /// SESSION JOIN. Returns false if the session could not be admitted
  /// (e.g., no feasible path for a fixed-rate session).
  bool add_session(const SessionSpec& spec, double now_s);
  /// SESSION QUIT.
  void remove_session(coding::SessionId id, double now_s);
  /// RECEIVER JOIN/QUIT on an existing session.
  bool add_receiver(coding::SessionId id, graph::NodeIdx receiver,
                    double now_s);
  void remove_receiver(coding::SessionId id, graph::NodeIdx receiver,
                       double now_s);

  // ---- Measurement reports (Algs. 1 & 2) ----
  /// Per-VM in/out bandwidth measured at data center v (the iperf3 probe).
  void report_bandwidth(graph::NodeIdx v, double bin_bps, double bout_bps,
                        double now_s);
  /// One-way delay measured on edge e (the ping probe).
  void report_delay(graph::EdgeIdx e, double delay_s, double now_s);

  // ---- Failure handling ----
  /// Explicit topology-change event: edge e failed (up=false) or
  /// recovered. Unlike bandwidth/delay noise there is no tau persistence
  /// filter — an outage re-solves immediately: sessions routed over the
  /// edge are re-planned around it (others stay frozen), new forwarding
  /// tables and NC_VNF_START/END signals are pushed, and a `resolve`
  /// trace event records the reaction. Recovery re-solves everything.
  void report_link_state(graph::EdgeIdx e, bool up, double now_s);
  /// Machine-level failure: every edge incident to v fails with it and
  /// the DC's VNF pool is lost (crashed VMs do not drain gracefully).
  void report_node_state(graph::NodeIdx v, bool up, double now_s);
  /// Daemon liveness report. A heartbeat from a down DC revives it.
  void heartbeat(graph::NodeIdx v, double now_s);
  /// Count of failure-triggered re-solves performed so far.
  [[nodiscard]] int resolves() const { return resolves_; }
  [[nodiscard]] bool node_down(graph::NodeIdx v) const {
    return down_nodes_.count(v) > 0;
  }

  /// Periodic housekeeping: declares DCs with stale heartbeats down,
  /// applies measurement changes that persisted past tau1/tau2, and
  /// expires draining VNFs whose grace period ended.
  void tick(double now_s);

  // ---- Introspection ----
  [[nodiscard]] const DeploymentPlan& plan() const { return plan_; }
  [[nodiscard]] const graph::Topology& topology() const { return topo_; }
  [[nodiscard]] const std::vector<SessionSpec>& sessions() const {
    return sessions_;
  }
  [[nodiscard]] double total_throughput_mbps() const {
    return plan_.total_throughput_mbps();
  }
  /// VNFs currently alive (running + draining within their tau window).
  [[nodiscard]] int alive_vnfs() const;
  [[nodiscard]] int running_vnfs() const;
  [[nodiscard]] int draining_vnfs() const;
  [[nodiscard]] int vnfs_at(graph::NodeIdx v) const;
  /// Cumulative count of VM launches actually performed (reuse avoids them).
  [[nodiscard]] int vm_launches() const { return vm_launches_; }
  [[nodiscard]] int vm_reuses() const { return vm_reuses_; }

  [[nodiscard]] const std::vector<LoggedSignal>& signal_log() const {
    return signals_;
  }
  /// Forwarding table most recently pushed to a node (empty if none).
  [[nodiscard]] ForwardingTable forwarding_table(graph::NodeIdx node) const;
  /// Sessions whose current plan touches data center v.
  [[nodiscard]] std::set<coding::SessionId> sessions_using_dc(
      graph::NodeIdx v) const;
  /// Sessions whose current plan routes flow over edge e.
  [[nodiscard]] std::set<coding::SessionId> sessions_using_edge(
      graph::EdgeIdx e) const;

  /// Attach an observability hub (must outlive the controller): every
  /// emitted NC_* signal is counted per kind under
  /// "ctrl.signals_emitted.<KIND>" and recorded in the event trace.
  void set_obs(obs::Observability* obs) { obs_ = obs; }

 private:
  struct VnfPool {
    int running = 0;
    std::deque<double> draining;  // shutdown deadlines, soonest first
  };
  struct PendingBandwidth {
    double bin_bps, bout_bps;
    double since_s;
  };
  struct PendingDelay {
    double delay_s;
    double since_s;
  };

  /// What a re-solve may do with the live deployment: only grow it
  /// (scale-out), keep it as it is, or re-derive it (scale-in).
  enum class VnfRule { kFloor, kFixed, kFree };

  /// Re-solve (2) with every session outside `unfrozen` frozen at its
  /// flows in the current plan.
  [[nodiscard]] DeploymentPlan solve_for(
      const std::set<coding::SessionId>& unfrozen, VnfRule rule) const;
  [[nodiscard]] std::set<coding::SessionId> all_session_ids() const;
  [[nodiscard]] std::map<graph::NodeIdx, int> current_deployment() const;

  /// Install `next` as the active plan: adjust pools (reuse draining VNFs,
  /// launch, or begin draining), emit NC_* signals, push table updates.
  /// An infeasible plan leaves the active one in place.
  void apply_plan(DeploymentPlan next, double now_s);
  /// Install `a` if it is feasible and its objective beats `b`'s, else `b`.
  void apply_better(DeploymentPlan a, DeploymentPlan b, double now_s);
  void emit(double now_s, std::uint32_t target, Signal s);
  void apply_bandwidth_change(graph::NodeIdx v, const PendingBandwidth& pb,
                              double now_s);
  void apply_delay_change(graph::EdgeIdx e, const PendingDelay& pd,
                          double now_s);
  /// Re-solve with only `affected` sessions unfrozen and install the
  /// result; records the `resolve` trace event and counter.
  void resolve_after_failure(const std::set<coding::SessionId>& affected,
                             const char* cause, double now_s);

  graph::Topology topo_;
  Config cfg_;
  std::vector<SessionSpec> sessions_;
  DeploymentPlan plan_;
  std::map<graph::NodeIdx, VnfPool> pools_;
  std::map<graph::NodeIdx, PendingBandwidth> pending_bw_;
  std::map<graph::EdgeIdx, PendingDelay> pending_delay_;
  std::map<graph::NodeIdx, double> last_heartbeat_;
  std::set<graph::NodeIdx> down_nodes_;
  int resolves_ = 0;
  std::map<graph::NodeIdx, ForwardingTable> pushed_tables_;
  std::vector<LoggedSignal> signals_;
  obs::Observability* obs_ = nullptr;
  int vm_launches_ = 0;
  int vm_reuses_ = 0;
};

}  // namespace ncfn::ctrl
