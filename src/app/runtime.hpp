// End-to-end session orchestration: builds a simulated network from a
// controller topology, instantiates coding functions per the deployment
// plan, and wires sources and receivers — the programmatic equivalent of
// the paper's prototype gluing the controller's decisions onto EC2/Linode
// VMs.
//
// Node indices in the controller topology map 1:1 onto simulator node ids
// (SimNet adds nodes in topology order), so plans translate directly into
// forwarding configuration.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "app/baseline.hpp"
#include "app/provider.hpp"
#include "app/receiver.hpp"
#include "app/source.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/problem.hpp"
#include "graph/topology.hpp"
#include "netsim/network.hpp"
#include "obs/obs.hpp"
#include "vnf/coding_vnf.hpp"

namespace ncfn::app {

struct SimNetConfig {
  std::uint32_t seed = 1;
};

/// The simulated "cloud": one simulator node per topology node, one link
/// per topology edge, and at most one coding-function object per node
/// (shared by all sessions relayed there).
class SimNet {
 public:
  explicit SimNet(const graph::Topology& topo,
                  const SimNetConfig& cfg = {});

  /// Teardown audit (obs::audit_enabled()): every VNF packet-pool row
  /// must come back once the VNFs are gone, and every link's packet
  /// accounting must conserve (offered = delivered + dropped +
  /// in-flight). Violations abort via obs::audit_fail.
  ~SimNet();

  SimNet(const SimNet&) = delete;
  SimNet& operator=(const SimNet&) = delete;

  [[nodiscard]] netsim::Network& net() { return net_; }
  /// The network's observability hub, shared by every layer of this
  /// simulated cloud. Metrics are always collected; the event trace is
  /// off until trace().enable() — both stamped with the simulator clock.
  [[nodiscard]] obs::Observability& obs() { return *net_.obs(); }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return obs().metrics; }
  [[nodiscard]] obs::EventTrace& trace() { return obs().trace; }
  [[nodiscard]] const graph::Topology& topo() const { return *topo_; }
  [[nodiscard]] netsim::NodeId node(graph::NodeIdx i) const {
    return static_cast<netsim::NodeId>(i);
  }
  [[nodiscard]] netsim::Link* link(graph::EdgeIdx e);

  /// The shared coding function at a node, created on first use.
  vnf::CodingVnf& vnf_at(graph::NodeIdx node, const vnf::VnfConfig& cfg);
  [[nodiscard]] vnf::CodingVnf* find_vnf(graph::NodeIdx node);

 private:
  const graph::Topology* topo_;
  netsim::Network net_;
  std::map<graph::NodeIdx, std::unique_ptr<vnf::CodingVnf>> vnfs_;
};

/// Per-session wiring options shared by both transport modes.
struct SessionWiring {
  int redundancy = 0;  // NC0/NC1/NC2
  double repair_timeout_s = 0.25;
  double sample_interval_s = 1.0;
  /// Snap the plan's flows to whole packets per generation before wiring
  /// (ctrl::quantize_plan) — fractional per-generation quanta stall the
  /// decoder on a fraction of generations. Costs at most a few quanta of
  /// planned rate.
  bool quantize = true;
  vnf::VnfConfig vnf;  // processing model (params set from the session)
  std::uint32_t seed = 99;
};

/// What every multicast session has, whichever way it carries its
/// packets: one source and its receivers, wired from the spec.
class MulticastSession {
 public:
  void start();

  [[nodiscard]] McSource& source() { return *source_; }
  [[nodiscard]] McReceiver& receiver(std::size_t k) { return *receivers_.at(k); }
  [[nodiscard]] std::size_t receiver_count() const { return receivers_.size(); }
  /// Session goodput = min over receivers (the paper's multicast rate).
  [[nodiscard]] double session_goodput_mbps() const;
  [[nodiscard]] bool all_complete() const;

 protected:
  MulticastSession() = default;

  /// Build the source at spec.source, pacing at `lambda_mbps` (floored
  /// at 1e-3) with `redundancy` extra packets per generation.
  void add_source(SimNet& sim, const ctrl::SessionSpec& spec,
                  const GenerationProvider& provider,
                  const SessionWiring& wiring, int redundancy,
                  double lambda_mbps);
  /// Build one receiver, with its own decode function, per spec receiver.
  void add_receivers(SimNet& sim, const ctrl::SessionSpec& spec,
                     const GenerationProvider& provider,
                     const SessionWiring& wiring);

  std::unique_ptr<McSource> source_;
  std::vector<std::unique_ptr<McReceiver>> receivers_;
};

/// A network-coded multicast session instantiated from a deployment plan.
class NcMulticastSession : public MulticastSession {
 public:
  NcMulticastSession(SimNet& sim, const ctrl::DeploymentPlan& plan,
                     std::size_t plan_index, const ctrl::SessionSpec& spec,
                     const GenerationProvider& provider,
                     const SessionWiring& wiring);

  /// Re-wire the *live* session onto a new deployment plan (the
  /// controller's re-solve after a failure): the source is re-steered onto
  /// the new out-edges, relays gain/lose forwarding entries (a relay
  /// dropped from the plan stops forwarding this session), and every
  /// receiver's recovery clock starts (mark_disruption). Generation
  /// progress is preserved — the transfer continues, it does not restart.
  void rewire(const ctrl::DeploymentPlan& raw_plan, std::size_t plan_index);

 private:
  [[nodiscard]] ctrl::DeploymentPlan prepared(
      const ctrl::DeploymentPlan& raw_plan) const;
  [[nodiscard]] std::vector<std::pair<ctrl::NextHop, double>> source_hops(
      const ctrl::DeploymentPlan& plan, std::size_t m) const;
  void wire_relays(const ctrl::DeploymentPlan& plan, std::size_t m);

  SimNet* sim_ = nullptr;
  ctrl::SessionSpec spec_;
  SessionWiring wiring_;
  std::set<graph::NodeIdx> relays_;  // nodes currently forwarding/recoding
};

/// A routing-only (Non-NC) session over packed multicast trees.
class TreeMulticastSession : public MulticastSession {
 public:
  TreeMulticastSession(SimNet& sim, const TreePacking& packing,
                       const ctrl::SessionSpec& spec,
                       const GenerationProvider& provider,
                       const SessionWiring& wiring);
};

/// Feedback port for a session's source.
[[nodiscard]] inline netsim::Port session_feedback_port(coding::SessionId id) {
  return static_cast<netsim::Port>(40000 + id % 20000);
}

}  // namespace ncfn::app
