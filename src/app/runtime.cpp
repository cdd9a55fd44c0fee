#include "app/runtime.hpp"

#include "ctrl/quantize.hpp"
#include "obs/audit.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>
#include <string>

namespace ncfn::app {

namespace {
/// Capacity given to topology edges with infinite capacity_bps.
constexpr double kUncappedEdgeBps = 10e9;
/// Egress queue limit of every topology link.
constexpr std::size_t kLinkQueuePackets = 1024;
}  // namespace

SimNet::SimNet(const graph::Topology& topo, const SimNetConfig& cfg)
    : topo_(&topo), net_(cfg.seed) {
  for (int i = 0; i < topo.node_count(); ++i) {
    const netsim::NodeId id = net_.add_node(topo.node(i).name);
    assert(id == static_cast<netsim::NodeId>(i));
    (void)id;
  }
  for (int e = 0; e < topo.edge_count(); ++e) {
    const graph::EdgeInfo& ei = topo.edge(e);
    netsim::LinkConfig lc;
    lc.capacity_bps =
        std::isfinite(ei.capacity_bps) ? ei.capacity_bps : kUncappedEdgeBps;
    lc.prop_delay = ei.delay_s;
    lc.queue_packets = kLinkQueuePackets;
    net_.add_link(static_cast<netsim::NodeId>(ei.from),
                  static_cast<netsim::NodeId>(ei.to), lc);
  }
}

SimNet::~SimNet() {
  if (!obs::audit_enabled()) return;

  // Keep a handle on each VNF's packet pool (cheap shared_ptr copies),
  // destroy the VNFs — which releases every decoder pivot row — then
  // check that nothing is still holding pool storage.
  std::vector<std::pair<graph::NodeIdx, coding::PacketPool>> pools;
  pools.reserve(vnfs_.size());
  for (const auto& [node, vnf] : vnfs_) {
    pools.emplace_back(node, vnf->buffer().pool());
  }
  vnfs_.clear();

  std::vector<std::string> violations;
  for (const auto& [node, pool] : pools) {
    const std::uint64_t out = pool.stats().outstanding();
    if (out != 0) {
      violations.push_back("vnf node " + std::to_string(node) + ": " +
                           std::to_string(out) +
                           " pool row(s) never returned");
    }
  }
  if (!violations.empty()) obs::audit_fail("PacketPool", violations);

  const std::vector<std::string> link_violations = net_.audit_conservation();
  if (!link_violations.empty()) obs::audit_fail("Network", link_violations);
}

netsim::Link* SimNet::link(graph::EdgeIdx e) {
  const graph::EdgeInfo& ei = topo_->edge(e);
  return net_.link(static_cast<netsim::NodeId>(ei.from),
                   static_cast<netsim::NodeId>(ei.to));
}

vnf::CodingVnf& SimNet::vnf_at(graph::NodeIdx node,
                               const vnf::VnfConfig& cfg) {
  auto it = vnfs_.find(node);
  if (it == vnfs_.end()) {
    it = vnfs_
             .emplace(node, std::make_unique<vnf::CodingVnf>(
                                net_, static_cast<netsim::NodeId>(node), cfg))
             .first;
  }
  return *it->second;
}

vnf::CodingVnf* SimNet::find_vnf(graph::NodeIdx node) {
  auto it = vnfs_.find(node);
  return it == vnfs_.end() ? nullptr : it->second.get();
}

void MulticastSession::add_source(SimNet& sim, const ctrl::SessionSpec& spec,
                                  const GenerationProvider& provider,
                                  const SessionWiring& wiring, int redundancy,
                                  double lambda_mbps) {
  SourceConfig scfg;
  scfg.session = spec.id;
  scfg.params = wiring.vnf.params;
  scfg.redundancy = redundancy;
  scfg.lambda_mbps = std::max(lambda_mbps, 1e-3);
  scfg.data_port = ctrl::session_data_port(spec.id);
  scfg.feedback_port = session_feedback_port(spec.id);
  scfg.seed = wiring.seed;
  source_ = std::make_unique<McSource>(sim.net(), sim.node(spec.source),
                                       provider, scfg);
}

void MulticastSession::add_receivers(SimNet& sim,
                                     const ctrl::SessionSpec& spec,
                                     const GenerationProvider& provider,
                                     const SessionWiring& wiring) {
  for (graph::NodeIdx r : spec.receivers) {
    ReceiverConfig rcfg;
    rcfg.session = spec.id;
    rcfg.data_port = ctrl::session_data_port(spec.id);
    rcfg.source_node = static_cast<std::uint32_t>(sim.node(spec.source));
    rcfg.source_feedback_port = session_feedback_port(spec.id);
    rcfg.repair_timeout_s = wiring.repair_timeout_s;
    rcfg.vnf = wiring.vnf;
    rcfg.vnf.seed = wiring.seed + static_cast<std::uint32_t>(r) * 733u + 5;
    receivers_.push_back(std::make_unique<McReceiver>(
        sim.net(), sim.node(r), provider, rcfg));
  }
}

void MulticastSession::start() {
  for (auto& r : receivers_) r->start();
  source_->start();
}

double MulticastSession::session_goodput_mbps() const {
  double mn = std::numeric_limits<double>::infinity();
  for (const auto& r : receivers_) mn = std::min(mn, r->goodput_mbps());
  return receivers_.empty() ? 0.0 : mn;
}

bool MulticastSession::all_complete() const {
  return std::all_of(receivers_.begin(), receivers_.end(),
                     [](const auto& r) { return r->complete(); });
}

ctrl::DeploymentPlan NcMulticastSession::prepared(
    const ctrl::DeploymentPlan& raw_plan) const {
  ctrl::DeploymentPlan plan = raw_plan;
  if (wiring_.quantize) {
    ctrl::quantize_plan(plan, wiring_.vnf.params.generation_blocks);
  }
  return plan;
}

std::vector<std::pair<ctrl::NextHop, double>> NcMulticastSession::source_hops(
    const ctrl::DeploymentPlan& plan, std::size_t m) const {
  const netsim::Port data_port = ctrl::session_data_port(spec_.id);
  std::vector<std::pair<ctrl::NextHop, double>> hops;
  for (const auto& [to, rate] : plan.next_hops(sim_->topo(), m, spec_.source)) {
    hops.emplace_back(
        ctrl::NextHop{static_cast<std::uint32_t>(sim_->node(to)), data_port},
        rate);
  }
  return hops;
}

void NcMulticastSession::wire_relays(const ctrl::DeploymentPlan& plan,
                                     std::size_t m) {
  const graph::Topology& topo = sim_->topo();
  const netsim::Port data_port = ctrl::session_data_port(spec_.id);

  // ---- Relays: every DC carrying this session's flow ----
  std::set<graph::NodeIdx> relay_nodes;
  std::map<graph::NodeIdx, double> in_rate;
  std::map<graph::NodeIdx, int> in_edges;
  for (const auto& [e, rate] : plan.edge_rate_mbps.at(m)) {
    const graph::EdgeInfo& ei = topo.edge(e);
    if (ei.to != spec_.source &&
        topo.node(ei.to).kind == graph::NodeKind::kDataCenter) {
      relay_nodes.insert(ei.to);
      in_rate[ei.to] += rate;
      in_edges[ei.to] += 1;
    }
  }
  for (graph::NodeIdx v : relay_nodes) {
    vnf::VnfConfig vcfg = wiring_.vnf;
    vcfg.seed = wiring_.seed + static_cast<std::uint32_t>(v) * 131u + 1;
    vnf::CodingVnf& relay = sim_->vnf_at(v, vcfg);
    const auto it = plan.vnf_count.find(v);
    const int lanes = it == plan.vnf_count.end() ? 1 : std::max(1, it->second);
    if (static_cast<std::size_t>(lanes) > relay.lanes()) {
      relay.set_lanes(static_cast<std::size_t>(lanes));
    }
    std::vector<vnf::NextHopRate> hops;
    bool thins = false;  // some out-hop carries less than the inflow
    for (const auto& [to, rate] : plan.next_hops(topo, m, v)) {
      const double share = rate / std::max(in_rate[v], 1e-9);
      if (share < 0.999) thins = true;
      hops.push_back(vnf::NextHopRate{
          ctrl::NextHop{static_cast<std::uint32_t>(sim_->node(to)), data_port},
          share});
    }
    // Coding is needed where multiple flows of the session merge
    // (Sec. IV.A: "direct forwarding is sufficient" otherwise) — and also
    // wherever the relay thins the stream: forwarding would send the SAME
    // packet subset down every branch, collapsing the downstream branches
    // onto one subspace, whereas recoding keeps each branch's packets
    // independent draws from the relay's span.
    const ctrl::VnfRole role =
        in_edges[v] >= 2 || thins ? ctrl::VnfRole::kRecode
                                  : ctrl::VnfRole::kForward;
    relay.configure_session(spec_.id, role, data_port);
    relay.set_next_hops(spec_.id, std::move(hops));
  }

  // Relays dropped by the new plan stop forwarding this session — their
  // node (or the path to it) failed, or the re-solve routed around them.
  for (graph::NodeIdx v : relays_) {
    if (relay_nodes.count(v) > 0) continue;
    if (vnf::CodingVnf* old_relay = sim_->find_vnf(v)) {
      old_relay->set_next_hops(spec_.id, {});
    }
  }
  relays_ = std::move(relay_nodes);
}

NcMulticastSession::NcMulticastSession(SimNet& sim,
                                       const ctrl::DeploymentPlan& raw_plan,
                                       std::size_t m,
                                       const ctrl::SessionSpec& spec,
                                       const GenerationProvider& provider,
                                       const SessionWiring& wiring)
    : sim_(&sim), spec_(spec), wiring_(wiring) {
  const ctrl::DeploymentPlan plan = prepared(raw_plan);
  add_source(sim, spec, provider, wiring, wiring.redundancy,
             plan.lambda_mbps.at(m));
  source_->configure_hops(source_hops(plan, m));
  wire_relays(plan, m);
  add_receivers(sim, spec, provider, wiring);
}

void NcMulticastSession::rewire(const ctrl::DeploymentPlan& raw_plan,
                                std::size_t m) {
  const ctrl::DeploymentPlan plan = prepared(raw_plan);
  source_->reconfigure_hops(source_hops(plan, m),
                            std::max(plan.lambda_mbps.at(m), 1e-3));
  wire_relays(plan, m);
  for (auto& r : receivers_) r->mark_disruption();
}

TreeMulticastSession::TreeMulticastSession(SimNet& sim,
                                           const TreePacking& packing,
                                           const ctrl::SessionSpec& spec,
                                           const GenerationProvider& provider,
                                           const SessionWiring& wiring) {
  const graph::Topology& topo = sim.topo();
  const netsim::Port data_port = ctrl::session_data_port(spec.id);

  double total_rate = 0.0;
  for (const MulticastTree& t : packing.trees) total_rate += t.rate_mbps;
  // Routing only: no coded redundancy.
  add_source(sim, spec, provider, wiring, 0, total_rate);
  source_->configure_trees(topo, packing.trees);

  // Relays: every interior node with out-edges in some tree.
  const auto schedule = tree_schedule(packing.trees);
  std::set<graph::NodeIdx> relay_nodes;
  for (const MulticastTree& t : packing.trees) {
    for (graph::EdgeIdx e : t.edges) {
      const graph::NodeIdx from = topo.edge(e).from;
      if (from != spec.source) relay_nodes.insert(from);
    }
  }
  for (graph::NodeIdx v : relay_nodes) {
    vnf::VnfConfig vcfg = wiring.vnf;
    vcfg.seed = wiring.seed + static_cast<std::uint32_t>(v) * 131u + 1;
    vnf::CodingVnf& relay = sim.vnf_at(v, vcfg);
    relay.configure_session(spec.id, ctrl::VnfRole::kForward, data_port);
    vnf::TreeRouting routing;
    routing.schedule = schedule;
    routing.hops_per_tree.resize(packing.trees.size());
    for (std::size_t j = 0; j < packing.trees.size(); ++j) {
      for (graph::NodeIdx to : packing.trees[j].next_hops(topo, v)) {
        routing.hops_per_tree[j].push_back(ctrl::NextHop{
            static_cast<std::uint32_t>(sim.node(to)), data_port});
      }
    }
    relay.set_tree_routing(spec.id, std::move(routing));
  }
  add_receivers(sim, spec, provider, wiring);
}

}  // namespace ncfn::app
