#include "ctrl/controller.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ncfn::ctrl {

namespace {
constexpr double kObjEps = 1e-6;
// Algs. 1 and 2 react to a measured change of more than 5 % (rho1, rho2).
constexpr double kSignificantChange = 0.05;

bool changed_significantly(double old_v, double new_v) {
  if (old_v <= 0) return new_v > 0;
  return std::abs(new_v - old_v) / old_v > kSignificantChange;
}
}  // namespace

Controller::Controller(graph::Topology topo, const Config& cfg)
    : topo_(std::move(topo)), cfg_(cfg) {
  for (graph::NodeIdx v : topo_.data_centers()) pools_[v];  // default pools
}

DeploymentPlan Controller::solve_for(
    const std::set<coding::SessionId>& unfrozen, VnfRule rule) const {
  DeploymentProblem prob;
  prob.topo = &topo_;
  prob.sessions = sessions_;
  prob.alpha = cfg_.alpha;
  SolveOptions opts;
  for (const SessionSpec& s : sessions_) {
    if (unfrozen.count(s.id) == 0) opts.frozen_sessions.insert(s.id);
  }
  opts.previous = &plan_;
  if (rule == VnfRule::kFloor) opts.vnf_floor = current_deployment();
  if (rule == VnfRule::kFixed) opts.vnf_fixed = current_deployment();
  return solve_deployment(prob, opts);
}

std::set<coding::SessionId> Controller::all_session_ids() const {
  std::set<coding::SessionId> ids;
  for (const SessionSpec& s : sessions_) ids.insert(s.id);
  return ids;
}

std::set<coding::SessionId> Controller::sessions_using_dc(
    graph::NodeIdx v) const {
  std::set<coding::SessionId> out;
  for (std::size_t m = 0; m < plan_.session_ids.size(); ++m) {
    for (const auto& [e, rate] : plan_.edge_rate_mbps[m]) {
      const graph::EdgeInfo& ei = topo_.edge(e);
      if (ei.from == v || ei.to == v) {
        out.insert(plan_.session_ids[m]);
        break;
      }
    }
  }
  return out;
}

std::set<coding::SessionId> Controller::sessions_using_edge(
    graph::EdgeIdx e) const {
  std::set<coding::SessionId> out;
  for (std::size_t m = 0; m < plan_.session_ids.size(); ++m) {
    if (plan_.edge_rate_mbps[m].count(e) > 0) {
      out.insert(plan_.session_ids[m]);
    }
  }
  return out;
}

std::map<graph::NodeIdx, int> Controller::current_deployment() const {
  std::map<graph::NodeIdx, int> dep;
  for (const auto& [v, pool] : pools_) {
    const int n = pool.running + static_cast<int>(pool.draining.size());
    if (n > 0) dep[v] = n;
  }
  return dep;
}

int Controller::alive_vnfs() const {
  return running_vnfs() + draining_vnfs();
}
int Controller::running_vnfs() const {
  int n = 0;
  for (const auto& [v, pool] : pools_) n += pool.running;
  return n;
}
int Controller::draining_vnfs() const {
  int n = 0;
  for (const auto& [v, pool] : pools_) n += static_cast<int>(pool.draining.size());
  return n;
}
int Controller::vnfs_at(graph::NodeIdx v) const {
  auto it = pools_.find(v);
  if (it == pools_.end()) return 0;
  return it->second.running + static_cast<int>(it->second.draining.size());
}

void Controller::emit(double now_s, std::uint32_t target, Signal s) {
  if (obs_ != nullptr) {
    const char* kind = signal_name(s);
    obs_->metrics.counter(std::string("ctrl.signals_emitted.") + kind).inc();
    obs_->trace.signal(target, kind);
  }
  signals_.push_back(LoggedSignal{now_s, target, std::move(s)});
}

ForwardingTable Controller::forwarding_table(graph::NodeIdx node) const {
  auto it = pushed_tables_.find(node);
  return it == pushed_tables_.end() ? ForwardingTable{} : it->second;
}

void Controller::apply_plan(DeploymentPlan next, double now_s) {
  if (!next.feasible) return;  // keep the old plan; nothing to install

  // ---- Adjust per-DC VNF pools ----
  for (auto& [v, pool] : pools_) {
    const auto it = next.vnf_count.find(v);
    const int want = it == next.vnf_count.end() ? 0 : it->second;
    // Reuse draining VNFs first (cancel their pending shutdown).
    while (pool.running < want && !pool.draining.empty()) {
      pool.draining.pop_back();  // most recently drained: longest grace left
      ++pool.running;
      ++vm_reuses_;
    }
    if (pool.running < want) {
      const int launch = want - pool.running;
      emit(now_s, static_cast<std::uint32_t>(v),
           NcVnfStart{static_cast<std::uint32_t>(v),
                      static_cast<std::uint32_t>(launch)});
      pool.running = want;
      vm_launches_ += launch;
    } else if (pool.running > want) {
      // Excess VNFs: NC_VNF_END now, actual shutdown after tau.
      const int drain = pool.running - want;
      for (int i = 0; i < drain; ++i) {
        pool.draining.push_back(now_s + cfg_.tau_s);
        emit(now_s, static_cast<std::uint32_t>(v),
             NcVnfEnd{static_cast<std::uint32_t>(v), cfg_.tau_s});
      }
      std::sort(pool.draining.begin(), pool.draining.end());
      pool.running = want;
    }
  }

  // ---- Push forwarding-table updates where routing changed ----
  // Relay tables for every node that forwards traffic in the new plan.
  std::map<graph::NodeIdx, ForwardingTable> tables;
  for (std::size_t m = 0; m < next.session_ids.size(); ++m) {
    const coding::SessionId sid = next.session_ids[m];
    const std::uint16_t port = session_data_port(sid);
    for (const auto& [e, rate] : next.edge_rate_mbps[m]) {
      const graph::EdgeInfo& ei = topo_.edge(e);
      (void)rate;
      auto& tab = tables[ei.from];
      std::vector<NextHop> hops;
      if (const auto* existing = tab.find(sid)) hops = *existing;
      hops.push_back(NextHop{static_cast<std::uint32_t>(ei.to), port});
      std::sort(hops.begin(), hops.end());
      tab.set(sid, std::move(hops));
    }
  }
  for (auto& [node, tab] : tables) {
    auto it = pushed_tables_.find(node);
    if (it != pushed_tables_.end() && it->second == tab) continue;
    emit(now_s, static_cast<std::uint32_t>(node), NcForwardTab{tab});
    pushed_tables_[node] = std::move(tab);
  }
  // Nodes that previously had tables but now route nothing get an empty one.
  for (auto& [node, tab] : pushed_tables_) {
    if (tables.count(node) == 0 && tab.size() > 0) {
      emit(now_s, static_cast<std::uint32_t>(node),
           NcForwardTab{ForwardingTable{}});
      tab = ForwardingTable{};
    }
  }

  plan_ = std::move(next);
}

void Controller::apply_better(DeploymentPlan a, DeploymentPlan b,
                              double now_s) {
  const bool a_wins =
      a.feasible && (!b.feasible || a.objective > b.objective + kObjEps);
  apply_plan(a_wins ? std::move(a) : std::move(b), now_s);
}

// ---------------- Alg. 3: session / receiver churn ----------------

bool Controller::add_session(const SessionSpec& spec, double now_s) {
  sessions_.push_back(spec);

  // Solve for the new session only, on top of the current deployment and
  // the existing sessions' flows.
  DeploymentPlan next = solve_for({spec.id}, VnfRule::kFloor);
  if (!next.feasible) {
    sessions_.pop_back();
    return false;
  }
  // A fixed-rate session that cannot reach all receivers is rejected.
  if (spec.fixed_rate_mbps) {
    const auto m = next.session_index(spec.id);
    if (!m || next.lambda_mbps[*m] + kObjEps < *spec.fixed_rate_mbps) {
      sessions_.pop_back();
      return false;
    }
  }
  // Settings + start signals for the admitted session's endpoints.
  NcSettings settings;
  settings.sessions.push_back(SessionSetting{
      spec.id, VnfRole::kRecode, session_data_port(spec.id)});
  emit(now_s, static_cast<std::uint32_t>(spec.source), settings);
  emit(now_s, static_cast<std::uint32_t>(spec.source), NcStart{spec.id});
  apply_plan(std::move(next), now_s);
  return true;
}

void Controller::remove_session(coding::SessionId id, double now_s) {
  auto it = std::find_if(sessions_.begin(), sessions_.end(),
                         [&](const SessionSpec& s) { return s.id == id; });
  if (it == sessions_.end()) return;
  sessions_.erase(it);

  if (sessions_.empty()) {
    apply_plan(solve_for({}, VnfRule::kFree), now_s);
    return;
  }
  // Keep the deployment and let the remaining flows grow into the freed
  // capacity, or keep the remaining flows and shrink the deployment.
  DeploymentPlan grow = solve_for(all_session_ids(), VnfRule::kFixed);
  apply_better(std::move(grow), solve_for({}, VnfRule::kFree), now_s);
}

bool Controller::add_receiver(coding::SessionId id, graph::NodeIdx receiver,
                              double now_s) {
  auto it = std::find_if(sessions_.begin(), sessions_.end(),
                         [&](const SessionSpec& s) { return s.id == id; });
  if (it == sessions_.end()) return false;
  it->receivers.push_back(receiver);

  DeploymentPlan next = solve_for({id}, VnfRule::kFloor);
  if (!next.feasible) {
    it->receivers.pop_back();
    return false;
  }
  apply_plan(std::move(next), now_s);
  return true;
}

void Controller::remove_receiver(coding::SessionId id,
                                 graph::NodeIdx receiver, double now_s) {
  auto it = std::find_if(sessions_.begin(), sessions_.end(),
                         [&](const SessionSpec& s) { return s.id == id; });
  if (it == sessions_.end()) return;
  auto rit = std::find(it->receivers.begin(), it->receivers.end(), receiver);
  if (rit == it->receivers.end()) return;
  it->receivers.erase(rit);

  if (it->receivers.empty()) {
    remove_session(id, now_s);
    return;
  }
  // Re-solve the affected session with the shrunk receiver set; the
  // deployment may shrink (VNFs drain via tau).
  apply_plan(solve_for({id}, VnfRule::kFree), now_s);
}

// ---------------- Alg. 1: bandwidth variation ----------------

void Controller::report_bandwidth(graph::NodeIdx v, double bin_bps,
                                  double bout_bps, double now_s) {
  const graph::NodeInfo& ni = topo_.node(v);
  const bool significant = changed_significantly(ni.bin_bps, bin_bps) ||
                           changed_significantly(ni.bout_bps, bout_bps);
  if (!significant) {
    pending_bw_.erase(v);  // brief spike ended
    return;
  }
  auto it = pending_bw_.find(v);
  if (it == pending_bw_.end()) {
    pending_bw_[v] = PendingBandwidth{bin_bps, bout_bps, now_s};
    return;
  }
  it->second.bin_bps = bin_bps;
  it->second.bout_bps = bout_bps;
  if (now_s - it->second.since_s >= cfg_.tau1_s) {
    const PendingBandwidth pb = it->second;
    pending_bw_.erase(it);
    apply_bandwidth_change(v, pb, now_s);
  }
}

void Controller::apply_bandwidth_change(graph::NodeIdx v,
                                        const PendingBandwidth& pb,
                                        double now_s) {
  topo_.node(v).bin_bps = pb.bin_bps;
  topo_.node(v).bout_bps = pb.bout_bps;

  // Only sessions touching the affected data center may change: scale
  // out on top of the current deployment, unless keeping it fixed and
  // rerouting/shrinking flows does as well.
  const std::set<coding::SessionId> affected = sessions_using_dc(v);
  DeploymentPlan grow = solve_for(affected, VnfRule::kFloor);
  apply_better(std::move(grow), solve_for(affected, VnfRule::kFixed), now_s);
}

// ---------------- Alg. 2: delay changes ----------------

void Controller::report_delay(graph::EdgeIdx e, double delay_s,
                              double now_s) {
  const graph::EdgeInfo& ei = topo_.edge(e);
  if (!changed_significantly(ei.delay_s, delay_s)) {
    pending_delay_.erase(e);
    return;
  }
  auto it = pending_delay_.find(e);
  if (it == pending_delay_.end()) {
    pending_delay_[e] = PendingDelay{delay_s, now_s};
    return;
  }
  it->second.delay_s = delay_s;
  if (now_s - it->second.since_s >= cfg_.tau2_s) {
    const PendingDelay pd = it->second;
    pending_delay_.erase(it);
    apply_delay_change(e, pd, now_s);
  }
}

void Controller::apply_delay_change(graph::EdgeIdx e, const PendingDelay& pd,
                                    double now_s) {
  const bool increased = pd.delay_s > topo_.edge(e).delay_s;
  topo_.edge(e).delay_s = pd.delay_s;
  // An increase shrinks the path sets of the sessions routed over e only;
  // a decrease expands every session's, so all of them may benefit.
  apply_plan(solve_for(increased ? sessions_using_edge(e) : all_session_ids(),
                       VnfRule::kFloor),
             now_s);
}

// ---------------- failure handling ----------------

void Controller::resolve_after_failure(
    const std::set<coding::SessionId>& affected, const char* cause,
    double now_s) {
  ++resolves_;
  if (obs_ != nullptr) {
    obs_->metrics.counter("ctrl.resolves").inc();
    obs_->trace.resolve(cause, affected.size());
  }
  apply_plan(solve_for(affected, VnfRule::kFloor), now_s);
}

bool Controller::refresh_edge(graph::EdgeIdx e) {
  graph::EdgeInfo& ei = topo_.edge(e);
  const bool usable = down_edges_.count(e) == 0 &&
                      down_nodes_.count(ei.from) == 0 &&
                      down_nodes_.count(ei.to) == 0;
  if (ei.up == usable) return false;
  ei.up = usable;
  return true;
}

void Controller::report_link_state(graph::EdgeIdx e, bool up, double now_s) {
  if (up) {
    down_edges_.erase(e);
  } else {
    down_edges_.insert(e);
  }
  if (!refresh_edge(e)) return;
  if (!up) {
    // Only sessions routed over the failed edge need new flows; the
    // feasible-path sets they re-solve against exclude the edge now.
    resolve_after_failure(sessions_using_edge(e), "link_down", now_s);
  } else {
    // Recovery expands every session's path set, like a delay decrease.
    resolve_after_failure(all_session_ids(), "link_up", now_s);
  }
}

void Controller::report_node_state(graph::NodeIdx v, bool up, double now_s) {
  const bool was_down = down_nodes_.count(v) > 0;
  if (up != was_down) return;  // no transition
  std::set<coding::SessionId> affected;
  if (!up) {
    down_nodes_.insert(v);
    affected = sessions_using_dc(v);
    // The DC's VMs crashed with the machine; nothing drains gracefully.
    auto it = pools_.find(v);
    if (it != pools_.end()) {
      it->second.running = 0;
      it->second.draining.clear();
    }
  } else {
    down_nodes_.erase(v);
    affected = all_session_ids();
  }
  for (graph::EdgeIdx e = 0; e < topo_.edge_count(); ++e) {
    const graph::EdgeInfo& ei = topo_.edge(e);
    if (ei.from == v || ei.to == v) refresh_edge(e);
  }
  resolve_after_failure(affected, up ? "node_up" : "node_down", now_s);
}

void Controller::heartbeat(graph::NodeIdx v, double now_s) {
  last_heartbeat_[v] = now_s;
  if (down_nodes_.count(v) > 0) report_node_state(v, true, now_s);
}

// ---------------- housekeeping ----------------

void Controller::tick(double now_s) {
  // Daemon liveness: a DC whose heartbeat went stale is declared down.
  if (cfg_.heartbeat_timeout_s > 0) {
    for (const auto& [v, last] : last_heartbeat_) {
      if (down_nodes_.count(v) == 0 &&
          now_s - last >= cfg_.heartbeat_timeout_s) {
        report_node_state(v, false, now_s);
      }
    }
  }
  // Apply pending measurement changes whose persistence requirement has
  // been met even if no fresh report arrived exactly at the deadline.
  for (auto it = pending_bw_.begin(); it != pending_bw_.end();) {
    if (now_s - it->second.since_s >= cfg_.tau1_s) {
      const auto v = it->first;
      const PendingBandwidth pb = it->second;
      it = pending_bw_.erase(it);
      apply_bandwidth_change(v, pb, now_s);
    } else {
      ++it;
    }
  }
  for (auto it = pending_delay_.begin(); it != pending_delay_.end();) {
    if (now_s - it->second.since_s >= cfg_.tau2_s) {
      const auto e = it->first;
      const PendingDelay pd = it->second;
      it = pending_delay_.erase(it);
      apply_delay_change(e, pd, now_s);
    } else {
      ++it;
    }
  }
  // Expire draining VNFs whose grace period ended.
  for (auto& [v, pool] : pools_) {
    while (!pool.draining.empty() && pool.draining.front() <= now_s) {
      pool.draining.pop_front();
    }
  }
}

}  // namespace ncfn::ctrl
