#include "app/shard.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "netsim/loss.hpp"
#include "netsim/seedstream.hpp"
#include "obs/merge.hpp"
#include "vnf/daemon.hpp"

namespace ncfn::app {

namespace {

std::size_t uf_find(std::vector<std::size_t>& parent, std::size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

void uf_union(std::vector<std::size_t>& parent, std::size_t a,
              std::size_t b) {
  a = uf_find(parent, a);
  b = uf_find(parent, b);
  // Lower index wins the root, so group identity is stable under
  // session declaration order alone.
  if (a == b) return;
  if (a < b) {
    parent[b] = a;
  } else {
    parent[a] = b;
  }
}

/// Every topology node session m's traffic can touch: its endpoints plus
/// both endpoints of every edge its plan routes flow over.
std::vector<graph::NodeIdx> session_nodes(const graph::Topology& topo,
                                          const ctrl::DeploymentPlan& plan,
                                          const ctrl::SessionSpec& spec,
                                          std::size_t m) {
  std::vector<graph::NodeIdx> nodes;
  nodes.push_back(spec.source);
  nodes.insert(nodes.end(), spec.receivers.begin(), spec.receivers.end());
  if (m < plan.edge_rate_mbps.size()) {
    for (const auto& [e, rate] : plan.edge_rate_mbps[m]) {
      const graph::EdgeInfo& ei = topo.edge(e);
      nodes.push_back(ei.from);
      nodes.push_back(ei.to);
    }
  }
  return nodes;
}

bool has_faults(const Scenario& s) {
  return !s.failures.empty() || !s.crashes.empty();
}

/// Every session in one shard: a scenario with fail/crash lines, whose
/// live controller re-solves across all its sessions.
ShardPlan one_shard(std::size_t sessions) {
  ShardPlan out;
  out.session_shard.assign(sessions, 0);
  out.shard_sessions.emplace_back(sessions);
  std::iota(out.shard_sessions[0].begin(), out.shard_sessions[0].end(), 0);
  return out;
}

}  // namespace

ShardPlan partition_sessions(const graph::Topology& topo,
                             const ctrl::DeploymentPlan& plan,
                             const std::vector<ctrl::SessionSpec>& sessions) {
  const std::size_t n = sessions.size();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);

  // First session seen at each node claims it; later sessions touching
  // the node union with the claimant. Transitive by union-find.
  std::map<graph::NodeIdx, std::size_t> claimant;
  for (std::size_t m = 0; m < n; ++m) {
    for (graph::NodeIdx v : session_nodes(topo, plan, sessions[m], m)) {
      auto [it, inserted] = claimant.emplace(v, m);
      if (!inserted) uf_union(parent, it->second, m);
    }
  }

  ShardPlan out;
  out.session_shard.assign(n, 0);
  std::map<std::size_t, std::size_t> root_to_shard;  // ordered by root = min m
  for (std::size_t m = 0; m < n; ++m) {
    const std::size_t root = uf_find(parent, m);
    auto [it, inserted] = root_to_shard.emplace(root, out.shard_sessions.size());
    if (inserted) out.shard_sessions.emplace_back();
    out.session_shard[m] = it->second;
    out.shard_sessions[it->second].push_back(m);
  }
  return out;
}

ScenarioRun::ScenarioRun(const Scenario& scenario,
                         const ctrl::DeploymentPlan& plan,
                         const RunOptions& opts)
    : scenario_(&scenario),
      plan_(&plan),
      opts_(opts),
      parts_(has_faults(scenario)
                 ? one_shard(scenario.sessions.size())
                 : partition_sessions(scenario.topo, plan, scenario.sessions)),
      pool_(opts.workers) {}

std::unique_ptr<SimShard> ScenarioRun::build_shard(std::size_t k) const {
  auto shard = std::make_unique<SimShard>();
  // The lane running job k owns the freshly allocated shard outright
  // until run() publishes it into shards_[k].
  shard->owner.assert_held();
  SimNetConfig scfg;
  // The shard's network RNG (jitter, probe noise, loss draws) is a
  // stream split from the root seed by shard index — never by worker.
  scfg.seed = netsim::rng_stream_seed(opts_.seed, k);
  shard->sim = std::make_unique<SimNet>(scenario_->topo, scfg);
  if (opts_.trace) shard->sim->trace().enable();
  shard->sim->metrics().counter("mt.shards").inc();

  if (opts_.loss > 0) {
    for (int e = 0; e < scenario_->topo.edge_count(); ++e) {
      const auto& ei = scenario_->topo.edge(e);
      if (scenario_->topo.node(ei.from).kind == graph::NodeKind::kDataCenter &&
          scenario_->topo.node(ei.to).kind == graph::NodeKind::kDataCenter) {
        shard->sim->link(e)->set_loss_model(
            std::make_unique<netsim::UniformLoss>(opts_.loss));
      }
    }
  }

  coding::CodingParams params;
  for (const std::size_t m : parts_.shard_sessions[k]) {
    // Session content and wiring seeds depend on the global session
    // index, so regrouping sessions into shards never changes what a
    // session sends.
    const double lambda = plan_->lambda_mbps[m];
    shard->providers.push_back(std::make_unique<SyntheticProvider>(
        opts_.seed + m,
        static_cast<std::size_t>(std::max(lambda, 1.0) * 1e6 / 8 *
                                 (opts_.duration_s + 5)),
        params));
    SessionWiring wiring;
    wiring.vnf.params = params;
    wiring.vnf.max_batch = scenario_->max_batch;
    wiring.redundancy = opts_.redundancy;
    wiring.seed = opts_.seed + static_cast<std::uint32_t>(m) * 101;
    shard->sessions.push_back(std::make_unique<NcMulticastSession>(
        *shard->sim, *plan_, m, scenario_->sessions[m],
        *shard->providers.back(), wiring));
    for (std::size_t r = 0; r < shard->sessions.back()->receiver_count();
         ++r) {
      shard->sessions.back()->receiver(r).set_verify(
          shard->providers.back().get());
    }
    shard->session_index.push_back(m);
  }
  if (has_faults(*scenario_)) schedule_faults(*shard);
  for (auto& s : shard->sessions) s->start();
  return shard;
}

void ScenarioRun::schedule_faults(SimShard& shard) const {
  // Called by build_shard on the lane that owns the shard. The shard
  // holds every session (one_shard), so local index == scenario index.
  shard.owner.assert_held();
  const graph::Topology& topo = scenario_->topo;
  const std::vector<ctrl::SessionSpec>& specs = scenario_->sessions;
  ctrl::Controller::Config ccfg;
  ccfg.alpha = scenario_->alpha;
  shard.controller = std::make_unique<ctrl::Controller>(topo, ccfg);
  shard.controller->set_obs(&shard.sim->obs());
  for (const ctrl::SessionSpec& spec : specs) {
    shard.controller->add_session(spec, 0.0);
  }

  // Every handler below is a simulator event: it runs inside run_until,
  // on the lane that owns the shard. Sessions are found in the live plan
  // by id; one the controller did not admit keeps its initial wiring.
  const auto rewire = [&shard, &specs](std::size_t m) {
    shard.owner.assert_held();
    const ctrl::DeploymentPlan& live = shard.controller->plan();
    if (const auto row = live.session_index(specs[m].id)) {
      shard.sessions[m]->rewire(live, *row);
    }
  };
  netsim::Simulator& clock = shard.sim->net().sim();
  for (const LinkFailure& lf : scenario_->failures) {
    const graph::EdgeIdx e = topo.find_edge(lf.from, lf.to);
    clock.schedule_at(lf.at_s, [&shard, &specs, &clock, rewire, e] {
      shard.owner.assert_held();
      const std::set<coding::SessionId> affected =
          shard.controller->sessions_using_edge(e);
      shard.sim->link(e)->set_up(false);
      shard.controller->report_link_state(e, false, clock.now());
      for (std::size_t m = 0; m < specs.size(); ++m) {
        if (affected.count(specs[m].id) > 0) rewire(m);
      }
    });
    if (lf.for_s <= 0) continue;  // the link stays down
    clock.schedule_at(lf.at_s + lf.for_s, [&shard, &specs, &clock, rewire, e] {
      shard.owner.assert_held();
      shard.sim->link(e)->set_up(true);
      shard.controller->report_link_state(e, true, clock.now());
      // Recovery unfreezes everything; rewire every session.
      for (std::size_t m = 0; m < specs.size(); ++m) rewire(m);
    });
  }
  for (const VnfCrash& c : scenario_->crashes) {
    clock.schedule_at(c.at_s, [&shard, &specs, c] {
      shard.owner.assert_held();
      if (vnf::CodingVnf* v = shard.sim->find_vnf(c.node)) v->crash();
      const std::set<coding::SessionId> hit =
          shard.controller->sessions_using_dc(c.node);
      for (std::size_t m = 0; m < specs.size(); ++m) {
        if (hit.count(specs[m].id) == 0) continue;
        NcMulticastSession& session = *shard.sessions[m];
        for (std::size_t r = 0; r < session.receiver_count(); ++r) {
          session.receiver(r).mark_disruption();
        }
      }
    });
    const double restart_after =
        c.for_s > 0 ? c.for_s : vnf::DaemonConfig{}.vnf_start_s;
    clock.schedule_at(c.at_s + restart_after, [&shard, c] {
      shard.owner.assert_held();
      if (vnf::CodingVnf* v = shard.sim->find_vnf(c.node)) v->restart();
    });
  }
}

void ScenarioRun::run() {
  shards_.resize(parts_.shard_count());
  // Shards share nothing, so each lane builds its shards and runs them
  // to the end with no barrier in between. pool_.run returning is the
  // one barrier; after it this thread owns every shard.
  pool_.run(parts_.shard_count(), [this](std::size_t k) {
    std::unique_ptr<SimShard> shard = build_shard(k);
    shard->owner.assert_held();  // still private to this lane
    shard->events = shard->sim->net().sim().run_until(opts_.duration_s);
    shards_[k] = std::move(shard);
  });
}

std::uint64_t ScenarioRun::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    s->owner.assert_held();  // post-barrier single-thread ownership
    total += s->events;
  }
  return total;
}

std::vector<ReceiverReport> ScenarioRun::reports() const {
  std::vector<ReceiverReport> rows;
  for (std::size_t m = 0; m < scenario_->sessions.size(); ++m) {
    const ctrl::SessionSpec& spec = scenario_->sessions[m];
    const SimShard& shard = *shards_[parts_.session_shard[m]];
    shard.owner.assert_held();  // post-barrier single-thread ownership
    std::size_t local = 0;
    while (shard.session_index[local] != m) ++local;
    NcMulticastSession& session = *shard.sessions[local];
    for (std::size_t r = 0; r < session.receiver_count(); ++r) {
      const auto& st = session.receiver(r).stats();
      ReceiverReport row;
      row.session = spec.id;
      row.receiver = scenario_->node_name(spec.receivers[r]);
      row.planned_mbps = plan_->lambda_mbps[m];
      row.goodput_mbps = session.receiver(r).goodput_mbps();
      row.repair_requests = st.repair_requests_sent;
      row.verify_failures = st.verify_failures;
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::string ScenarioRun::trace_jsonl() const {
  std::vector<const obs::EventTrace*> traces;
  traces.reserve(shards_.size());
  for (const auto& s : shards_) {
    // Post-barrier: the single calling thread owns every shard, and the
    // merge inputs are quiescent (obs/merge.hpp contract).
    s->owner.assert_held();
    traces.push_back(&s->sim->trace());
  }
  return obs::merge_traces(traces);
}

std::string ScenarioRun::metrics_json() const {
  std::vector<const obs::MetricsRegistry*> regs;
  regs.reserve(shards_.size());
  for (const auto& s : shards_) {
    s->owner.assert_held();  // post-barrier single-thread ownership
    regs.push_back(&s->sim->metrics());
  }
  return obs::merge_metrics(regs).to_json();
}

}  // namespace ncfn::app
