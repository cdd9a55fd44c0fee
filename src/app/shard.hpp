// The scenario runner: every scenario run (ncfn-run, ncfn-sweep,
// bench_scale, the tests) goes through app::ScenarioRun, which shards
// independent sessions across worker threads deterministically.
//
// The paper's evaluation is many concurrent NC sessions on Internet
// paths; one discrete-event queue cannot reach that scale wall-clock-
// wise. The runner shards the run (BESS master/worker split): each
// shard owns a disjoint set of sessions plus its OWN SimNet — event
// queue, links, VNFs, packet pools, observability hub, and an RNG stream
// split from the root seed by SHARD index (netsim/seedstream.hpp). The
// worker pool builds every shard and runs it to the end of the run;
// after that one barrier the per-shard traces are k-way merged in
// sim-time order and the per-shard metrics registries are folded
// (obs/merge.hpp).
//
// Determinism argument, in one paragraph: sessions are grouped so that
// two sessions whose deployment plans touch ANY common topology node
// land in the same shard (partition_sessions), so no two shards ever
// share a link, queue, VNF or RNG — a shard's evolution is a pure
// function of (scenario, plan, root seed, shard index). Worker count
// only chooses which OS thread executes which shard; it appears nowhere
// in any seed, any schedule, or any merge key. Hence the same seed
// produces byte-identical merged traces and metrics for 1, 2 or 8
// workers — the property CI's worker-count determinism gate enforces.
//
// A scenario with `fail`/`crash` lines runs as ONE shard holding every
// session: its live controller re-solves across sessions, which couples
// them all.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "app/config.hpp"
#include "app/provider.hpp"
#include "app/runtime.hpp"
#include "common/sync.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/problem.hpp"
#include "netsim/worker.hpp"

namespace ncfn::app {

/// Deterministic partition of sessions into independent shards. Shards
/// are numbered by their smallest session index, ascending.
struct ShardPlan {
  std::vector<std::size_t> session_shard;  // session index -> shard
  std::vector<std::vector<std::size_t>> shard_sessions;  // shard -> ascending

  [[nodiscard]] std::size_t shard_count() const {
    return shard_sessions.size();
  }
};

/// Group sessions that must share a simulator: two sessions conflict
/// when their planned flows (plan edge endpoints) or endpoints (source,
/// receivers) touch a common topology node — sharing a node means
/// potentially sharing that node's links, queues or VNF. The transitive
/// closure of "conflicts" defines the shards; fully disjoint sessions
/// get a shard each.
[[nodiscard]] ShardPlan partition_sessions(
    const graph::Topology& topo, const ctrl::DeploymentPlan& plan,
    const std::vector<ctrl::SessionSpec>& sessions);

/// One worker-owned shard: a private SimNet plus the sessions living on
/// it. Everything reachable from here is touched by exactly one worker
/// lane during the run.
///
/// Ownership is transferred structurally, not by a lock: the lane that
/// runs job k builds shard k and runs it to the end, and after the pool
/// barrier the caller's single thread owns every shard. The `owner` Role
/// makes that handoff a compile-time contract — all state is
/// NCFN_GUARDED_BY(owner) and each code path declares how it came to own
/// the shard with owner.assert_held() (no-op at runtime; required by the
/// `analyze` preset's -Wthread-safety pass).
struct SimShard {
  common::Role owner;
  std::unique_ptr<SimNet> sim NCFN_GUARDED_BY(owner);
  std::vector<std::unique_ptr<SyntheticProvider>> providers
      NCFN_GUARDED_BY(owner);
  std::vector<std::unique_ptr<NcMulticastSession>> sessions
      NCFN_GUARDED_BY(owner);
  // Global index per entry.
  std::vector<std::size_t> session_index NCFN_GUARDED_BY(owner);
  // The live controller of a scenario with fail/crash lines (null
  // otherwise): it mirrors the deployment and re-solves on each outage.
  std::unique_ptr<ctrl::Controller> controller NCFN_GUARDED_BY(owner);
  std::uint64_t events NCFN_GUARDED_BY(owner) = 0;
};

struct RunOptions {
  std::size_t workers = 1;
  double duration_s = 5.0;
  int redundancy = 0;
  double loss = 0.0;  // i.i.d. loss applied to every DC-DC link
  std::uint32_t seed = 7;
  bool trace = false;
};

/// One receiver row of the run summary (what ncfn-run prints).
struct ReceiverReport {
  coding::SessionId session = 0;
  std::string receiver;
  double planned_mbps = 0;
  double goodput_mbps = 0;
  std::uint64_t repair_requests = 0;
  std::uint64_t verify_failures = 0;
};

/// The one scenario runner: partitions the plan's sessions, then each
/// worker lane builds its shards and runs them to opts.duration_s.
/// Outputs are merged deterministically. A scenario with fail/crash
/// lines is one shard with a live controller: the outages are scheduled
/// before the sessions start, and each one re-solves the deployment and
/// rewires the sessions the controller admitted.
class ScenarioRun {
 public:
  /// `scenario` and `plan` must outlive the run.
  ScenarioRun(const Scenario& scenario, const ctrl::DeploymentPlan& plan,
              const RunOptions& opts);

  /// Build every shard and run it to opts.duration_s.
  void run();

  [[nodiscard]] const ShardPlan& shard_plan() const { return parts_; }
  [[nodiscard]] std::size_t workers() const { return pool_.workers(); }
  [[nodiscard]] std::uint64_t events_executed() const;
  /// Rows in (session, receiver) declaration order, any worker count.
  [[nodiscard]] std::vector<ReceiverReport> reports() const;
  [[nodiscard]] std::string trace_jsonl() const;
  [[nodiscard]] std::string metrics_json() const;

 private:
  [[nodiscard]] std::unique_ptr<SimShard> build_shard(std::size_t k) const;
  void schedule_faults(SimShard& shard) const;

  const Scenario* scenario_;
  const ctrl::DeploymentPlan* plan_;
  RunOptions opts_;
  ShardPlan parts_;
  netsim::WorkerPool pool_;
  std::vector<std::unique_ptr<SimShard>> shards_;
};

}  // namespace ncfn::app
