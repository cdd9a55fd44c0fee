// Scenario runner suite (ctest -L mt; CI runs it under TSan).
//
// The tests pin the runner's one load-bearing promise: worker count and
// sweep fan-out change WALL CLOCK only — every observable output
// (traces, metrics, reports) is byte-identical to the inline
// single-threaded run, fault scenarios included. Plus the supporting
// invariants: the shard partition keeps conflicting sessions together,
// a fault scenario is one shard, RNG streams split cleanly from the root
// seed, and concurrent shard teardown conserves the packet pools
// (NCFN_AUDIT=1 comes from ctest for this binary).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/config.hpp"
#include "app/shard.hpp"
#include "app/sweep.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/problem.hpp"
#include "netsim/seedstream.hpp"
#include "netsim/worker.hpp"
#include "obs/merge.hpp"

namespace {

using namespace ncfn;

app::Scenario load(const char* rel) {
  app::ParseError err;
  auto s = app::load_scenario(std::string(NCFN_SOURCE_DIR) + rel, &err);
  EXPECT_TRUE(s.has_value()) << err.line << ": " << err.message;
  return *s;
}

std::string read_text(const char* rel) {
  std::ifstream in(std::string(NCFN_SOURCE_DIR) + rel);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

app::Scenario parse(const std::string& text) {
  app::ParseError err;
  auto s = app::parse_scenario(text, &err);
  EXPECT_TRUE(s.has_value()) << err.line << ": " << err.message;
  return *s;
}

ctrl::DeploymentPlan solve(const app::Scenario& s) {
  ctrl::DeploymentProblem prob;
  prob.topo = &s.topo;
  prob.sessions = s.sessions;
  prob.alpha = s.alpha;
  auto plan = ctrl::solve_deployment(prob);
  EXPECT_TRUE(plan.feasible);
  return plan;
}

// ---- WorkerPool ----

TEST(WorkerPool, CoversEveryJobExactlyOnceForAnyWorkerCount) {
  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    netsim::WorkerPool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    // Each job owns its slot, so lanes never write the same cell.
    std::vector<int> hits(101, 0);
    pool.run(hits.size(), [&](std::size_t j) { hits[j] += 1; });
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(WorkerPool, ZeroJobsAndReuseAreSafe) {
  netsim::WorkerPool pool(4);
  pool.run(0, [](std::size_t) { FAIL() << "no jobs to run"; });
  std::vector<int> hits(7, 0);
  for (int round = 0; round < 3; ++round) {
    pool.run(hits.size(), [&](std::size_t j) { hits[j] += 1; });
  }
  for (const int h : hits) EXPECT_EQ(h, 3);
}

TEST(WorkerPool, ShutdownUnderChurnNeverHangs) {
  // Regression for the classic lost-wakeup shutdown bug: if ~WorkerPool
  // flipped stop_ WITHOUT holding mu_, a lane caught between its
  // predicate check and its cv wait would sleep through the notify_all
  // and join() would hang forever. Because stop_ flips under mu_
  // (worker.cpp), a lane inside that window still holds the lock, so
  // the flag cannot change until the lane has atomically released mu_
  // inside wait(). Churn construction/teardown to drive lanes through
  // the window — destroying right after construction races the dtor
  // against lanes that have not even reached their first wait. A
  // regression shows up as a ctest timeout, not a flaky assert; TSan
  // (the mt CI job) additionally checks the handoff ordering.
  for (int round = 0; round < 200; ++round) {
    netsim::WorkerPool pool(4);
    if (round % 2 == 1) {
      std::vector<int> hits(13, 0);
      pool.run(hits.size(), [&hits](std::size_t j) { hits[j] += 1; });
      for (const int h : hits) ASSERT_EQ(h, 1);
    }
    // Half the rounds destroy a pool whose lanes never saw a
    // generation; the other half one that completed a barrier. Both
    // must join all lanes here.
  }
}

// ---- RNG stream splitting ----

TEST(SeedStream, StableDistinctAndRootSensitive) {
  const auto s00 = netsim::rng_stream_seed(7, 0);
  EXPECT_EQ(s00, netsim::rng_stream_seed(7, 0));  // pure function
  // Distinct across streams of one root and across roots of one stream
  // (the property that keeps shard RNGs and their seeds independent).
  for (std::uint64_t k = 1; k < 64; ++k) {
    EXPECT_NE(netsim::rng_stream_seed(7, k), s00) << k;
  }
  EXPECT_NE(netsim::rng_stream_seed(8, 0), s00);
  // A shard's stream seed never collapses to the root itself.
  EXPECT_NE(s00, 7u);
}

// ---- Partitioning ----

TEST(Partition, DisjointButterfliesGetOneShardEach) {
  const auto scenario = load("/tools/scenarios/butterfly_shards.ncfn");
  const auto plan = solve(scenario);
  const auto parts =
      app::partition_sessions(scenario.topo, plan, scenario.sessions);
  ASSERT_EQ(parts.shard_count(), 4u);
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(parts.session_shard[m], m);  // numbered by smallest session
    ASSERT_EQ(parts.shard_sessions[m].size(), 1u);
    EXPECT_EQ(parts.shard_sessions[m][0], m);
  }
}

TEST(Partition, SessionsSharingANodeShareAShard) {
  const char* text =
      "alpha 0\n"
      "node V1 host\n"
      "node R1 host\n"
      "node R2 host\n"
      "node D1 dc bin=200 bout=200 cap=200\n"
      "node D2 dc bin=200 bout=200 cap=200\n"
      "edge V1 D1 10 50\n"
      "edge V1 D2 10 50\n"
      "edge D1 R1 10 50\n"
      "edge D2 R2 10 50\n"
      "edge R1 V1 20 10\n"
      "edge R2 V1 20 10\n"
      "session 1 V1 -> R1 lmax=150\n"
      "session 2 V1 -> R2 lmax=150\n";
  app::ParseError err;
  const auto scenario = app::parse_scenario(text, &err);
  ASSERT_TRUE(scenario.has_value()) << err.message;
  const auto plan = solve(*scenario);
  const auto parts =
      app::partition_sessions(scenario->topo, plan, scenario->sessions);
  // Both sessions source at V1: one shard, or they would race on V1's
  // out-links.
  EXPECT_EQ(parts.shard_count(), 1u);
  EXPECT_EQ(parts.session_shard[0], parts.session_shard[1]);
}

// ---- The determinism contract ----

struct RunOutput {
  std::string trace;
  std::string metrics;
  std::vector<app::ReceiverReport> reports;
  std::uint64_t events = 0;
  std::size_t shards = 0;
};

RunOutput run_scenario(const app::Scenario& scenario,
                       const ctrl::DeploymentPlan& plan, std::size_t workers,
                       double duration_s = 0.6) {
  app::RunOptions opts;
  opts.workers = workers;
  opts.duration_s = duration_s;
  opts.trace = true;
  app::ScenarioRun run(scenario, plan, opts);
  run.run();
  return RunOutput{run.trace_jsonl(), run.metrics_json(), run.reports(),
                   run.events_executed(), run.shard_plan().shard_count()};
}

void expect_same_reports(const RunOutput& out, const RunOutput& ref) {
  ASSERT_EQ(out.reports.size(), ref.reports.size());
  for (std::size_t i = 0; i < ref.reports.size(); ++i) {
    EXPECT_EQ(out.reports[i].session, ref.reports[i].session);
    EXPECT_EQ(out.reports[i].receiver, ref.reports[i].receiver);
    EXPECT_EQ(out.reports[i].goodput_mbps, ref.reports[i].goodput_mbps);
    EXPECT_EQ(out.reports[i].repair_requests, ref.reports[i].repair_requests);
    EXPECT_EQ(out.reports[i].verify_failures, ref.reports[i].verify_failures);
  }
}

TEST(ShardedRun, WorkerCountChangesNothingObservable) {
  const auto scenario = load("/tools/scenarios/butterfly_shards.ncfn");
  const auto plan = solve(scenario);
  const RunOutput ref = run_scenario(scenario, plan, 1);
  ASSERT_GT(ref.events, 0u);
  ASSERT_FALSE(ref.trace.empty());
  ASSERT_EQ(ref.reports.size(), 8u);  // 4 sessions x 2 receivers
  for (const std::size_t workers : {2u, 4u, 8u}) {
    const RunOutput out = run_scenario(scenario, plan, workers);
    EXPECT_EQ(out.trace, ref.trace) << workers << " workers";
    EXPECT_EQ(out.metrics, ref.metrics) << workers << " workers";
    EXPECT_EQ(out.events, ref.events) << workers << " workers";
    expect_same_reports(out, ref);
  }
}

TEST(ShardedRun, TracksShardCountInMetrics) {
  const auto scenario = load("/tools/scenarios/butterfly_shards.ncfn");
  const auto plan = solve(scenario);
  const RunOutput out = run_scenario(scenario, plan, 4);
  EXPECT_NE(out.metrics.find("\"mt.shards\":4"), std::string::npos);
}

// ---- Fault scenarios: one shard around a live controller ----

/// Samples in histogram `name` of a metrics JSON snapshot (0 if absent).
std::uint64_t histogram_count(const std::string& metrics, const char* name) {
  const std::string key = std::string("\"") + name + "\":{\"count\":";
  const std::size_t p = metrics.find(key);
  if (p == std::string::npos) return 0;
  return std::strtoull(metrics.c_str() + p + key.size(), nullptr, 10);
}

TEST(FaultRun, DiamondFaultIsOneShardAndWorkerCountChangesNothing) {
  const auto scenario = load("/tools/scenarios/diamond_fault.ncfn");
  const auto plan = solve(scenario);
  const RunOutput ref = run_scenario(scenario, plan, 1, 3.0);
  const RunOutput two = run_scenario(scenario, plan, 2, 3.0);
  EXPECT_EQ(ref.shards, 1u);
  EXPECT_EQ(two.shards, 1u);
  EXPECT_EQ(two.trace, ref.trace);
  EXPECT_EQ(two.metrics, ref.metrics);
  EXPECT_EQ(two.events, ref.events);
  expect_same_reports(two, ref);
  // The outages fired and the controller answered them.
  for (const char* ev :
       {"link_down", "link_up", "resolve", "vnf_crash", "vnf_restart"}) {
    EXPECT_NE(ref.trace.find(std::string("\"ev\":\"") + ev + "\""),
              std::string::npos)
        << ev;
  }
  // One recovery sample per rewire at least: onto path B when A->R
  // fails, and back onto both paths when it returns.
  EXPECT_GE(histogram_count(ref.metrics, "app.recovery_time_s"), 2u);
  ASSERT_EQ(ref.reports.size(), 1u);
  for (const app::ReceiverReport& r : ref.reports) {
    EXPECT_EQ(r.verify_failures, 0u) << r.receiver;
    EXPECT_GT(r.goodput_mbps, 0.0) << r.receiver;
  }
}

TEST(FaultRun, AFailLineJoinsDisjointSessionsIntoOneShard) {
  // Copies A and B of butterfly_shards.ncfn share no node.
  const std::string text = read_text("/tools/scenarios/butterfly_shards.ncfn");
  const std::string two = text.substr(0, text.find("# ---- copy C"));
  const auto scenario = parse(two + "fail A.T A.V2 at=0.2 for=0.2\n");
  const auto plan = solve(scenario);
  ASSERT_EQ(scenario.sessions.size(), 2u);
  const auto parts =
      app::partition_sessions(scenario.topo, plan, scenario.sessions);
  EXPECT_EQ(parts.shard_count(), 2u);  // the partition alone
  const RunOutput out = run_scenario(scenario, plan, 2);
  EXPECT_EQ(out.shards, 1u);
  EXPECT_NE(out.metrics.find("\"mt.shards\":1"), std::string::npos);
  ASSERT_EQ(out.reports.size(), 4u);
  for (const app::ReceiverReport& r : out.reports) {
    EXPECT_EQ(r.verify_failures, 0u) << r.receiver;
  }
}

TEST(FaultRun, SessionTheControllerRejectedKeepsItsWiring) {
  // The joint plan carries both sessions, but the live controller,
  // admitting them one at a time, rejects session 2. The fault handlers
  // find sessions in the controller's plan by id, so session 2 keeps its
  // initial wiring while session 1 is rewired around the outage.
  const auto scenario =
      parse(read_text("/tools/scenarios/two_sessions.ncfn") +
            "fail T V2 at=0.5 for=0.5\n");
  const auto plan = solve(scenario);
  ASSERT_EQ(plan.session_ids.size(), 2u);
  ctrl::Controller::Config ccfg;
  ccfg.alpha = scenario.alpha;
  ctrl::Controller ctl(scenario.topo, ccfg);
  EXPECT_TRUE(ctl.add_session(scenario.sessions[0], 0.0));
  EXPECT_FALSE(ctl.add_session(scenario.sessions[1], 0.0));

  const RunOutput out = run_scenario(scenario, plan, 1, 2.0);
  EXPECT_EQ(out.shards, 1u);
  EXPECT_NE(out.trace.find("\"ev\":\"resolve\""), std::string::npos);
  ASSERT_EQ(out.reports.size(), 3u);  // session 1: O2, C2; session 2: C2
  for (const app::ReceiverReport& r : out.reports) {
    EXPECT_EQ(r.verify_failures, 0u) << r.session << " " << r.receiver;
    EXPECT_GT(r.goodput_mbps, 0.0) << r.session << " " << r.receiver;
  }
}

// ---- Concurrent build/run/teardown under the pool audit ----

TEST(ShardedRun, ConcurrentTeardownConservesPools) {
  // NCFN_AUDIT=1 (set by ctest for this binary) makes SimNet teardown
  // abort on any packet-pool or link-accounting leak. Four lanes build,
  // run and destroy full stacks concurrently; surviving this test means
  // teardown accounting holds when interleaved with other shards' work.
  const auto scenario = load("/tools/scenarios/butterfly.ncfn");
  const auto plan = solve(scenario);
  netsim::WorkerPool pool(4);
  pool.run(4, [&](std::size_t lane) {
    app::RunOptions opts;
    opts.workers = 1;
    opts.duration_s = 0.3;
    opts.seed = static_cast<std::uint32_t>(7 + lane);
    app::ScenarioRun run(scenario, plan, opts);
    run.run();
    // run destructs here, on this lane, while siblings still simulate.
  });
}

// ---- Sweep driver ----

TEST(Sweep, JobFanOutChangesNothingObservable) {
  const auto scenario = load("/tools/scenarios/butterfly.ncfn");
  const auto plan = solve(scenario);
  app::SweepMatrix matrix;
  matrix.seeds = {3, 5};
  matrix.losses = {0.0, 0.02};
  matrix.batches = {0};
  matrix.duration_s = 0.3;
  const auto serial = app::run_sweep(scenario, plan, matrix, 1);
  const auto fanned = app::run_sweep(scenario, plan, matrix, 3);
  ASSERT_EQ(serial.size(), matrix.cell_count());
  EXPECT_EQ(app::sweep_json("butterfly", matrix, serial),
            app::sweep_json("butterfly", matrix, fanned));
  // Matrix order: seeds outermost, so cells 0,1 are seed 3.
  EXPECT_EQ(serial[0].seed, 3u);
  EXPECT_EQ(serial[0].loss, 0.0);
  EXPECT_EQ(serial[1].loss, 0.02);
  EXPECT_EQ(serial[2].seed, 5u);
  for (const auto& cell : serial) EXPECT_GT(cell.events, 0u);
}

// ---- Scenario keyword ----

TEST(Config, WorkersKeywordParses) {
  app::ParseError err;
  const auto s = app::parse_scenario("workers 4\n", &err);
  ASSERT_TRUE(s.has_value()) << err.message;
  EXPECT_EQ(s->workers, 4u);
  EXPECT_EQ(app::parse_scenario("")->workers, 1u);  // default: one worker
}

TEST(Config, WorkersKeywordRejectsGarbage) {
  for (const char* bad : {"workers 0\n", "workers -2\n", "workers 1.5\n",
                          "workers many\n", "workers\n"}) {
    app::ParseError err;
    EXPECT_FALSE(app::parse_scenario(bad, &err).has_value()) << bad;
    EXPECT_EQ(err.line, 1);
  }
}

// ---- Trace / metrics merging ----

TEST(Merge, TracesOrderBySimTimeThenInputIndex) {
  double t = 0;
  obs::EventTrace a, b;
  for (obs::EventTrace* tr : {&a, &b}) {
    tr->enable();
    tr->set_clock([&t] { return t; });
  }
  t = 0.25;
  b.vnf_restart(2);
  t = 0.5;
  a.vnf_restart(1);
  b.vnf_restart(3);  // tie with a's 0.5 record: input order wins
  t = 10.0;
  b.vnf_crash(4);
  t = 9.5;
  a.vnf_crash(5);  // two-digit vs one-digit seconds ordering

  const std::string merged = obs::merge_traces({&a, &b});
  const auto pos = [&](const char* needle) {
    const std::size_t p = merged.find(needle);
    EXPECT_NE(p, std::string::npos) << needle << " in " << merged;
    return p;
  };
  EXPECT_LT(pos("\"node\":2"), pos("\"node\":1"));
  EXPECT_LT(pos("\"node\":1"), pos("\"node\":3"));
  EXPECT_LT(pos("\"node\":3"), pos("\"node\":5"));
  EXPECT_LT(pos("\"node\":5"), pos("\"node\":4"));
  // Byte-count conservation: a k-way merge reorders lines, never edits.
  EXPECT_EQ(merged.size(), a.data().size() + b.data().size());
}

TEST(Merge, MetricsFoldAcrossRegistries) {
  obs::MetricsRegistry r1, r2;
  r1.counter("pkts").inc(3);
  r2.counter("pkts").inc(4);
  r2.counter("only2").inc(1);
  r1.gauge("load").add(1.5);
  r2.gauge("load").add(2.0);
  const std::vector<double> bounds = {1.0, 2.0};
  r1.histogram("lat", bounds).record(0.5);
  r2.histogram("lat", bounds).record(1.5);
  r2.histogram("lat", bounds).record(5.0);

  const obs::MetricsRegistry merged = obs::merge_metrics({&r1, &r2});
  EXPECT_EQ(merged.counter_value("pkts"), 7u);
  EXPECT_EQ(merged.counter_value("only2"), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges().at("load").value(), 3.5);
  const auto& h = merged.histograms().at("lat");
  EXPECT_EQ(h.bounds(), bounds);
}

}  // namespace
