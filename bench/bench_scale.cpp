// bench_scale — multi-worker engine scaling curve plus a 10^5-receiver
// aggregate scenario, emitted as JSON (tools/bench_all.sh captures it
// into BENCH_scale.json).
//
//   bench_scale [--shards <n>] [--duration <s>] [--aggregate-sessions <n>]
//               [--group <receivers-per-node>] [--context <key>=<value>]...
//
// The JSON opens with the host stamp: host_cores and the dispatched GF
// tier, which the bench reads itself, then one string field per
// --context pair (bench_all.sh passes build type, compiler and git sha,
// the same pairs it hands the google-benchmark binaries).
//
// Part 1: <n> disjoint copies of the Fig. 6 butterfly run to <s>
// simulated seconds under 1/2/4/8 workers; wall-clock per worker count
// and speedup vs the inline single-worker reference. The merged metrics
// of every run are byte-compared against the reference — the bench
// aborts if parallelism changed anything observable, so the numbers it
// prints are only ever measured on correct runs.
//
// Part 2: the paper argues NC VNFs suit CDN-scale distribution; 10^5
// individually simulated receivers is out of reach for one event queue,
// so each simulated receiver NODE stands for a group of co-located
// receivers (paper Sec. V's many-client story): sessions x 2 receiver
// nodes x group size = receivers_represented. Reported: wall clock,
// events, bottleneck goodput.
//
// Speedup depends on the host — the JSON records host_cores; a 1-core
// container will honestly report ~1.0x.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "coding/strparse.hpp"

#include "app/config.hpp"
#include "app/shard.hpp"
#include "ctrl/problem.hpp"
#include "gf/gf256_simd.hpp"
#include "graph/topology.hpp"
#include "netsim/worker.hpp"

using namespace ncfn;

namespace {

template <typename T>
T arg_num(const char* flag, const char* value) {
  const auto v = coding::parse_num<T>(value);
  if (!v) {
    std::fprintf(stderr, "bad value for %s: '%s'\n", flag, value);
    std::exit(2);
  }
  return *v;
}

/// `s` as a JSON string literal.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double wall_ms(const std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

/// `copies` disjoint butterflies (Fig. 6 geometry, one session each) in
/// one scenario — partition_sessions splits it into `copies` shards.
app::Scenario make_butterflies(std::size_t copies) {
  app::Scenario s;
  s.alpha = 0;
  for (std::size_t k = 0; k < copies; ++k) {
    const std::string p = "S" + std::to_string(k) + ".";
    auto host = [&](const char* name) {
      graph::NodeInfo n;
      n.name = p + name;
      n.kind = graph::NodeKind::kHost;
      const graph::NodeIdx idx = s.topo.add_node(n);
      s.nodes[n.name] = idx;
      return idx;
    };
    auto dc = [&](const char* name) {
      graph::NodeInfo n;
      n.name = p + name;
      n.kind = graph::NodeKind::kDataCenter;
      n.bin_bps = n.bout_bps = n.vnf_capacity_bps = 200e6;
      const graph::NodeIdx idx = s.topo.add_node(n);
      s.nodes[n.name] = idx;
      return idx;
    };
    const auto v1 = host("V1"), o2 = host("O2"), c2 = host("C2");
    const auto o1 = dc("O1"), c1 = dc("C1"), t = dc("T"), v2 = dc("V2");
    s.topo.add_edge(v1, o1, 0.030, 35e6);
    s.topo.add_edge(v1, c1, 0.025, 35e6);
    s.topo.add_edge(o1, o2, 0.015, 35e6);
    s.topo.add_edge(c1, c2, 0.012, 35e6);
    s.topo.add_edge(o1, t, 0.020, 35e6);
    s.topo.add_edge(c1, t, 0.017, 35e6);
    s.topo.add_edge(t, v2, 0.018, 35e6);
    s.topo.add_edge(v2, o2, 0.021, 35e6);
    s.topo.add_edge(v2, c2, 0.019, 35e6);
    s.topo.add_edge(o2, v1, 0.0454, 10e6);  // feedback return paths
    s.topo.add_edge(c2, v1, 0.0385, 10e6);
    ctrl::SessionSpec spec;
    spec.id = static_cast<coding::SessionId>(k + 1);
    spec.source = v1;
    spec.receivers = {o2, c2};
    spec.lmax_s = 0.150;
    s.sessions.push_back(spec);
  }
  return s;
}

struct TimedRun {
  double ms = 0;
  std::uint64_t events = 0;
  std::string metrics;
  double min_goodput_mbps = 0;
};

TimedRun timed_run(const app::Scenario& scenario,
                   const ctrl::DeploymentPlan& plan, std::size_t workers,
                   double duration_s) {
  const auto t0 = std::chrono::steady_clock::now();
  app::RunOptions opts;
  opts.workers = workers;
  opts.duration_s = duration_s;
  app::ScenarioRun run(scenario, plan, opts);
  run.run();
  TimedRun out;
  out.ms = wall_ms(t0);
  out.events = run.events_executed();
  out.metrics = run.metrics_json();
  bool first = true;
  for (const app::ReceiverReport& r : run.reports()) {
    if (first || r.goodput_mbps < out.min_goodput_mbps) {
      out.min_goodput_mbps = r.goodput_mbps;
    }
    first = false;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t shards = 8;
  double duration = 2.0;
  std::size_t agg_sessions = 50;
  std::size_t group = 1000;
  std::vector<std::string> context;  // "key=value" stamp pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--shards") == 0) {
      shards = arg_num<std::size_t>("--shards", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--duration") == 0) {
      duration = arg_num<double>("--duration", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--aggregate-sessions") == 0) {
      agg_sessions = arg_num<std::size_t>("--aggregate-sessions", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--group") == 0) {
      group = arg_num<std::size_t>("--group", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--context") == 0) {
      if (std::strchr(argv[i + 1], '=') == nullptr) {
        std::fprintf(stderr, "bad value for --context: '%s'\n", argv[i + 1]);
        return 2;
      }
      context.emplace_back(argv[i + 1]);
    }
  }

  // ---- Part 1: worker scaling on `shards` disjoint butterflies ----
  const app::Scenario scenario = make_butterflies(shards);
  ctrl::DeploymentProblem prob;
  prob.topo = &scenario.topo;
  prob.sessions = scenario.sessions;
  prob.alpha = scenario.alpha;
  const auto plan = ctrl::solve_deployment(prob);
  if (!plan.feasible) {
    std::fprintf(stderr, "no deployment for the scaling scenario: %s\n",
                 plan.failure().c_str());
    return 1;
  }

  std::printf("{\n  \"bench\": \"scale\",\n  \"host_cores\": %zu,\n",
              netsim::WorkerPool::hardware_workers());
  std::printf("  \"gf_tier\": \"%s\",\n",
              gf::simd::tier_name(gf::simd::active_tier()));
  for (const std::string& kv : context) {
    const std::size_t eq = kv.find('=');
    std::printf("  %s: %s,\n", json_string(kv.substr(0, eq)).c_str(),
                json_string(kv.substr(eq + 1)).c_str());
  }
  std::printf("  \"shards\": %zu,\n  \"duration_s\": %.3f,\n", shards,
              duration);
  std::printf("  \"scaling\": [\n");
  const TimedRun ref = timed_run(scenario, plan, 1, duration);
  const std::size_t counts[] = {1, 2, 4, 8};
  for (std::size_t i = 0; i < std::size(counts); ++i) {
    const TimedRun r = counts[i] == 1 ? ref
                                      : timed_run(scenario, plan, counts[i],
                                                  duration);
    if (r.metrics != ref.metrics) {
      // Never report a speedup from a run that diverged — that would be
      // measuring a different (broken) computation.
      std::fprintf(stderr, "FATAL: %zu-worker metrics diverge from 1-worker\n",
                   counts[i]);
      return 1;
    }
    std::printf(
        "    {\"workers\": %zu, \"wall_ms\": %.1f, \"speedup\": %.2f, "
        "\"events\": %llu}%s\n",
        counts[i], r.ms, ref.ms / (r.ms > 0 ? r.ms : 1e-9),
        static_cast<unsigned long long>(r.events),
        i + 1 == std::size(counts) ? "" : ",");
  }
  std::printf("  ],\n");

  // ---- Part 2: 10^5-receiver aggregate scenario ----
  const app::Scenario agg = make_butterflies(agg_sessions);
  ctrl::DeploymentProblem agg_prob;
  agg_prob.topo = &agg.topo;
  agg_prob.sessions = agg.sessions;
  agg_prob.alpha = agg.alpha;
  const auto agg_plan = ctrl::solve_deployment(agg_prob);
  if (!agg_plan.feasible) {
    std::fprintf(stderr, "no deployment for the aggregate scenario: %s\n",
                 agg_plan.failure().c_str());
    return 1;
  }
  const std::size_t agg_workers = netsim::WorkerPool::hardware_workers();
  const TimedRun r = timed_run(agg, agg_plan, agg_workers, 1.0);
  std::printf("  \"aggregate\": {\n");
  std::printf("    \"receivers_represented\": %zu,\n",
              agg_sessions * 2 * group);
  std::printf("    \"sessions\": %zu,\n    \"receiver_nodes\": %zu,\n",
              agg_sessions, agg_sessions * 2);
  std::printf("    \"group_per_node\": %zu,\n    \"workers\": %zu,\n", group,
              agg_workers);
  std::printf("    \"wall_ms\": %.1f,\n    \"events\": %llu,\n", r.ms,
              static_cast<unsigned long long>(r.events));
  std::printf("    \"min_goodput_mbps\": %.2f\n  }\n}\n", r.min_goodput_mbps);
  return 0;
}
