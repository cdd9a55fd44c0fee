// ncfn-run — plan a scenario and actually run it: instantiate the coding
// VNFs, sources and receivers on the simulated network and push real
// GF(2^8)-coded packets end to end.
//
//   ncfn-run <scenario-file> [--duration <s>] [--redundancy <0|1|2>]
//            [--loss <frac>] [--seed <n>] [--workers <n>]
//            [--metrics-out <file>] [--trace-out <file>]
//
// --loss applies i.i.d. loss to every DC-DC link. Prints per-receiver
// goodput and integrity results. --metrics-out dumps the metrics registry
// as JSON after the run; --trace-out enables the deterministic event
// trace and writes it as JSONL — identical (scenario, seed, flags) runs
// produce byte-identical files.
//
// --workers <n> (or a `workers <n>` scenario line; the flag wins) routes
// the run through the sharded multi-worker engine: sessions partition
// into independent shards advanced in barrier-synchronized time windows.
// The worker count changes wall-clock only — traces and metrics are
// byte-identical for any <n> (CI diffs 1 vs 2 vs 8). Scenarios with
// fail/crash lines need the live controller and stay on the
// single-engine path (using --workers there is an error).
//
// Scenario `fail`/`crash` lines are honoured: a live controller watches
// the topology, re-solves around each outage, and the affected sessions
// are rewired onto the new plan mid-run (recovery latency lands in the
// app.recovery_time_s histogram).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "coding/strparse.hpp"

#include "app/config.hpp"
#include "app/provider.hpp"
#include "app/runtime.hpp"
#include "app/shard.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/problem.hpp"
#include "netsim/loss.hpp"

using namespace ncfn;

namespace {
/// Parse a numeric CLI value or die with a usage error (no silent
/// atoi-style zero on garbage).
template <typename T>
T arg_num(const char* flag, const char* value) {
  const auto v = coding::parse_num<T>(value);
  if (!v) {
    std::fprintf(stderr, "bad value for %s: '%s'\n", flag, value);
    std::exit(2);
  }
  return *v;
}

bool write_file(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  return std::fclose(f) == 0 && ok;
}
}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <scenario-file> [--duration <s>] "
                 "[--redundancy <n>] [--loss <frac>] [--seed <n>] "
                 "[--workers <n>] [--metrics-out <file>] "
                 "[--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  double duration = 5.0, loss = 0.0;
  int redundancy = 0;
  std::uint32_t seed = 7;
  std::size_t workers = 0;  // 0 = scenario decides (default: legacy engine)
  std::string metrics_out, trace_out;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--duration") == 0) {
      duration = arg_num<double>("--duration", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--redundancy") == 0) {
      redundancy = arg_num<int>("--redundancy", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--loss") == 0) {
      loss = arg_num<double>("--loss", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = arg_num<std::uint32_t>("--seed", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--workers") == 0) {
      workers = arg_num<std::size_t>("--workers", argv[i + 1]);
      if (workers == 0) {
        std::fprintf(stderr, "--workers needs a positive integer\n");
        return 2;
      }
    }
    if (std::strcmp(argv[i], "--metrics-out") == 0) metrics_out = argv[i + 1];
    if (std::strcmp(argv[i], "--trace-out") == 0) trace_out = argv[i + 1];
  }

  app::ParseError err;
  const auto scenario = app::load_scenario(argv[1], &err);
  if (!scenario) {
    std::fprintf(stderr, "%s:%d: %s\n", argv[1], err.line, err.message.c_str());
    return 1;
  }
  ctrl::DeploymentProblem prob;
  prob.topo = &scenario->topo;
  prob.sessions = scenario->sessions;
  prob.alpha = scenario->alpha;
  const auto plan = ctrl::solve_deployment(prob);
  if (!plan.feasible) {
    std::fprintf(stderr, "no deployment: %s\n", plan.failure().c_str());
    return 1;
  }

  // ---- Sharded multi-worker path (--workers / `workers` line) ----
  const std::size_t effective_workers =
      workers > 0 ? workers : scenario->workers;
  if (effective_workers > 0) {
    if (!scenario->failures.empty() || !scenario->crashes.empty()) {
      std::fprintf(stderr,
                   "scenario has fail/crash lines; the sharded engine does "
                   "not support live failure injection — drop --workers / "
                   "the workers line\n");
      return 1;
    }
    app::ShardedRunOptions opts;
    opts.workers = effective_workers;
    opts.duration_s = duration;
    opts.redundancy = redundancy;
    opts.loss = loss;
    opts.seed = seed;
    opts.trace = !trace_out.empty();
    app::ShardedScenarioRun run(*scenario, plan, opts);
    run.run();

    std::printf("%-10s %-12s %-12s %12s %10s %10s\n", "session", "receiver",
                "planned", "goodput", "repairs", "corrupt");
    for (const app::ReceiverReport& r : run.reports()) {
      std::printf("%-10u %-12s %9.2f Mbps %8.2f Mbps %10llu %10llu\n",
                  r.session, r.receiver.c_str(), r.planned_mbps,
                  r.goodput_mbps,
                  static_cast<unsigned long long>(r.repair_requests),
                  static_cast<unsigned long long>(r.verify_failures));
    }
    if (!metrics_out.empty() &&
        !write_file(metrics_out, run.metrics_json() + "\n")) {
      std::fprintf(stderr, "failed to write %s\n", metrics_out.c_str());
      return 1;
    }
    if (!trace_out.empty() && !write_file(trace_out, run.trace_jsonl())) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      return 1;
    }
    return 0;
  }

  app::SimNet sim(scenario->topo);
  if (!trace_out.empty()) sim.trace().enable();
  if (loss > 0) {
    std::uint32_t lseed = seed;
    for (int e = 0; e < scenario->topo.edge_count(); ++e) {
      const auto& ei = scenario->topo.edge(e);
      if (scenario->topo.node(ei.from).kind == graph::NodeKind::kDataCenter &&
          scenario->topo.node(ei.to).kind == graph::NodeKind::kDataCenter) {
        sim.link(e)->set_loss_model(std::make_unique<netsim::UniformLoss>(loss));
        ++lseed;
      }
    }
  }

  coding::CodingParams params;
  std::vector<std::unique_ptr<app::SyntheticProvider>> providers;
  std::vector<std::unique_ptr<app::NcMulticastSession>> sessions;
  for (std::size_t m = 0; m < scenario->sessions.size(); ++m) {
    const double lambda = plan.lambda_mbps[m];
    providers.push_back(std::make_unique<app::SyntheticProvider>(
        seed + m, static_cast<std::size_t>(
                      std::max(lambda, 1.0) * 1e6 / 8 * (duration + 5)),
        params));
    app::SessionWiring wiring;
    wiring.vnf.params = params;
    wiring.vnf.max_batch = scenario->max_batch;
    wiring.redundancy = redundancy;
    wiring.seed = seed + static_cast<std::uint32_t>(m) * 101;
    sessions.push_back(std::make_unique<app::NcMulticastSession>(
        sim, plan, m, scenario->sessions[m], *providers[m], wiring));
    for (std::size_t k = 0; k < sessions[m]->receiver_count(); ++k) {
      sessions[m]->receiver(k).set_verify(providers[m].get());
    }
  }
  // ---- Failure injection (scenario `fail` / `crash` lines) ----
  // A controller instance mirrors the deployment; on an outage it
  // re-solves (frozen unaffected sessions) and the affected sessions are
  // rewired live onto its new plan.
  std::unique_ptr<ctrl::Controller> ctl;
  if (!scenario->failures.empty() || !scenario->crashes.empty()) {
    ctrl::Controller::Config ccfg;
    ccfg.alpha = scenario->alpha;
    ctl = std::make_unique<ctrl::Controller>(scenario->topo, ccfg);
    ctl->set_obs(&sim.obs());
    for (const auto& spec : scenario->sessions) {
      ctl->add_session(spec, 0.0);
    }
    for (const app::LinkFailure& lf : scenario->failures) {
      const graph::EdgeIdx e = scenario->topo.find_edge(lf.from, lf.to);
      sim.net().sim().schedule_at(lf.at_s, [&, e] {
        std::vector<std::size_t> affected;
        for (std::size_t m = 0; m < sessions.size(); ++m) {
          if (ctl->plan().edge_rate_mbps[m].count(e) > 0) affected.push_back(m);
        }
        sim.link(e)->set_up(false);
        ctl->report_link_state(e, false, sim.net().sim().now());
        for (std::size_t m : affected) sessions[m]->rewire(ctl->plan(), m);
      });
      if (lf.for_s > 0) {
        sim.net().sim().schedule_at(lf.at_s + lf.for_s, [&, e] {
          sim.link(e)->set_up(true);
          ctl->report_link_state(e, true, sim.net().sim().now());
          // Recovery unfreezes everything; rewire every session.
          for (std::size_t m = 0; m < sessions.size(); ++m) {
            sessions[m]->rewire(ctl->plan(), m);
          }
        });
      }
    }
    for (const app::VnfCrash& c : scenario->crashes) {
      sim.net().sim().schedule_at(c.at_s, [&, c] {
        if (vnf::CodingVnf* v = sim.find_vnf(c.node)) v->crash();
        for (std::size_t m = 0; m < sessions.size(); ++m) {
          bool uses = false;
          for (const auto& [e2, rate] : ctl->plan().edge_rate_mbps[m]) {
            const auto& ei = scenario->topo.edge(e2);
            uses = uses || ei.from == c.node || ei.to == c.node;
          }
          if (!uses) continue;
          for (std::size_t k = 0; k < sessions[m]->receiver_count(); ++k) {
            sessions[m]->receiver(k).mark_disruption();
          }
        }
      });
      const double restart_after = c.for_s > 0 ? c.for_s : 0.376;
      sim.net().sim().schedule_at(c.at_s + restart_after, [&, c] {
        if (vnf::CodingVnf* v = sim.find_vnf(c.node)) v->restart();
      });
    }
  }

  for (auto& s : sessions) s->start();
  sim.net().sim().run_until(duration);

  std::printf("%-10s %-12s %-12s %12s %10s %10s\n", "session", "receiver",
              "planned", "goodput", "repairs", "corrupt");
  for (std::size_t m = 0; m < sessions.size(); ++m) {
    const auto& spec = scenario->sessions[m];
    for (std::size_t k = 0; k < sessions[m]->receiver_count(); ++k) {
      const auto& st = sessions[m]->receiver(k).stats();
      std::printf("%-10u %-12s %9.2f Mbps %8.2f Mbps %10llu %10llu\n",
                  spec.id, scenario->node_name(spec.receivers[k]).c_str(),
                  plan.lambda_mbps[m],
                  sessions[m]->receiver(k).goodput_mbps(),
                  static_cast<unsigned long long>(st.repair_requests_sent),
                  static_cast<unsigned long long>(st.verify_failures));
    }
  }
  if (!metrics_out.empty() && !sim.metrics().write_json(metrics_out)) {
    std::fprintf(stderr, "failed to write %s\n", metrics_out.c_str());
    return 1;
  }
  if (!trace_out.empty() && !sim.trace().write(trace_out)) {
    std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
    return 1;
  }
  return 0;
}
