// ncfn-plan — solve coding-function deployment + multicast routing for a
// scenario file and print the plan.
//
//   ncfn-plan <scenario-file> [--quantize <blocks>]
//
// Prints per-session rates, VNF placement, and the per-edge flow routing
// (the forwarding tables the controller would push). See
// tools/scenarios/ for examples of the file format. An unknown option, a
// stray argument or an option without its value prints the usage line
// and exits 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "coding/strparse.hpp"

#include "app/config.hpp"
#include "ctrl/problem.hpp"
#include "ctrl/quantize.hpp"
#include "graph/maxflow.hpp"

using namespace ncfn;

namespace {
int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario-file> [--quantize <blocks>]\n", argv0);
  return 2;
}
}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  int quantize_blocks = 0;
  for (int i = 2; i < argc; i += 2) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--quantize") != 0) {
      std::fprintf(stderr, "unknown option '%s'\n", flag);
      return usage(argv[0]);
    }
    if (i + 1 == argc) {
      std::fprintf(stderr, "missing value for %s\n", flag);
      return usage(argv[0]);
    }
    const auto v = coding::parse_num<int>(argv[i + 1]);
    if (!v) {
      std::fprintf(stderr, "bad value for --quantize: '%s'\n", argv[i + 1]);
      return 2;
    }
    quantize_blocks = *v;
  }

  app::ParseError err;
  const auto scenario = app::load_scenario(argv[1], &err);
  if (!scenario) {
    std::fprintf(stderr, "%s:%d: %s\n", argv[1], err.line,
                 err.message.c_str());
    return 1;
  }
  if (scenario->sessions.empty()) {
    std::fprintf(stderr, "%s: no sessions declared\n", argv[1]);
    return 1;
  }

  ctrl::DeploymentProblem prob;
  prob.topo = &scenario->topo;
  prob.sessions = scenario->sessions;
  prob.alpha = scenario->alpha;
  auto plan = ctrl::solve_deployment(prob);
  if (!plan.feasible) {
    std::fprintf(stderr, "no deployment (alpha=%.1f): %s\n",
                 scenario->alpha, plan.failure().c_str());
    return 1;
  }
  if (quantize_blocks > 0) {
    const auto q = ctrl::quantize_plan(
        plan, static_cast<std::size_t>(quantize_blocks));
    if (q.sessions_reduced > 0) {
      std::printf("quantization (g=%d) reduced %d session(s) by %.2f Mbps\n",
                  quantize_blocks, q.sessions_reduced, q.rate_lost_mbps);
    }
  }

  std::printf("objective: %.2f   total throughput: %.2f Mbps   VNFs: %d\n\n",
              plan.objective, plan.total_throughput_mbps(), plan.total_vnfs());

  std::printf("sessions:\n");
  for (std::size_t m = 0; m < plan.session_ids.size(); ++m) {
    const auto& spec = scenario->sessions[m];
    std::printf("  session %u: %s ->", plan.session_ids[m],
                scenario->node_name(spec.source).c_str());
    for (graph::NodeIdx r : spec.receivers) {
      std::printf(" %s", scenario->node_name(r).c_str());
    }
    const double bound = graph::multicast_capacity(scenario->topo, spec.source,
                                                   spec.receivers) / 1e6;
    std::printf("   rate %.2f Mbps (max-flow bound %.2f)\n",
                plan.lambda_mbps[m], bound);
  }

  std::printf("\ncoding VNF deployment:\n");
  for (const auto& [v, n] : plan.vnf_count) {
    if (n > 0) {
      std::printf("  %-12s %d instance(s)\n",
                  scenario->node_name(v).c_str(), n);
    }
  }

  std::printf("\nflow routing (f_m(e)):\n");
  for (std::size_t m = 0; m < plan.session_ids.size(); ++m) {
    for (const auto& [e, rate] : plan.edge_rate_mbps[m]) {
      const auto& ei = scenario->topo.edge(e);
      std::printf("  session %u: %-10s -> %-10s %8.2f Mbps\n",
                  plan.session_ids[m], scenario->node_name(ei.from).c_str(),
                  scenario->node_name(ei.to).c_str(), rate);
    }
  }
  return 0;
}
