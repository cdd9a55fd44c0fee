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
// The run goes through app::ScenarioRun: sessions partition into
// independent shards run on --workers <n> threads (or a `workers <n>`
// scenario line; the flag wins; default 1). The worker count changes
// wall-clock only — traces and metrics are byte-identical for any <n>
// (CI diffs 1 vs 2 vs 8).
//
// Scenario `fail`/`crash` lines are honoured: a live controller watches
// the topology, re-solves around each outage, and the sessions it
// admitted are rewired onto the new plan mid-run (recovery latency lands
// in the app.recovery_time_s histogram). Such a scenario runs as one
// shard, since the controller couples all its sessions.
//
// An unknown option, a stray argument or an option without its value
// prints the usage line and exits 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "coding/strparse.hpp"

#include "app/config.hpp"
#include "app/shard.hpp"
#include "ctrl/problem.hpp"

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

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario-file> [--duration <s>] "
               "[--redundancy <n>] [--loss <frac>] [--seed <n>] "
               "[--workers <n>] [--metrics-out <file>] "
               "[--trace-out <file>]\n",
               argv0);
  return 2;
}

bool write_file(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  return std::fclose(f) == 0 && ok;
}
}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  app::RunOptions opts;
  std::size_t workers = 0;  // 0 = the scenario decides
  std::string metrics_out, trace_out;
  for (int i = 2; i < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];  // argv[argc] is a null pointer
    // Whether `flag` is `name`; a known flag without its value is a usage
    // error.
    const auto option = [&](const char* name) {
      if (std::strcmp(flag, name) != 0) return false;
      if (value != nullptr) return true;
      std::fprintf(stderr, "missing value for %s\n", name);
      std::exit(usage(argv[0]));
    };
    if (option("--duration")) {
      opts.duration_s = arg_num<double>(flag, value);
    } else if (option("--redundancy")) {
      opts.redundancy = arg_num<int>(flag, value);
    } else if (option("--loss")) {
      opts.loss = arg_num<double>(flag, value);
    } else if (option("--seed")) {
      opts.seed = arg_num<std::uint32_t>(flag, value);
    } else if (option("--workers")) {
      workers = arg_num<std::size_t>(flag, value);
      if (workers == 0) {
        std::fprintf(stderr, "--workers needs a positive integer\n");
        return 2;
      }
    } else if (option("--metrics-out")) {
      metrics_out = value;
    } else if (option("--trace-out")) {
      trace_out = value;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", flag);
      return usage(argv[0]);
    }
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

  opts.workers = workers > 0 ? workers : scenario->workers;
  opts.trace = !trace_out.empty();
  app::ScenarioRun run(*scenario, plan, opts);
  run.run();

  std::printf("%-10s %-12s %-12s %12s %10s %10s\n", "session", "receiver",
              "planned", "goodput", "repairs", "corrupt");
  for (const app::ReceiverReport& r : run.reports()) {
    std::printf("%-10u %-12s %9.2f Mbps %8.2f Mbps %10llu %10llu\n",
                r.session, r.receiver.c_str(), r.planned_mbps, r.goodput_mbps,
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
