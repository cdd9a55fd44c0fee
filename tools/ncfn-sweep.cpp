// ncfn-sweep — fan a scenario matrix (seeds x losses x batch sizes)
// across worker lanes and emit one deterministic metrics JSON document.
//
//   ncfn-sweep <scenario-file> [--seeds <a,b,...>] [--loss <a,b,...>]
//              [--batch <a,b,...>] [--duration <s>] [--redundancy <n>]
//              [--jobs <n>] [--out <file>]
//
// Every (seed, loss, batch) combination runs as one independent
// single-engine simulation; --jobs only picks the fan-out and never
// appears in the output, so the same matrix produces byte-identical
// JSON for any job count (CI exploits this the same way it checks
// ncfn-run --workers).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "coding/strparse.hpp"

#include "app/config.hpp"
#include "app/sweep.hpp"
#include "ctrl/problem.hpp"

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

/// Parse a comma-separated numeric list ("1,2,3") or die with usage.
template <typename T>
std::vector<T> arg_list(const char* flag, const char* value) {
  std::vector<T> out;
  const std::string s = value;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(arg_num<T>(flag, s.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <scenario-file> [--seeds <a,b,...>] "
                 "[--loss <a,b,...>] [--batch <a,b,...>] [--duration <s>] "
                 "[--redundancy <n>] [--jobs <n>] [--out <file>]\n",
                 argv[0]);
    return 2;
  }
  app::SweepMatrix matrix;
  std::size_t jobs = 1;
  std::string out_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--seeds") == 0) {
      matrix.seeds = arg_list<std::uint32_t>("--seeds", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--loss") == 0) {
      matrix.losses = arg_list<double>("--loss", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--batch") == 0) {
      matrix.batches = arg_list<std::size_t>("--batch", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--duration") == 0) {
      matrix.duration_s = arg_num<double>("--duration", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--redundancy") == 0) {
      matrix.redundancy = arg_num<int>("--redundancy", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--jobs") == 0) {
      jobs = arg_num<std::size_t>("--jobs", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  app::ParseError err;
  const auto scenario = app::load_scenario(argv[1], &err);
  if (!scenario) {
    std::fprintf(stderr, "%s:%d: %s\n", argv[1], err.line, err.message.c_str());
    return 1;
  }
  if (!scenario->failures.empty() || !scenario->crashes.empty()) {
    std::fprintf(stderr,
                 "scenario has fail/crash lines; sweeps run the sharded "
                 "engine, which does not support live failure injection — "
                 "use ncfn-run\n");
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

  const auto cells = app::run_sweep(*scenario, plan, matrix, jobs);
  const std::string json = app::sweep_json(argv[1], matrix, cells);
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr ||
      std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    if (f != nullptr) std::fclose(f);
    return 1;
  }
  std::fclose(f);
  return 0;
}
