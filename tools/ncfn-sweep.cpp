// ncfn-sweep — fan a scenario matrix (seeds x losses x batch sizes)
// across worker lanes and emit one deterministic metrics JSON document.
//
//   ncfn-sweep <scenario-file> [--seeds <a,b,...>] [--loss <a,b,...>]
//              [--batch <a,b,...>] [--duration <s>] [--redundancy <n>]
//              [--jobs <n>] [--out <file>]
//
// Every (seed, loss, batch) combination runs as one independent
// single-worker app::ScenarioRun (fail/crash scenarios included);
// --jobs only picks the fan-out and never appears in the output, so the
// same matrix produces byte-identical JSON for any job count (CI
// exploits this the same way it checks ncfn-run --workers).
//
// An unknown option, a stray argument or an option without its value
// prints the usage line and exits 2.
#include <cstdio>
#include <cstdlib>
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

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario-file> [--seeds <a,b,...>] "
               "[--loss <a,b,...>] [--batch <a,b,...>] [--duration <s>] "
               "[--redundancy <n>] [--jobs <n>] [--out <file>]\n",
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
  app::SweepMatrix matrix;
  std::size_t jobs = 1;
  std::string out_path;
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
    if (option("--seeds")) {
      matrix.seeds = arg_list<std::uint32_t>(flag, value);
    } else if (option("--loss")) {
      matrix.losses = arg_list<double>(flag, value);
    } else if (option("--batch")) {
      matrix.batches = arg_list<std::size_t>(flag, value);
    } else if (option("--duration")) {
      matrix.duration_s = arg_num<double>(flag, value);
    } else if (option("--redundancy")) {
      matrix.redundancy = arg_num<int>(flag, value);
    } else if (option("--jobs")) {
      jobs = arg_num<std::size_t>(flag, value);
    } else if (option("--out")) {
      out_path = value;
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

  const auto cells = app::run_sweep(*scenario, plan, matrix, jobs);
  const std::string json = app::sweep_json(argv[1], matrix, cells);
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  if (!write_file(out_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
