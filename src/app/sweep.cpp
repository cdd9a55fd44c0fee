#include "app/sweep.hpp"

#include <cstdio>

#include "app/shard.hpp"
#include "netsim/worker.hpp"

namespace ncfn::app {

std::vector<SweepCell> run_sweep(const Scenario& scenario,
                                 const ctrl::DeploymentPlan& plan,
                                 const SweepMatrix& matrix,
                                 std::size_t jobs) {
  std::vector<SweepCell> cells(matrix.cell_count());
  netsim::WorkerPool pool(jobs);
  // Each job writes only its own pre-sized slot: no shared state, no
  // ordering dependence on which lane ran which cell. Captures are
  // named (not a default [&]) so ncfn-lint's ref-capture-thread rule
  // can hold every pool submit to an explicit reachable-state list.
  pool.run(cells.size(), [&cells, &matrix, &scenario, &plan](std::size_t j) {
    const std::size_t bi = j % matrix.batches.size();
    const std::size_t li = (j / matrix.batches.size()) % matrix.losses.size();
    const std::size_t si = j / (matrix.batches.size() * matrix.losses.size());

    Scenario cell_scenario = scenario;
    if (matrix.batches[bi] != 0) cell_scenario.max_batch = matrix.batches[bi];

    RunOptions opts;
    opts.workers = 1;  // parallelism lives across cells, not inside one
    opts.duration_s = matrix.duration_s;
    opts.redundancy = matrix.redundancy;
    opts.loss = matrix.losses[li];
    opts.seed = matrix.seeds[si];
    ScenarioRun run(cell_scenario, plan, opts);
    run.run();

    SweepCell& cell = cells[j];
    cell.seed = matrix.seeds[si];
    cell.loss = matrix.losses[li];
    cell.batch = cell_scenario.max_batch;
    cell.events = run.events_executed();
    cell.shards = run.shard_plan().shard_count();
    double sum = 0;
    std::size_t n = 0;
    for (const ReceiverReport& r : run.reports()) {
      if (n == 0 || r.goodput_mbps < cell.min_goodput_mbps) {
        cell.min_goodput_mbps = r.goodput_mbps;
      }
      sum += r.goodput_mbps;
      ++n;
      cell.repair_requests += r.repair_requests;
      cell.verify_failures += r.verify_failures;
    }
    cell.mean_goodput_mbps = n == 0 ? 0 : sum / static_cast<double>(n);
  });
  return cells;
}

std::string sweep_json(const std::string& scenario_name,
                       const SweepMatrix& matrix,
                       const std::vector<SweepCell>& cells) {
  std::string out;
  char buf[256];
  out += "{\n";
  out += "  \"scenario\": \"" + scenario_name + "\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"duration_s\": %.3f,\n  \"redundancy\": %d,\n",
                matrix.duration_s, matrix.redundancy);
  out += buf;
  out += "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& c = cells[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"seed\": %u, \"loss\": %.4f, \"batch\": %zu, "
                  "\"min_goodput_mbps\": %.3f, \"mean_goodput_mbps\": %.3f, "
                  "\"repair_requests\": %llu, \"verify_failures\": %llu, "
                  "\"events\": %llu, \"shards\": %zu}%s\n",
                  c.seed, c.loss, c.batch, c.min_goodput_mbps,
                  c.mean_goodput_mbps,
                  static_cast<unsigned long long>(c.repair_requests),
                  static_cast<unsigned long long>(c.verify_failures),
                  static_cast<unsigned long long>(c.events), c.shards,
                  i + 1 == cells.size() ? "" : ",");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace ncfn::app
