// Embarrassingly-parallel scenario sweeps: fan a (seeds x losses x
// batches) matrix over one scenario across worker lanes, one full
// ScenarioRun per cell, and emit one deterministic JSON document.
//
// Parallelism here is ACROSS runs, not within them: each cell runs with
// an inline single-worker runner, so a cell's result is a pure function
// of (scenario, plan, cell parameters). Cells land in a pre-sized slot
// array indexed by cell position, so the output JSON is in matrix order
// and byte-identical for any --jobs value — the same contract the
// multi-worker engine makes for worker counts.
#pragma once

#include <string>
#include <vector>

#include "app/config.hpp"
#include "ctrl/problem.hpp"

namespace ncfn::app {

/// The sweep matrix: every combination of seed x loss x batch runs once.
/// Cell order (and so output order) is seeds outermost, batches innermost.
struct SweepMatrix {
  std::vector<std::uint32_t> seeds = {7};
  std::vector<double> losses = {0.0};
  std::vector<std::size_t> batches = {0};  // 0 = keep the scenario's batch
  double duration_s = 5.0;
  int redundancy = 0;

  [[nodiscard]] std::size_t cell_count() const {
    return seeds.size() * losses.size() * batches.size();
  }
};

/// One cell's aggregate results (reduced over all sessions/receivers).
struct SweepCell {
  std::uint32_t seed = 0;
  double loss = 0;
  std::size_t batch = 0;
  double min_goodput_mbps = 0;   // the multicast-rate bottleneck
  double mean_goodput_mbps = 0;  // across all receivers
  std::uint64_t repair_requests = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t events = 0;  // simulator events executed
  std::size_t shards = 0;
};

/// Run every cell of the matrix, fanned across `jobs` worker lanes.
/// Results come back in matrix order regardless of `jobs`.
[[nodiscard]] std::vector<SweepCell> run_sweep(const Scenario& scenario,
                                               const ctrl::DeploymentPlan& plan,
                                               const SweepMatrix& matrix,
                                               std::size_t jobs);

/// Deterministic JSON document for a finished sweep. `scenario_name` is
/// echoed verbatim (pass the file path). The jobs count is deliberately
/// NOT recorded: the document must be byte-identical for any fan-out.
[[nodiscard]] std::string sweep_json(const std::string& scenario_name,
                                     const SweepMatrix& matrix,
                                     const std::vector<SweepCell>& cells);

}  // namespace ncfn::app
