// Scenario files: a line-oriented text format describing an overlay and
// its multicast sessions, consumed by the CLI tools (tools/ncfn-plan,
// tools/ncfn-run, tools/ncfn-sweep) and usable by any embedder.
//
//   # comments and blank lines are ignored
//   alpha 20                                # VNF cost (Mbps-equivalent)
//   batch 32                                # VNF lane batch size (1..32)
//   workers 4                               # run sharded across 4 workers
//   node V1 host [bin=400] [bout=500]       # caps in Mbps, optional
//   node O1 dc bin=200 bout=200 cap=200     # cap = C(v), coding rate
//   edge V1 O1 30 35                        # delay_ms capacity_Mbps
//   duplex O1 C1 12 100                     # both directions
//   edge O1 O2 15                           # capacity omitted = unlimited
//   session 1 V1 -> O2 C2 lmax=150 maxrate=200
//   session 2 V1 -> C2 rate=25              # fixed-rate (live stream)
//   fail O1 O2 at=2 for=1.5                 # link outage at t=2s for 1.5s
//   fail O1 O2 at=5                         # ... at t=5s, stays down
//   crash O1 at=3 for=0.5                   # coding-process crash at t=3s,
//                                           # cold restart 0.5s later
//
// Node references resolve by name; sessions may appear before or after
// the nodes they reference are declared only if declared-before-use —
// the parser is single-pass and reports the offending line on error.
// An ordered pair of nodes has at most one edge: a second `edge`, or a
// `duplex` over a direction that already has one, is an error.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "coding/batch.hpp"
#include "ctrl/problem.hpp"
#include "graph/topology.hpp"

namespace ncfn::app {

/// A scheduled link outage (`fail <from> <to> at=<s> [for=<s>]`).
struct LinkFailure {
  graph::NodeIdx from = 0;
  graph::NodeIdx to = 0;
  double at_s = 0;
  double for_s = 0;  // 0 = the link stays down
};

/// A scheduled coding-process crash (`crash <node> at=<s> [for=<s>]`).
struct VnfCrash {
  graph::NodeIdx node = 0;
  double at_s = 0;
  double for_s = 0;  // 0 = the default cold-restart latency
};

struct Scenario {
  graph::Topology topo;
  std::map<std::string, graph::NodeIdx> nodes;  // name -> index
  std::vector<ctrl::SessionSpec> sessions;
  std::vector<LinkFailure> failures;
  std::vector<VnfCrash> crashes;
  double alpha = 20.0;
  /// VNF lane batch size (`batch <n>`, 1..coding::kBatchCapacity):
  /// packets drained per lane service event. 1 = strict per-packet
  /// processing (the pre-batching baseline).
  std::size_t max_batch = coding::kBatchCapacity;
  /// Worker threads app::ScenarioRun runs the shards on (`workers <n>`,
  /// >= 1). Never affects results — only which threads execute which
  /// shard.
  std::size_t workers = 1;

  [[nodiscard]] std::string node_name(graph::NodeIdx idx) const;
};

struct ParseError {
  int line = 0;          // 1-based line number
  std::string message;
};

/// Parse a scenario from text. Returns the scenario or a ParseError
/// naming the first offending line.
[[nodiscard]] std::optional<Scenario> parse_scenario(const std::string& text,
                                                     ParseError* error = nullptr);

/// Convenience: read and parse a scenario file from disk. Returns
/// std::nullopt (with `error`) if the file is unreadable or malformed.
[[nodiscard]] std::optional<Scenario> load_scenario(const std::string& path,
                                                    ParseError* error = nullptr);

}  // namespace ncfn::app
