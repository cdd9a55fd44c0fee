// Fuzz target: scenario/config file parsing (app::parse_scenario).
//
// The raw input is the scenario text. Contracts checked per input:
//   * parse_scenario() never throws — the line parser and its checked
//     numeric fields are total functions;
//   * rejection always carries a diagnostic: a 1-based line number no
//     larger than the line count, plus a non-empty message;
//   * an accepted scenario is internally consistent: every session's
//     source/receivers and every failure/crash target is a node the
//     topology actually contains, and no ordered pair of nodes has two
//     edges (the simulator builds one link per pair).
#include <algorithm>
#include <string>

#include "app/config.hpp"
#include "harness.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace ncfn;
  const std::string text(data, data + size);

  app::ParseError err;
  const auto sc = app::parse_scenario(text, &err);
  fuzzing::note(sc.has_value() ? 1 : 0);
  if (!sc.has_value()) {
    const auto line_count =
        static_cast<long>(std::count(text.begin(), text.end(), '\n')) + 1;
    fuzzing::check(err.line >= 1 && err.line <= line_count,
                   "parse error must name a real 1-based line");
    fuzzing::check(!err.message.empty(),
                   "parse error must carry a message");
    fuzzing::note(static_cast<std::uint64_t>(err.line));
    fuzzing::note_text(err.message);
    return 0;
  }

  const int n = sc->topo.node_count();
  fuzzing::check(static_cast<int>(sc->nodes.size()) == n,
                 "name map and topology must agree on node count");
  for (int e = 0; e < sc->topo.edge_count(); ++e) {
    const graph::EdgeInfo& ei = sc->topo.edge(e);
    fuzzing::check(sc->topo.find_edge(ei.from, ei.to) == e,
                   "an ordered pair of nodes has at most one edge");
  }
  for (const auto& s : sc->sessions) {
    fuzzing::check(s.source >= 0 && s.source < n,
                   "session source must be a topology node");
    fuzzing::check(!s.receivers.empty(), "session must have receivers");
    for (const auto r : s.receivers) {
      fuzzing::check(r >= 0 && r < n,
                     "session receiver must be a topology node");
    }
  }
  for (const auto& f : sc->failures) {
    fuzzing::check(f.from >= 0 && f.from < n && f.to >= 0 && f.to < n,
                   "failure endpoints must be topology nodes");
    fuzzing::check(f.at_s >= 0 && f.for_s >= 0,
                   "failure schedule must be non-negative");
  }
  for (const auto& c : sc->crashes) {
    fuzzing::check(c.node >= 0 && c.node < n,
                   "crash target must be a topology node");
    fuzzing::check(c.at_s >= 0 && c.for_s >= 0,
                   "crash schedule must be non-negative");
  }
  fuzzing::note(static_cast<std::uint64_t>(n));
  fuzzing::note(sc->sessions.size());
  fuzzing::note(sc->failures.size());
  fuzzing::note(sc->crashes.size());
  return 0;
}
