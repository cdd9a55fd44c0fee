#include "app/config.hpp"

#include <fstream>
#include <sstream>

#include "coding/strparse.hpp"

namespace ncfn::app {

namespace {

bool parse_double(const std::string& s, double& out) {
  const auto v = coding::parse_num<double>(s);
  if (!v) return false;
  out = *v;
  return true;
}

/// Splits "key=value" options; returns false on a malformed token.
bool parse_option(const std::string& tok, std::string& key, double& value) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= tok.size()) {
    return false;
  }
  key = tok.substr(0, eq);
  return parse_double(tok.substr(eq + 1), value);
}

struct LineParser {
  Scenario& scenario;
  ParseError* error;
  int line_no = 0;

  bool fail(const std::string& msg) {
    if (error != nullptr) *error = ParseError{line_no, msg};
    return false;
  }

  std::optional<graph::NodeIdx> lookup(const std::string& name) {
    auto it = scenario.nodes.find(name);
    if (it == scenario.nodes.end()) return std::nullopt;
    return it->second;
  }

  bool handle_node(std::istringstream& in) {
    std::string name, kind;
    if (!(in >> name >> kind)) return fail("node needs: node <name> dc|host");
    if (scenario.nodes.count(name) > 0) {
      return fail("duplicate node name '" + name + "'");
    }
    graph::NodeInfo ni;
    ni.name = name;
    if (kind == "dc") {
      ni.kind = graph::NodeKind::kDataCenter;
    } else if (kind == "host") {
      ni.kind = graph::NodeKind::kHost;
    } else {
      return fail("node kind must be 'dc' or 'host', got '" + kind + "'");
    }
    std::string tok;
    while (in >> tok) {
      std::string key;
      double v = 0;
      if (!parse_option(tok, key, v)) return fail("bad option '" + tok + "'");
      if (key == "bin") {
        ni.bin_bps = v * 1e6;
      } else if (key == "bout") {
        ni.bout_bps = v * 1e6;
      } else if (key == "cap") {
        ni.vnf_capacity_bps = v * 1e6;
      } else {
        return fail("unknown node option '" + key + "'");
      }
    }
    scenario.nodes[name] = scenario.topo.add_node(std::move(ni));
    return true;
  }

  bool handle_edge(std::istringstream& in, bool duplex) {
    std::string from, to;
    double delay_ms = 0;
    if (!(in >> from >> to >> delay_ms)) {
      return fail("edge needs: edge <from> <to> <delay_ms> [capacity_Mbps]");
    }
    const auto f = lookup(from);
    const auto t = lookup(to);
    if (!f) return fail("unknown node '" + from + "'");
    if (!t) return fail("unknown node '" + to + "'");
    double cap_mbps = -1;
    std::string rest;
    if (in >> rest) {
      if (!parse_double(rest, cap_mbps) || cap_mbps <= 0) {
        return fail("bad capacity '" + rest + "'");
      }
    }
    const double cap_bps = cap_mbps > 0 ? cap_mbps * 1e6 : graph::kInf;
    // One link per ordered pair: the simulator has no parallel links.
    if (scenario.topo.find_edge(*f, *t) >= 0) {
      return fail("duplicate edge " + from + " -> " + to);
    }
    scenario.topo.add_edge(*f, *t, delay_ms / 1e3, cap_bps);
    if (!duplex) return true;
    if (scenario.topo.find_edge(*t, *f) >= 0) {
      return fail("duplicate edge " + to + " -> " + from);
    }
    scenario.topo.add_edge(*t, *f, delay_ms / 1e3, cap_bps);
    return true;
  }

  bool handle_session(std::istringstream& in) {
    ctrl::SessionSpec spec;
    std::string id_tok, src, arrow;
    if (!(in >> id_tok >> src >> arrow) || arrow != "->") {
      return fail("session needs: session <id> <source> -> <receivers...>");
    }
    const auto id = coding::parse_num<coding::SessionId>(id_tok);
    if (!id) return fail("bad session id '" + id_tok + "'");
    spec.id = *id;
    const auto s = lookup(src);
    if (!s) return fail("unknown node '" + src + "'");
    spec.source = *s;
    std::string tok;
    while (in >> tok) {
      if (tok.find('=') != std::string::npos) {
        std::string key;
        double v = 0;
        if (!parse_option(tok, key, v)) return fail("bad option '" + tok + "'");
        if (key == "lmax") {
          spec.lmax_s = v / 1e3;
        } else if (key == "rate") {
          spec.fixed_rate_mbps = v;
        } else if (key == "maxrate") {
          spec.max_rate_mbps = v;
        } else {
          return fail("unknown session option '" + key + "'");
        }
      } else {
        const auto r = lookup(tok);
        if (!r) return fail("unknown node '" + tok + "'");
        spec.receivers.push_back(*r);
      }
    }
    if (spec.receivers.empty()) return fail("session has no receivers");
    for (const auto& other : scenario.sessions) {
      if (other.id == spec.id) return fail("duplicate session id");
    }
    scenario.sessions.push_back(std::move(spec));
    return true;
  }

  bool handle_fail(std::istringstream& in) {
    std::string from, to;
    if (!(in >> from >> to)) {
      return fail("fail needs: fail <from> <to> at=<s> [for=<s>]");
    }
    const auto f = lookup(from);
    const auto t = lookup(to);
    if (!f) return fail("unknown node '" + from + "'");
    if (!t) return fail("unknown node '" + to + "'");
    if (scenario.topo.find_edge(*f, *t) < 0) {
      return fail("no edge " + from + " -> " + to);
    }
    LinkFailure lf;
    lf.from = *f;
    lf.to = *t;
    bool have_at = false;
    std::string tok;
    while (in >> tok) {
      std::string key;
      double v = 0;
      if (!parse_option(tok, key, v)) return fail("bad option '" + tok + "'");
      if (key == "at") {
        lf.at_s = v;
        have_at = true;
      } else if (key == "for") {
        lf.for_s = v;
      } else {
        return fail("unknown fail option '" + key + "'");
      }
    }
    if (!have_at || lf.at_s < 0 || lf.for_s < 0) {
      return fail("fail needs at=<s> >= 0 (and for=<s> >= 0)");
    }
    scenario.failures.push_back(lf);
    return true;
  }

  bool handle_crash(std::istringstream& in) {
    std::string node;
    if (!(in >> node)) return fail("crash needs: crash <node> at=<s> [for=<s>]");
    const auto n = lookup(node);
    if (!n) return fail("unknown node '" + node + "'");
    if (scenario.topo.node(*n).kind != graph::NodeKind::kDataCenter) {
      return fail("crash target '" + node + "' is not a data center");
    }
    VnfCrash c;
    c.node = *n;
    bool have_at = false;
    std::string tok;
    while (in >> tok) {
      std::string key;
      double v = 0;
      if (!parse_option(tok, key, v)) return fail("bad option '" + tok + "'");
      if (key == "at") {
        c.at_s = v;
        have_at = true;
      } else if (key == "for") {
        c.for_s = v;
      } else {
        return fail("unknown crash option '" + key + "'");
      }
    }
    if (!have_at || c.at_s < 0 || c.for_s < 0) {
      return fail("crash needs at=<s> >= 0 (and for=<s> >= 0)");
    }
    scenario.crashes.push_back(c);
    return true;
  }

  bool handle(const std::string& line) {
    std::istringstream in(line);
    std::string keyword;
    if (!(in >> keyword)) return true;  // blank
    if (keyword[0] == '#') return true;
    if (keyword == "node") return handle_node(in);
    if (keyword == "edge") return handle_edge(in, /*duplex=*/false);
    if (keyword == "duplex") return handle_edge(in, /*duplex=*/true);
    if (keyword == "session") return handle_session(in);
    if (keyword == "fail") return handle_fail(in);
    if (keyword == "crash") return handle_crash(in);
    if (keyword == "alpha") {
      std::string v;
      if (!(in >> v) || !parse_double(v, scenario.alpha)) {
        return fail("alpha needs a number");
      }
      return true;
    }
    if (keyword == "batch") {
      std::string v;
      double n = 0;
      if (!(in >> v) || !parse_double(v, n) || n < 1 ||
          n != static_cast<double>(static_cast<std::size_t>(n))) {
        return fail("batch needs a positive integer");
      }
      if (n > static_cast<double>(coding::kBatchCapacity)) {
        return fail("batch exceeds the PacketBatch capacity of " +
                    std::to_string(coding::kBatchCapacity));
      }
      scenario.max_batch = static_cast<std::size_t>(n);
      return true;
    }
    if (keyword == "workers") {
      std::string v;
      double n = 0;
      if (!(in >> v) || !parse_double(v, n) || n < 1 ||
          n != static_cast<double>(static_cast<std::size_t>(n))) {
        return fail("workers needs a positive integer");
      }
      scenario.workers = static_cast<std::size_t>(n);
      return true;
    }
    return fail("unknown keyword '" + keyword + "'");
  }
};

}  // namespace

std::string Scenario::node_name(graph::NodeIdx idx) const {
  return topo.node(idx).name;
}

std::optional<Scenario> parse_scenario(const std::string& text,
                                       ParseError* error) {
  Scenario scenario;
  LineParser parser{scenario, error};
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++parser.line_no;
    if (!parser.handle(line)) return std::nullopt;
  }
  return scenario;
}

std::optional<Scenario> load_scenario(const std::string& path,
                                      ParseError* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = ParseError{0, "cannot open '" + path + "'"};
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario(buf.str(), error);
}

}  // namespace ncfn::app
