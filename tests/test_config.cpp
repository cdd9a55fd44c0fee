// Tests for the scenario file format parser.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "app/config.hpp"
#include "ctrl/problem.hpp"

using namespace ncfn;
using namespace ncfn::app;

namespace {
const char* kButterfly = R"(
# comment
alpha 0
node V1 host
node O2 host
node C2 host
node O1 dc bin=200 bout=200 cap=200
node C1 dc bin=200 bout=200 cap=200
node T  dc bin=200 bout=200 cap=200
node V2 dc bin=200 bout=200 cap=200
edge V1 O1 30 35
edge V1 C1 25 35
edge O1 O2 15 35
edge C1 C2 12 35
edge O1 T  20 35
edge C1 T  17 35
edge T  V2 18 35
edge V2 O2 21 35
edge V2 C2 19 35
session 1 V1 -> O2 C2 lmax=150
)";
}  // namespace

TEST(Config, ParsesButterflyScenario) {
  ParseError err;
  const auto s = parse_scenario(kButterfly, &err);
  ASSERT_TRUE(s.has_value()) << err.line << ": " << err.message;
  EXPECT_EQ(s->topo.node_count(), 7);
  EXPECT_EQ(s->topo.edge_count(), 9);
  EXPECT_DOUBLE_EQ(s->alpha, 0.0);
  ASSERT_EQ(s->sessions.size(), 1u);
  EXPECT_EQ(s->sessions[0].id, 1u);
  EXPECT_EQ(s->sessions[0].receivers.size(), 2u);
  EXPECT_NEAR(s->sessions[0].lmax_s, 0.150, 1e-12);
  // Node attributes converted to bps.
  const auto o1 = s->nodes.at("O1");
  EXPECT_EQ(s->topo.node(o1).kind, graph::NodeKind::kDataCenter);
  EXPECT_NEAR(s->topo.node(o1).bin_bps, 200e6, 1);
  // Edge attributes: ms -> s, Mbps -> bps.
  const auto e = s->topo.find_edge(s->nodes.at("V1"), s->nodes.at("O1"));
  ASSERT_NE(e, -1);
  EXPECT_NEAR(s->topo.edge(e).delay_s, 0.030, 1e-12);
  EXPECT_NEAR(s->topo.edge(e).capacity_bps, 35e6, 1);
}

TEST(Config, ParsedScenarioSolvesToButterflyCapacity) {
  const auto s = parse_scenario(kButterfly);
  ASSERT_TRUE(s.has_value());
  ctrl::DeploymentProblem prob;
  prob.topo = &s->topo;
  prob.sessions = s->sessions;
  prob.alpha = s->alpha;
  const auto plan = ctrl::solve_deployment(prob);
  ASSERT_TRUE(plan.feasible);
  EXPECT_NEAR(plan.lambda_mbps[0], 70.0, 0.5);
}

TEST(Config, DuplexCreatesBothDirections) {
  const auto s = parse_scenario(
      "node a dc\nnode b dc\nduplex a b 10 50\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_NE(s->topo.find_edge(0, 1), -1);
  EXPECT_NE(s->topo.find_edge(1, 0), -1);
}

TEST(Config, UncappedEdgeIsInfinite) {
  const auto s = parse_scenario("node a dc\nnode b dc\nedge a b 5\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_FALSE(std::isfinite(s->topo.edge(0).capacity_bps));
}

TEST(Config, SessionOptions) {
  const auto s = parse_scenario(
      "node a host\nnode b host\nnode d dc\n"
      "edge a d 5\nedge d b 5\n"
      "session 7 a -> b lmax=80 rate=25 maxrate=100\n");
  ASSERT_TRUE(s.has_value());
  const auto& spec = s->sessions.at(0);
  EXPECT_EQ(spec.id, 7u);
  EXPECT_NEAR(spec.lmax_s, 0.080, 1e-12);
  ASSERT_TRUE(spec.fixed_rate_mbps.has_value());
  EXPECT_DOUBLE_EQ(*spec.fixed_rate_mbps, 25.0);
  ASSERT_TRUE(spec.max_rate_mbps.has_value());
  EXPECT_DOUBLE_EQ(*spec.max_rate_mbps, 100.0);
}

TEST(Config, ErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    int line;
  };
  const Case cases[] = {
      {"node a dc\nnode a host\n", 2},            // duplicate name
      {"node a dc\nedge a bogus 5\n", 2},         // unknown node
      {"wibble\n", 1},                            // unknown keyword
      {"node a wrongkind\n", 1},                  // bad node kind
      {"node a dc zap=1\n", 1},                   // unknown option
      {"node a dc\nnode b host\nedge a b xyz\n", 3},  // bad delay
      {"node a host\nsession 1 a ->\n", 2},       // no receivers
      {"alpha banana\n", 1},                      // bad alpha
      {"node s host\nnode d host\n"
       "session 1 s -> d\nsession 1 s -> d\n", 4},  // duplicate session id
      {"node a dc\nnode b dc\n"
       "edge a b 5 10\nedge a b 5 20\n", 4},      // parallel edge
      {"node a dc\nnode b dc\n"
       "duplex a b 5 10\nedge b a 5 20\n", 4},    // edge after duplex
      {"node a dc\nnode b dc\n"
       "edge b a 5 10\nduplex a b 5 20\n", 4},    // duplex after edge
      {"batch 0\n", 1},                           // batch below 1
      {"batch 33\n", 1},                          // batch past capacity
      {"batch 2.5\n", 1},                         // batch not an integer
  };
  for (const Case& c : cases) {
    ParseError err;
    EXPECT_FALSE(parse_scenario(c.text, &err).has_value()) << c.text;
    EXPECT_EQ(err.line, c.line) << c.text << " -> " << err.message;
  }
}

TEST(Config, BatchAcceptsOneToThePacketBatchCapacity) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{32}}) {
    ParseError err;
    const auto s = parse_scenario("batch " + std::to_string(n) + "\n", &err);
    ASSERT_TRUE(s.has_value()) << n << ": " << err.message;
    EXPECT_EQ(s->max_batch, n);
  }
}

TEST(Config, LoadScenarioReportsMissingFile) {
  ParseError err;
  EXPECT_FALSE(load_scenario("/nonexistent/path.ncfn", &err).has_value());
  EXPECT_EQ(err.line, 0);
}

TEST(Config, ShippedScenarioFilesParse) {
  // The repository's example scenario files must stay valid.
  for (const char* path : {"tools/scenarios/butterfly.ncfn",
                           "tools/scenarios/two_sessions.ncfn",
                           "tools/scenarios/diamond_fault.ncfn"}) {
    ParseError err;
    const auto s = load_scenario(std::string(NCFN_SOURCE_DIR) + "/" + path,
                                 &err);
    EXPECT_TRUE(s.has_value())
        << path << ":" << err.line << ": " << err.message;
  }
}

TEST(Config, ParsesFailAndCrashLines) {
  const auto s = parse_scenario(
      "node a dc cap=100\nnode b dc cap=100\nduplex a b 5 100\n"
      "fail a b at=2 for=1.5\n"
      "fail b a at=5\n"
      "crash a at=3 for=0.5\n"
      "crash b at=4\n");
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->failures.size(), 2u);
  EXPECT_EQ(s->failures[0].from, s->nodes.at("a"));
  EXPECT_EQ(s->failures[0].to, s->nodes.at("b"));
  EXPECT_DOUBLE_EQ(s->failures[0].at_s, 2.0);
  EXPECT_DOUBLE_EQ(s->failures[0].for_s, 1.5);
  EXPECT_DOUBLE_EQ(s->failures[1].at_s, 5.0);
  EXPECT_DOUBLE_EQ(s->failures[1].for_s, 0.0);  // stays down
  ASSERT_EQ(s->crashes.size(), 2u);
  EXPECT_EQ(s->crashes[0].node, s->nodes.at("a"));
  EXPECT_DOUBLE_EQ(s->crashes[0].at_s, 3.0);
  EXPECT_DOUBLE_EQ(s->crashes[0].for_s, 0.5);
  EXPECT_DOUBLE_EQ(s->crashes[1].for_s, 0.0);  // default restart latency
}

TEST(Config, RejectsMalformedFailAndCrashLines) {
  struct Case {
    const char* text;
    int line;
  };
  const char* preamble =
      "node a dc cap=100\nnode b dc cap=100\nnode h host\nedge a b 5 100\n";
  const Case cases[] = {
      {"fail a b\n", 5},             // missing at=
      {"fail a bogus at=1\n", 5},    // unknown node
      {"fail b a at=1\n", 5},        // no such edge (a->b only)
      {"fail a b at=-1\n", 5},       // negative time
      {"fail a b at=1 zap=2\n", 5},  // unknown option
      {"crash a\n", 5},              // missing at=
      {"crash bogus at=1\n", 5},     // unknown node
      {"crash h at=1\n", 5},         // host, not a data center
      {"crash a at=1 for=-2\n", 5},  // negative duration
  };
  for (const Case& c : cases) {
    ParseError err;
    const std::string text = std::string(preamble) + c.text;
    EXPECT_FALSE(parse_scenario(text, &err).has_value()) << c.text;
    EXPECT_EQ(err.line, c.line) << c.text << " -> " << err.message;
  }
}
