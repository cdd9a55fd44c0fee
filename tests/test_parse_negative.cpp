// Negative tests for the hardened text parsers: every malformed input
// class the fuzz harnesses assert against, pinned as named regressions.
// The positive paths live in test_ctrl / test_config / test_fuzz; this
// suite is the rejection catalogue — checked parse_num semantics, the
// forwarding-table grammar hardening (duplicates, overlong lines,
// trailing bytes), and the strict NC_* signal field rules.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "app/config.hpp"
#include "coding/strparse.hpp"
#include "ctrl/fwdtable.hpp"
#include "ctrl/signals.hpp"

using namespace ncfn;
using coding::parse_num;

// ---- parse_num<T> ----------------------------------------------------

TEST(ParseNum, AcceptsPlainIntegers) {
  EXPECT_EQ(parse_num<std::uint32_t>("0"), 0u);
  EXPECT_EQ(parse_num<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_EQ(parse_num<int>("-17"), -17);
  EXPECT_EQ(parse_num<std::uint16_t>("65535"), 65535u);
}

TEST(ParseNum, RejectsTrailingGarbage) {
  EXPECT_FALSE(parse_num<std::uint32_t>("12abc").has_value());
  EXPECT_FALSE(parse_num<std::uint32_t>("12 ").has_value());
  EXPECT_FALSE(parse_num<double>("1.5x").has_value());
  EXPECT_FALSE(parse_num<std::uint32_t>("0x10").has_value());
}

TEST(ParseNum, RejectsEmptyAndNonNumeric) {
  EXPECT_FALSE(parse_num<std::uint32_t>("").has_value());
  EXPECT_FALSE(parse_num<std::uint32_t>("abc").has_value());
  EXPECT_FALSE(parse_num<std::uint32_t>(" 1").has_value());
  EXPECT_FALSE(parse_num<std::uint32_t>("+1").has_value());
  EXPECT_FALSE(parse_num<double>("").has_value());
}

TEST(ParseNum, RejectsOutOfRange) {
  EXPECT_FALSE(parse_num<std::uint16_t>("65536").has_value());
  EXPECT_FALSE(parse_num<std::uint32_t>("4294967296").has_value());
  EXPECT_FALSE(parse_num<std::uint32_t>("-1").has_value());
  EXPECT_FALSE(parse_num<std::uint32_t>("99999999999999999999").has_value());
  EXPECT_FALSE(parse_num<double>("1e999").has_value());  // overflows to inf
}

TEST(ParseNum, RejectsNonFiniteDoubles) {
  EXPECT_FALSE(parse_num<double>("inf").has_value());
  EXPECT_FALSE(parse_num<double>("nan").has_value());
  EXPECT_TRUE(parse_num<double>("0.376").has_value());
  EXPECT_TRUE(parse_num<double>("1e3").has_value());
}

// ---- ForwardingTable grammar hardening -------------------------------

TEST(FwdTableNegative, RejectsDuplicateSessionRecords) {
  EXPECT_FALSE(ctrl::ForwardingTable::parse("1 2:3\n1 4:5\n").has_value());
  // Distinct sessions are of course fine.
  EXPECT_TRUE(ctrl::ForwardingTable::parse("1 2:3\n2 4:5\n").has_value());
}

TEST(FwdTableNegative, RejectsTrailingBytesAfterLastRecord) {
  EXPECT_FALSE(ctrl::ForwardingTable::parse("1 2:3").has_value());
  EXPECT_FALSE(ctrl::ForwardingTable::parse("1 2:3\n7 1:2").has_value());
  EXPECT_TRUE(ctrl::ForwardingTable::parse("1 2:3\n").has_value());
}

TEST(FwdTableNegative, RejectsOverlongLines) {
  std::string line = "1";
  for (int i = 0; i < 200; ++i) line += " " + std::to_string(i) + ":1";
  ASSERT_GT(line.size(), 512u);
  EXPECT_FALSE(ctrl::ForwardingTable::parse(line + "\n").has_value());
  // An overlong comment is just as rejected: line length gates first.
  EXPECT_FALSE(
      ctrl::ForwardingTable::parse("#" + std::string(600, 'x') + "\n")
          .has_value());
}

TEST(FwdTableNegative, RejectsOutOfRangeNodeAndPort) {
  EXPECT_FALSE(ctrl::ForwardingTable::parse("1 2:65536\n").has_value());
  EXPECT_FALSE(ctrl::ForwardingTable::parse("1 4294967296:2\n").has_value());
  EXPECT_FALSE(ctrl::ForwardingTable::parse("4294967296 1:2\n").has_value());
  EXPECT_TRUE(ctrl::ForwardingTable::parse("1 2:65535\n").has_value());
}

TEST(FwdTableNegative, RejectsSignsAndGarbageNumbers) {
  EXPECT_FALSE(ctrl::ForwardingTable::parse("-1 2:3\n").has_value());
  EXPECT_FALSE(ctrl::ForwardingTable::parse("1 -2:3\n").has_value());
  EXPECT_FALSE(ctrl::ForwardingTable::parse("1 2:3x\n").has_value());
  EXPECT_FALSE(ctrl::ForwardingTable::parse("1x 2:3\n").has_value());
}

// ---- NC_* signal frames ----------------------------------------------

TEST(SignalNegative, RejectsNumericGarbageInsteadOfThrowing) {
  // Pre-hardening these were uncaught std::stoul/stod exceptions.
  EXPECT_FALSE(ctrl::parse_signal("NC_START\nsession abc\nEND\n").has_value());
  EXPECT_FALSE(
      ctrl::parse_signal("NC_START\nsession 99999999999999999999\nEND\n")
          .has_value());
  EXPECT_FALSE(
      ctrl::parse_signal("NC_VNF_END\nvnf 1\ntau oops\nEND\n").has_value());
  EXPECT_FALSE(
      ctrl::parse_signal("NC_VNF_END\nvnf 1\ntau inf\nEND\n").has_value());
}

TEST(SignalNegative, RejectsTrailingGarbageInNumericFields) {
  EXPECT_FALSE(ctrl::parse_signal("NC_START\nsession 1x\nEND\n").has_value());
  EXPECT_FALSE(
      ctrl::parse_signal("NC_VNF_START\ndatacenter 2 \ncount 3\nEND\n")
          .has_value());
}

TEST(SignalNegative, RejectsUnknownAndDuplicateFields) {
  EXPECT_FALSE(
      ctrl::parse_signal("NC_START\nsession 1\ncolour blue\nEND\n")
          .has_value());
  EXPECT_FALSE(
      ctrl::parse_signal("NC_START\nsession 1\nsession 2\nEND\n").has_value());
}

TEST(SignalNegative, RejectsBytesAfterEnd) {
  EXPECT_FALSE(ctrl::parse_signal("NC_START\nsession 1\nEND\njunk\n")
                   .has_value());
  EXPECT_TRUE(ctrl::parse_signal("NC_START\nsession 1\nEND\n").has_value());
}

TEST(SignalNegative, RejectsSettingsSessionLineAnomalies) {
  const std::string head =
      "NC_SETTINGS\ngeneration_blocks 4\nblock_size 1460\n";
  // Out-of-range port (previously silently truncated by the uint16 cast).
  EXPECT_FALSE(
      ctrl::parse_signal(head + "session 3 recode 70000\nEND\n").has_value());
  // Trailing token after the port.
  EXPECT_FALSE(
      ctrl::parse_signal(head + "session 3 recode 20003 extra\nEND\n")
          .has_value());
  // Unknown role.
  EXPECT_FALSE(
      ctrl::parse_signal(head + "session 3 dance 20003\nEND\n").has_value());
  // The well-formed line still parses.
  const auto ok = ctrl::parse_signal(head + "session 3 recode 20003\nEND\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(std::get<ctrl::NcSettings>(*ok).sessions.size(), 1u);
}

TEST(SignalNegative, RejectsGenerationBlocksOutsideTheCodecBound) {
  // The codec runs generations of 1 to kMaxGenerationBlocks blocks; a
  // settings signal outside that range is refused where it is parsed.
  const auto settings = [](const std::string& g) {
    return ctrl::parse_signal("NC_SETTINGS\ngeneration_blocks " + g +
                              "\nblock_size 1460\nEND\n");
  };
  for (const char* bad : {"0", "257", "300", "4294967295"}) {
    EXPECT_FALSE(settings(bad).has_value()) << bad;
  }
  for (const char* good : {"1", "32", "256"}) {
    EXPECT_TRUE(settings(good).has_value()) << good;
  }
}

// ---- Scenario files ---------------------------------------------------

TEST(ScenarioNegative, RejectsNumericGarbageWithDiagnostics) {
  app::ParseError err;
  EXPECT_FALSE(app::parse_scenario("alpha notanumber\n", &err).has_value());
  EXPECT_EQ(err.line, 1);
  EXPECT_FALSE(
      app::parse_scenario("node V1 host\nnode O1 dc bin=1e999\n", &err)
          .has_value());
  EXPECT_EQ(err.line, 2);
  EXPECT_FALSE(app::parse_scenario("node V1 host\nnode O2 host\n"
                                   "session 12junk V1 -> O2\n",
                                   &err)
                   .has_value());
  EXPECT_EQ(err.line, 3);
}

TEST(ScenarioNegative, RejectsOutOfRangeSessionId) {
  app::ParseError err;
  EXPECT_FALSE(app::parse_scenario("node V1 host\nnode O2 host\n"
                                   "session 99999999999999999999 V1 -> O2\n",
                                   &err)
                   .has_value());
  EXPECT_EQ(err.line, 3);
}
