// Golden-file comparison shared by the suites that pin outputs byte for
// byte (tests/golden/). After an *intentional* behaviour change,
// regenerate with NCFN_UPDATE_GOLDEN=1 and the test binary that owns the
// file, then commit the diff.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace ncfn::golden {

inline void check_golden(const std::string& name, const std::string& actual) {
  const std::string path =
      std::string(NCFN_SOURCE_DIR) + "/tests/golden/" + name;
  if (std::getenv("NCFN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << path << " missing — run the owning test with NCFN_UPDATE_GOLDEN=1";
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string expected = ss.str();
  // EXPECT_EQ on multi-MB strings produces unreadable failures; compare
  // prefix-wise and report the first diverging line instead.
  if (actual == expected) return;
  std::size_t line = 1, pos = 0;
  const std::size_t n = std::min(actual.size(), expected.size());
  while (pos < n && actual[pos] == expected[pos]) {
    if (actual[pos] == '\n') ++line;
    ++pos;
  }
  FAIL() << name << " diverges from golden at line " << line
         << " (byte " << pos << "; " << actual.size() << " vs "
         << expected.size() << " bytes). Intentional change? Regenerate "
         << "with NCFN_UPDATE_GOLDEN=1 and commit the diff.";
}

}  // namespace ncfn::golden
