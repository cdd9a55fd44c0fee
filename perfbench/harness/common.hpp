// Shared bits of the API harnesses: flag parsing, the wall clock, the
// harness-side spans of the traced variants, and the result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#ifdef PERFBENCH_TRACED
#include "trace/span.hpp"
/// A span around a call the harness makes itself (traced build only).
#define PB_SPAN(key) \
  const perfbench::trace::Span pb_span_(perfbench::trace::Key::key)
#else
#define PB_SPAN(key) static_assert(true)
#endif

namespace perfbench::harness {

/// `--name value` pairs; every flag must be known and every value numeric.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) usage(argv[i]);
      pairs_.emplace_back(argv[i] + 2, argv[i + 1]);
      ++i;
    }
  }

  double num(const char* name, double fallback) {
    for (auto& [key, value] : pairs_) {
      if (key != name) continue;
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') usage(value.c_str());
      key.clear();  // consumed
      return v;
    }
    return fallback;
  }

  /// Call after every num(): rejects flags nobody asked for.
  void done() const {
    for (const auto& [key, value] : pairs_) {
      if (!key.empty()) usage(key.c_str());
    }
  }

 private:
  [[noreturn]] static void usage(const char* bad) {
    std::fprintf(stderr, "bad argument: %s\n", bad);
    std::exit(2);
  }
  std::vector<std::pair<std::string, std::string>> pairs_;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Comma-separated numbers with all their digits.
inline std::string join(const std::vector<double>& xs) {
  std::string out;
  char buf[40];
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", xs[i]);
    out += buf;
  }
  return out;
}

/// JSON string literal of a plain-ASCII message.
inline std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench::harness
