// ncfn-lint — repo-specific determinism & safety linter.
//
// The repo's headline guarantee is byte-identical same-seed runs: every
// trace, metric dump and fault schedule must replay exactly. That
// property is easy to break with one careless line — an unseeded RNG, a
// wall-clock read, iterating an unordered container into the trace — and
// golden-file diffs only catch the breakage after the fact. This tool
// enforces the invariants at lint time, before the golden diff ever runs:
//
//   wall-clock           no system_clock / argless time() / clock() /
//                        gettimeofday anywhere (sim time comes from the
//                        Simulator; bench code may use steady_clock)
//   unseeded-rng         no rand()/srand()/std::random_device — every
//                        random draw must flow from a seeded engine
//   unordered-iteration  no iteration over unordered containers in a
//                        file that emits trace or metrics output
//                        (iteration order is unspecified => trace order
//                        would depend on the allocator)
//   pointer-key          no std::map/std::set keyed on raw pointers
//                        (pointer order is allocation order => output
//                        derived from it is nondeterministic)
//   raw-new-delete       no raw new/delete in the hot-path dirs
//                        (src/gf, src/coding, src/netsim) — storage
//                        there is pooled or RAII-owned
//   iostream             no <iostream>/std::cout/std::cerr in the
//                        hot-path dirs (iostreams allocate, lock and
//                        interleave; the data plane must not)
//   raw-bytes            memcpy/memmove/reinterpret_cast only inside
//                        the approved byte-view header
//                        (src/coding/byteview.hpp)
//   throwing-numparse    no std::sto* / atoi / strtol-family string→
//                        number conversion outside the approved checked
//                        helper (src/coding/strparse.hpp) — control-
//                        plane text is untrusted; parsers must be total
//                        functions, not throw or accept trailing garbage
//   per-packet-kernel    no per-packet kernel entry points in the VNF
//                        hot path (src/vnf) — gf::bulk_* sweeps,
//                        Decoder::recode and Encoder::encode_random
//                        belong behind the batch APIs (recode_batch,
//                        encode_random_batch) so the coefficient draw
//                        and dispatch overhead amortize over a
//                        PacketBatch instead of recurring per packet
//   raw-thread           no std::thread / std::async / bare mutexes or
//                        condition variables outside the worker pool
//                        (src/netsim/worker.*), the annotated wrappers
//                        (src/common/sync.hpp) and the sweep driver
//                        (tools/ncfn-sweep.cpp) — ad-hoc concurrency
//                        cannot honour the worker-pool determinism
//                        contract; shard work through netsim::WorkerPool
//   mutex-unannotated    every mutex member must guard something: a
//                        file declaring a mutex must annotate at least
//                        one field NCFN_GUARDED_BY(that mutex), or the
//                        `analyze` preset has nothing to check
//   cv-wait-no-predicate condition-variable waits must sit in a
//                        predicate loop (`while (!ready) cv.wait(mu);`)
//                        — a naked wait misses spurious wakeups and
//                        races the notify
//   detached-thread      no .detach() — a detached thread outlives its
//                        captures and cannot be joined at the barrier
//   ref-capture-thread   no default [&] capture handed to a thread or
//                        pool entry point — cross-thread lambdas must
//                        name their captures so sharing is explicit
//   span-copy            no std::ranges::copy / copy_n in the data-plane
//                        dirs (src/gf, src/coding, src/netsim, src/vnf)
//                        — between byte spans gcc -O2 compiles it to a
//                        one-byte-per-iteration loop; coding::copy_bytes
//                        is one memcpy
//
// Escape hatch: a line carrying the comment
//     // ncfn-lint: allow(<rule>[,<rule>...]) — <justification>
// is exempt from those rules, as is the line directly below a line whose
// only content is such a comment. There is no file- or directory-level
// suppression on purpose: every exemption is visible at the line it
// excuses.
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.
//
// Self-test mode (`ncfn-lint --self-test <fixture-dir>`) checks the
// known-bad / allow-annotated fixture pairs under tests/lint_fixtures:
// a file named <rule>_bad.cc must produce at least one finding of
// exactly that rule, and <rule>_allowed.cc must produce none. It also
// cross-checks the rule table against the fixture dir both ways — a
// rule without its fixture pair fails, as does a fixture naming no
// rule — so the table and the fixtures cannot drift apart.
// `ncfn-lint --list-rules` prints the live table (id, scope, message).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Rule table

enum class Scope {
  kEverywhere,   // all scanned files
  kObsEmitters,  // files that emit trace/metrics output
  kHotPath,      // src/gf, src/coding, src/netsim
  kVnfHotPath,   // src/vnf — the batched data plane
  kDataPlane,    // kHotPath and kVnfHotPath together
};

struct Rule {
  const char* id;
  Scope scope;
  const char* message;
};

constexpr Rule kRules[] = {
    {"wall-clock", Scope::kEverywhere,
     "wall-clock time source; derive time from the Simulator clock"},
    {"unseeded-rng", Scope::kEverywhere,
     "unseeded randomness; draw from a seeded engine (std::mt19937)"},
    {"unordered-iteration", Scope::kObsEmitters,
     "iterating an unordered container in a file that emits trace/metrics; "
     "iteration order is unspecified"},
    {"pointer-key", Scope::kEverywhere,
     "pointer-keyed ordered container; pointer order is allocation order"},
    {"raw-new-delete", Scope::kHotPath,
     "raw new/delete in a hot-path dir; use pools or RAII owners"},
    {"iostream", Scope::kHotPath,
     "iostream in a hot-path dir; the data plane must not allocate or lock "
     "for logging"},
    {"raw-bytes", Scope::kEverywhere,
     "raw memcpy/memmove/reinterpret_cast outside the approved byte-view "
     "header (src/coding/byteview.hpp)"},
    {"throwing-numparse", Scope::kEverywhere,
     "throwing/unchecked string-to-number conversion; use "
     "coding::parse_num<T> (src/coding/strparse.hpp)"},
    {"per-packet-kernel", Scope::kVnfHotPath,
     "per-packet kernel entry point in the VNF hot path; use the batch "
     "APIs (Decoder::recode_batch / Encoder::encode_random_batch) so the "
     "sweep amortizes over a PacketBatch"},
    {"raw-thread", Scope::kEverywhere,
     "raw threading primitive outside the worker pool; shard work through "
     "netsim::WorkerPool (src/netsim/worker.hpp) so the worker-pool "
     "determinism contract holds"},
    {"mutex-unannotated", Scope::kEverywhere,
     "mutex member with no NCFN_GUARDED_BY field naming it; annotate what "
     "the mutex guards (src/common/thread_annotations.hpp) or the analyze "
     "preset has nothing to check"},
    {"cv-wait-no-predicate", Scope::kEverywhere,
     "condition-variable wait outside a predicate loop; spurious wakeups "
     "require `while (!ready) cv.wait(mu);`"},
    {"detached-thread", Scope::kEverywhere,
     "detached thread; a detached lane outlives its captures and cannot "
     "be joined at the barrier — keep the handle and join"},
    {"ref-capture-thread", Scope::kEverywhere,
     "default [&] capture handed to a thread/pool entry point; name the "
     "captures so cross-thread lifetime and sharing stay explicit"},
    {"span-copy", Scope::kDataPlane,
     "std::ranges::copy in a data-plane dir compiles to a byte-at-a-time "
     "loop over spans; use coding::copy_bytes (src/coding/byteview.hpp)"},
};

// Files exempt from a rule by design (normalized path suffix match).
struct FileException {
  const char* rule;
  const char* path_suffix;
};

constexpr FileException kFileExceptions[] = {
    // The byte-view header is the sanctioned home of raw byte access.
    {"raw-bytes", "src/coding/byteview.hpp"},
    // The seeded-RNG module is the one place allowed to talk about raw
    // engine words (it still must not touch random_device).
    {"unseeded-rng", "src/coding/rng_fill.hpp"},
    // The checked-parse helper is the sanctioned home of string→number
    // conversion (it uses std::from_chars, but the ban is on the whole
    // conversion family by site, not by spelling).
    {"throwing-numparse", "src/coding/strparse.hpp"},
    // The worker pool is the one sanctioned home of raw threading; the
    // annotated wrappers re-export the primitives with capabilities
    // attached, and the sweep driver owns process-level fan-out on top.
    {"raw-thread", "src/netsim/worker.hpp"},
    {"raw-thread", "src/netsim/worker.cpp"},
    {"raw-thread", "src/common/sync.hpp"},
    {"raw-thread", "tools/ncfn-sweep.cpp"},
};

constexpr const char* kHotPathDirs[] = {"src/gf/", "src/coding/",
                                        "src/netsim/"};

struct Finding {
  std::string file;
  std::size_t line;  // 1-based
  std::string rule;
  std::string message;
};

// ---------------------------------------------------------------------
// Source preprocessing: per line, the code text with comments and
// string/char literals blanked out, plus any ncfn-lint annotations the
// comments carried.

struct SourceLine {
  std::string code;                 // literals/comments blanked
  std::set<std::string> allowed;    // rules allowed on this line
  bool allow_only = false;          // line is nothing but an allow comment
  int depth = 0;                    // brace depth at start of line
};

void parse_allow(const std::string& comment, std::set<std::string>* out) {
  static const std::regex re("ncfn-lint:\\s*allow\\(([^)]*)\\)");
  std::smatch m;
  if (!std::regex_search(comment, m, re)) return;
  std::stringstream list(m[1].str());
  std::string rule;
  while (std::getline(list, rule, ',')) {
    const auto b = rule.find_first_not_of(" \t");
    const auto e = rule.find_last_not_of(" \t");
    if (b != std::string::npos) out->insert(rule.substr(b, e - b + 1));
  }
}

/// Split file text into lines, blanking comments and literals while
/// collecting allow() annotations from the comment text.
std::vector<SourceLine> preprocess(const std::string& text) {
  std::vector<SourceLine> lines(1);
  enum { kCode, kBlock, kString, kChar } state = kCode;
  std::string comment;  // current line's comment text
  int depth = 0;        // running brace depth (code braces only)

  auto end_line = [&] {
    SourceLine& ln = lines.back();
    parse_allow(comment, &ln.allowed);
    if (!ln.allowed.empty() &&
        ln.code.find_first_not_of(" \t") == std::string::npos) {
      ln.allow_only = true;
    }
    comment.clear();
    lines.emplace_back();
    lines.back().depth = depth;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      end_line();
      continue;
    }
    switch (state) {
      case kCode:
        if (c == '/' && next == '/') {
          comment.append(text, i, text.find('\n', i) == std::string::npos
                                      ? text.size() - i
                                      : text.find('\n', i) - i);
          i = text.find('\n', i);
          if (i == std::string::npos) i = text.size();
          --i;  // loop ++ lands on the newline (or ends)
        } else if (c == '/' && next == '*') {
          state = kBlock;
          ++i;
        } else if (c == '"') {
          state = kString;
          lines.back().code += ' ';
        } else if (c == '\'') {
          state = kChar;
          lines.back().code += ' ';
        } else {
          if (c == '{') {
            ++depth;
          } else if (c == '}' && depth > 0) {
            --depth;
          }
          lines.back().code += c;
        }
        break;
      case kBlock:
        comment += c;
        if (c == '*' && next == '/') {
          state = kCode;
          ++i;
        }
        break;
      case kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          state = kCode;
        }
        break;
      case kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = kCode;
        }
        break;
    }
  }
  end_line();
  lines.pop_back();  // the trailing sentinel
  return lines;
}

// ---------------------------------------------------------------------
// Per-rule matchers over the blanked code lines.

bool matches_wall_clock(const std::string& code) {
  static const std::regex re(
      "system_clock|high_resolution_clock|gettimeofday|localtime|gmtime"
      "|(^|[^_\\w.>])time\\s*\\(\\s*(NULL|nullptr|0)?\\s*\\)"
      "|(^|[^_\\w.>])clock\\s*\\(\\s*\\)");
  return std::regex_search(code, re);
}

bool matches_unseeded_rng(const std::string& code) {
  static const std::regex re(
      "random_device|(^|[^_\\w])s?rand\\s*\\(");
  return std::regex_search(code, re);
}

bool matches_pointer_key(const std::string& code) {
  // std::map< or std::set< whose first template argument is a raw
  // pointer type (possibly cv-qualified / nested-namespace).
  static const std::regex re("std::(map|set)\\s*<[^,<>]*\\*\\s*[,>]");
  return std::regex_search(code, re);
}

bool matches_raw_new_delete(const std::string& code) {
  static const std::regex re(
      "(^|[^_\\w])new\\s+[_\\w:<]"     // new T / new std::... / placement
      "|(^|[^_\\w])new\\s*\\("        // new (ptr) T
      "|(^|[^_\\w])delete(\\s*\\[\\s*\\])?\\s+[_\\w(*]");
  if (!std::regex_search(code, re)) return false;
  // "= delete" declarations are fine.
  static const std::regex deleted_fn("=\\s*delete\\s*;");
  return !std::regex_search(code, deleted_fn);
}

bool matches_iostream(const std::string& code) {
  static const std::regex re(
      "#\\s*include\\s*<iostream>|std::(cout|cerr|clog)");
  return std::regex_search(code, re);
}

bool matches_raw_bytes(const std::string& code) {
  static const std::regex re(
      "(^|[^_\\w])mem(cpy|move)\\s*\\(|reinterpret_cast");
  return std::regex_search(code, re);
}

bool matches_per_packet_kernel(const std::string& code) {
  // Direct kernel sweeps (gf::bulk_*), single-packet recode and
  // single-packet random encode. The batch spellings (recode_batch,
  // encode_random_batch) do not match: the identifier continues with
  // '_' where these patterns require '('.
  static const std::regex re(
      "gf::bulk_\\w+\\s*\\("
      "|(\\.|->)recode\\s*\\("
      "|(^|[^_\\w])encode_random\\s*\\(");
  return std::regex_search(code, re);
}

bool matches_raw_thread(const std::string& code) {
  // Thread spawning, bare locks and synchronization primitives, plus
  // the headers that provide them. std::this_thread (sleep/yield) and
  // std::atomic are not flagged: neither can introduce a schedule
  // dependence by itself. The worker-pool exception files are the only
  // sanctioned users (kFileExceptions).
  static const std::regex re(
      "std::(thread|jthread|async|mutex|timed_mutex|recursive_mutex|"
      "shared_mutex|shared_timed_mutex|condition_variable|"
      "condition_variable_any|counting_semaphore|binary_semaphore|"
      "barrier|latch|promise|packaged_task)($|[^_\\w])"
      "|#\\s*include\\s*<(thread|mutex|shared_mutex|condition_variable|"
      "semaphore|barrier|latch|future)>"
      "|(^|[^_\\w])pthread_\\w+");
  return std::regex_search(code, re);
}

/// A mutex member declaration whose name is never the argument of a
/// *GUARDED_BY in the file: the mutex guards nothing the analysis can
/// see. Matches both the raw std spellings and the annotated
/// common::Mutex wrapper (a wrapper still needs guarded fields).
bool matches_mutex_unannotated(const std::string& code,
                               const std::string& text) {
  static const std::regex decl(
      "(^|[^_\\w])(std::(recursive_|timed_|shared_)?mutex|Mutex)"
      "\\s+(\\w+)\\s*[;{=]");
  for (std::sregex_iterator it(code.begin(), code.end(), decl), end;
       it != end; ++it) {
    const std::string name = (*it)[4].str();
    if (text.find("GUARDED_BY(" + name + ")") == std::string::npos) {
      return true;
    }
  }
  return false;
}

/// Single-argument cv.wait(mu) — the bare-wait overload — outside a
/// predicate loop. The wait is exempt when its own line contains
/// `while`, or when the nearest preceding code line at enclosing-or-
/// equal brace depth does (the `while (!ready)\n  cv.wait(mu);` and
/// `while (!ready) { cv.wait(mu); }` shapes). The two-argument
/// predicate overload never matches: its parens contain a comma.
bool matches_cv_wait_no_predicate(const std::vector<SourceLine>& lines,
                                  std::size_t i) {
  static const std::regex bare_wait("(\\.|->)\\s*wait\\s*\\([^(),]*\\)");
  if (!std::regex_search(lines[i].code, bare_wait)) return false;
  static const std::regex while_re("(^|[^_\\w])while\\s*\\(");
  if (std::regex_search(lines[i].code, while_re)) return false;
  for (std::size_t j = i; j-- > 0;) {
    const SourceLine& ln = lines[j];
    if (ln.code.find_first_not_of(" \t") == std::string::npos) continue;
    if (ln.depth > lines[i].depth) break;  // sibling block, not enclosing
    return !std::regex_search(ln.code, while_re);
  }
  return true;
}

bool matches_detached_thread(const std::string& code) {
  static const std::regex re("(\\.|->)\\s*detach\\s*\\(");
  return std::regex_search(code, re);
}

bool matches_ref_capture_thread(const std::string& code) {
  // A default by-reference capture on the same line as a thread/pool
  // entry point. Named captures ([&cells, &matrix]) do not match; [&]
  // on a plain same-thread lambda (std::find_if etc.) has no entry-
  // point keyword beside it and does not match either.
  static const std::regex capture("\\[\\s*&\\s*\\]");
  if (!std::regex_search(code, capture)) return false;
  static const std::regex entry(
      "(^|[^_\\w])(run|submit|enqueue|post|dispatch|async|thread|jthread)"
      "\\s*[(<]");
  return std::regex_search(code, entry);
}

bool matches_span_copy(const std::string& code) {
  // ranges::copy and ranges::copy_n, qualified or not; copy_backward and
  // the other copy_* spellings continue with '_' where '(' is required.
  static const std::regex re("(^|[^_\\w])ranges::copy(_n)?\\s*\\(");
  return std::regex_search(code, re);
}

bool matches_throwing_numparse(const std::string& code) {
  // std::stoi/stol/stoul/stod/... (throwing), the atoi family (no error
  // reporting at all) and the strtol family (errno-based) — every
  // string→number conversion that is not parse_num's from_chars.
  static const std::regex re(
      "std::sto(i|l|ll|ul|ull|f|d|ld)\\s*\\("
      "|(^|[^_\\w])ato(i|l|ll|f)\\s*\\("
      "|(^|[^_\\w])strto(l|ll|ul|ull|f|d|ld|imax|umax)\\s*\\(");
  return std::regex_search(code, re);
}

/// Emits-trace/metrics heuristic for the unordered-iteration rule.
bool emits_observable_output(const std::string& text) {
  return text.find("EventTrace") != std::string::npos ||
         text.find("MetricsRegistry") != std::string::npos ||
         text.find("obs::Observability") != std::string::npos ||
         text.find("obs/obs.hpp") != std::string::npos ||
         text.find("obs/trace.hpp") != std::string::npos ||
         text.find("obs/metrics.hpp") != std::string::npos;
}

/// Names of variables/members declared with an unordered container type.
std::set<std::string> unordered_names(const std::vector<SourceLine>& lines) {
  static const std::regex decl(
      "unordered_(?:map|set|multimap|multiset)\\s*<[^;{}()]*>[\\s&]*(\\w+)");
  std::set<std::string> names;
  for (const SourceLine& ln : lines) {
    for (std::sregex_iterator it(ln.code.begin(), ln.code.end(), decl), end;
         it != end; ++it) {
      names.insert((*it)[1].str());
    }
  }
  return names;
}

bool matches_unordered_iteration(const std::string& code,
                                 const std::set<std::string>& names) {
  // Range-for whose range expression mentions a known unordered name,
  // or explicit iterator walks over one (name.begin()).
  static const std::regex range_for("for\\s*\\([^;)]*:\\s*([^)]*)\\)?");
  std::smatch m;
  if (std::regex_search(code, m, range_for)) {
    const std::string range = m[1].str();
    for (const std::string& n : names) {
      const std::regex word("(^|[^_\\w])" + n + "($|[^_\\w])");
      if (std::regex_search(range, word)) return true;
    }
  }
  for (const std::string& n : names) {
    const std::regex begin_walk("(^|[^_\\w])" + n +
                                "\\s*[.]\\s*c?begin\\s*\\(");
    if (std::regex_search(code, begin_walk)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Driver

std::string normalized(const fs::path& p) {
  std::string s = p.generic_string();
  std::replace(s.begin(), s.end(), '\\', '/');
  return s;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool rule_applies(const Rule& rule, const std::string& path,
                  bool obs_emitter, bool ignore_scopes) {
  for (const FileException& ex : kFileExceptions) {
    if (std::string(ex.rule) == rule.id && ends_with(path, ex.path_suffix)) {
      return false;
    }
  }
  if (ignore_scopes) return true;
  switch (rule.scope) {
    case Scope::kEverywhere:
      return true;
    case Scope::kObsEmitters:
      return obs_emitter;
    case Scope::kHotPath:
      for (const char* dir : kHotPathDirs) {
        if (path.find(dir) != std::string::npos) return true;
      }
      return false;
    case Scope::kVnfHotPath:
      return path.find("src/vnf/") != std::string::npos;
    case Scope::kDataPlane:
      for (const char* dir : kHotPathDirs) {
        if (path.find(dir) != std::string::npos) return true;
      }
      return path.find("src/vnf/") != std::string::npos;
  }
  return false;
}

/// Lint one file. `ignore_scopes` (self-test mode) applies every rule
/// regardless of directory, so fixtures can live in one flat dir.
std::vector<Finding> lint_file(const fs::path& file, bool ignore_scopes) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "ncfn-lint: cannot read %s\n",
                 normalized(file).c_str());
    std::exit(2);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string path = normalized(file);

  const std::vector<SourceLine> lines = preprocess(text);
  const bool obs_emitter = emits_observable_output(text);
  const std::set<std::string> unordered = unordered_names(lines);

  std::vector<Finding> findings;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const SourceLine& ln = lines[i];
    if (ln.allow_only) continue;  // the annotation line itself
    auto allowed = [&](const char* rule) {
      if (ln.allowed.count(rule) > 0) return true;
      // An allow-only comment line excuses the line below it.
      return i > 0 && lines[i - 1].allow_only &&
             lines[i - 1].allowed.count(rule) > 0;
    };
    for (const Rule& rule : kRules) {
      if (!rule_applies(rule, path, obs_emitter, ignore_scopes)) continue;
      const std::string id = rule.id;
      bool hit = false;
      if (id == "wall-clock") {
        hit = matches_wall_clock(ln.code);
      } else if (id == "unseeded-rng") {
        hit = matches_unseeded_rng(ln.code);
      } else if (id == "unordered-iteration") {
        hit = matches_unordered_iteration(ln.code, unordered);
      } else if (id == "pointer-key") {
        hit = matches_pointer_key(ln.code);
      } else if (id == "raw-new-delete") {
        hit = matches_raw_new_delete(ln.code);
      } else if (id == "iostream") {
        hit = matches_iostream(ln.code);
      } else if (id == "raw-bytes") {
        hit = matches_raw_bytes(ln.code);
      } else if (id == "throwing-numparse") {
        hit = matches_throwing_numparse(ln.code);
      } else if (id == "per-packet-kernel") {
        hit = matches_per_packet_kernel(ln.code);
      } else if (id == "raw-thread") {
        hit = matches_raw_thread(ln.code);
      } else if (id == "mutex-unannotated") {
        hit = matches_mutex_unannotated(ln.code, text);
      } else if (id == "cv-wait-no-predicate") {
        hit = matches_cv_wait_no_predicate(lines, i);
      } else if (id == "detached-thread") {
        hit = matches_detached_thread(ln.code);
      } else if (id == "ref-capture-thread") {
        hit = matches_ref_capture_thread(ln.code);
      } else if (id == "span-copy") {
        hit = matches_span_copy(ln.code);
      }
      if (hit && !allowed(rule.id)) {
        findings.push_back({path, i + 1, rule.id, rule.message});
      }
    }
  }
  return findings;
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

std::vector<fs::path> collect(const std::vector<std::string>& roots) {
  std::vector<fs::path> files;
  for (const std::string& root : roots) {
    const fs::path p(root);
    if (fs::is_regular_file(p)) {
      if (lintable(p)) files.push_back(p);
      continue;
    }
    if (!fs::is_directory(p)) {
      std::fprintf(stderr, "ncfn-lint: no such file or directory: %s\n",
                   root.c_str());
      std::exit(2);
    }
    for (const auto& entry : fs::recursive_directory_iterator(p)) {
      if (entry.is_regular_file() && lintable(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end(),
            [](const fs::path& a, const fs::path& b) {
              return normalized(a) < normalized(b);
            });
  return files;
}

int run_lint(const std::vector<std::string>& roots) {
  std::size_t total = 0;
  for (const fs::path& file : collect(roots)) {
    for (const Finding& f : lint_file(file, /*ignore_scopes=*/false)) {
      std::printf("%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                  f.rule.c_str(), f.message.c_str());
      ++total;
    }
  }
  if (total > 0) {
    std::printf("ncfn-lint: %zu finding(s)\n", total);
    return 1;
  }
  return 0;
}

const char* scope_name(Scope s) {
  switch (s) {
    case Scope::kEverywhere:
      return "everywhere";
    case Scope::kObsEmitters:
      return "obs-emitters";
    case Scope::kHotPath:
      return "hot-path";
    case Scope::kVnfHotPath:
      return "vnf-hot-path";
    case Scope::kDataPlane:
      return "data-plane";
  }
  return "?";
}

int run_list_rules() {
  for (const Rule& rule : kRules) {
    std::printf("%-22s %-12s %s\n", rule.id, scope_name(rule.scope),
                rule.message);
  }
  return 0;
}

int run_self_test(const std::string& fixture_dir) {
  std::size_t checked = 0;
  std::size_t failures = 0;
  // Drift check, both directions: every rule in the table must ship its
  // <rule>_bad.cc / <rule>_allowed.cc pair, and every fixture must name
  // a live rule. Adding a rule without fixtures — or renaming one and
  // orphaning its fixtures — fails the self-test, not just CI review.
  std::set<std::string> rule_ids;
  for (const Rule& rule : kRules) rule_ids.insert(rule.id);
  std::set<std::string> have_bad;
  std::set<std::string> have_allowed;
  for (const fs::path& file : collect({fixture_dir})) {
    const std::string stem = file.stem().string();
    const bool expect_bad = ends_with(stem, "_bad");
    const bool expect_allowed = ends_with(stem, "_allowed");
    if (!expect_bad && !expect_allowed) continue;
    const std::string rule =
        stem.substr(0, stem.rfind('_'));  // "<rule>_bad" -> "<rule>"
    if (rule_ids.count(rule) == 0) {
      std::printf("FAIL %s: fixture names no rule in the table "
                  "(see --list-rules)\n",
                  normalized(file).c_str());
      ++failures;
      continue;
    }
    (expect_bad ? have_bad : have_allowed).insert(rule);
    const auto findings = lint_file(file, /*ignore_scopes=*/true);
    ++checked;

    if (expect_bad) {
      bool rule_hit = false;
      for (const Finding& f : findings) rule_hit |= f.rule == rule;
      if (!rule_hit) {
        std::printf("FAIL %s: expected a [%s] finding, got %zu finding(s)\n",
                    normalized(file).c_str(), rule.c_str(), findings.size());
        for (const Finding& f : findings) {
          std::printf("  got %s:%zu [%s]\n", f.file.c_str(), f.line,
                      f.rule.c_str());
        }
        ++failures;
      }
    } else {  // expect_allowed: the annotated snippet must pass its rule
      std::size_t rule_hits = 0;
      for (const Finding& f : findings) {
        if (f.rule == rule) {
          std::printf("  unexpected %s:%zu [%s]\n", f.file.c_str(), f.line,
                      f.rule.c_str());
          ++rule_hits;
        }
      }
      if (rule_hits > 0) {
        std::printf("FAIL %s: allow(%s) annotation did not suppress\n",
                    normalized(file).c_str(), rule.c_str());
        ++failures;
      }
    }
  }
  if (checked == 0) {
    std::fprintf(stderr, "ncfn-lint: no *_bad / *_allowed fixtures in %s\n",
                 fixture_dir.c_str());
    return 2;
  }
  for (const std::string& rule : rule_ids) {
    if (have_bad.count(rule) == 0) {
      std::printf("FAIL rule [%s]: missing fixture %s_bad.cc\n", rule.c_str(),
                  rule.c_str());
      ++failures;
    }
    if (have_allowed.count(rule) == 0) {
      std::printf("FAIL rule [%s]: missing fixture %s_allowed.cc\n",
                  rule.c_str(), rule.c_str());
      ++failures;
    }
  }
  std::printf("ncfn-lint self-test: %zu fixture(s), %zu failure(s)\n",
              checked, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: ncfn-lint <dir|file>...\n"
                 "       ncfn-lint --self-test <fixture-dir>\n"
                 "       ncfn-lint --list-rules\n");
    return 2;
  }
  if (args[0] == "--list-rules") {
    return run_list_rules();
  }
  if (args[0] == "--self-test") {
    if (args.size() != 2) {
      std::fprintf(stderr, "usage: ncfn-lint --self-test <fixture-dir>\n");
      return 2;
    }
    return run_self_test(args[1]);
  }
  return run_lint(args);
}
