#include "trace/span.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>

namespace perfbench::trace {
namespace {

constexpr std::size_t kKeys = static_cast<std::size_t>(Key::kCount);
constexpr std::size_t kCounters = static_cast<std::size_t>(Counter::kCount);
constexpr int kMaxDepth = 256;

const char* const kKeyNames[kKeys] = {
    "netsim.dispatch", "netsim.link",   "netsim.worker", "vnf",
    "coding",          "coding.recover", "gf",           "app.provider",
    "app.endpoint",    "app.parse",     "app.wire",      "app.teardown",
    "ctrl.decide",     "ctrl.solve",    "lp.solve",      "graph.paths",
    "obs.trace",       "obs.merge",     "obs.write",     "harness"};

const char* const kCounterNames[kCounters] = {
    "events",          "gf_bytes",       "gf_tail_calls",
    "lp_nonoptimal",   "trace_records",  "trace_bytes",
    "worker_busy_ns",  "worker_wait_ns", "untagged_binds",
    "provider_bytes"};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ClockFn g_clock = &steady_ns;
const std::int64_t g_loaded_ns = steady_ns();

struct Frame {
  Key key;
  std::int64_t start_ns;
  std::int64_t child_ns;
};

// One per thread that ever recorded. Written only by its thread; read
// after the writers are quiescent (process exit, or joined workers).
struct ThreadTotals {
  bool main = false;
  std::int64_t self_ns[kKeys] = {};
  std::uint64_t calls[kKeys] = {};
  std::uint64_t counters[kCounters] = {};
  Frame stack[kMaxDepth];
  int depth = 0;
};

struct Registry {
  std::mutex mu;
  std::deque<ThreadTotals> threads;  // stable addresses
  std::thread::id main_id;
};

void write_report();

// Never destroyed: wrapped calls may run during static destruction.
Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry;
    std::atexit(write_report);
    return reg;
  }();
  return *r;
}

// The registry is created during static initialisation, on the thread
// that starts the process.
const bool g_main_recorded = [] {
  registry().main_id = std::this_thread::get_id();
  return true;
}();

ThreadTotals& mine() {
  thread_local ThreadTotals* t = [] {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    ThreadTotals& fresh = r.threads.emplace_back();
    fresh.main = std::this_thread::get_id() == r.main_id;
    return &fresh;
  }();
  return *t;
}

// Seconds since the recorder was loaded, then every total, as JSON.
void write_report() {
  const char* path = std::getenv("PERFBENCH_TRACE_OUT");
  if (path == nullptr || *path == '\0') return;
  const double wall = static_cast<double>(steady_ns() - g_loaded_ns) * 1e-9;
  const Totals all = totals(false);
  const Totals main = totals(true);
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"wall_s\": %.9f", wall);
  const Totals* sets[2] = {&all, &main};
  const char* set_names[2] = {"all", "main"};
  for (int s = 0; s < 2; ++s) {
    std::fprintf(f, ",\n \"%s\": {\"self_s\": {", set_names[s]);
    for (std::size_t k = 0; k < kKeys; ++k) {
      std::fprintf(f, "%s\"%s\": %.9f", k ? ", " : "", kKeyNames[k],
                   sets[s]->self_s[k]);
    }
    std::fprintf(f, "}, \"calls\": {");
    for (std::size_t k = 0; k < kKeys; ++k) {
      std::fprintf(f, "%s\"%s\": %llu", k ? ", " : "", kKeyNames[k],
                   static_cast<unsigned long long>(sets[s]->calls[k]));
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, ",\n \"counters\": {");
  for (std::size_t c = 0; c < kCounters; ++c) {
    std::fprintf(f, "%s\"%s\": %llu", c ? ", " : "", kCounterNames[c],
                 static_cast<unsigned long long>(all.counters[c]));
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

}  // namespace

void set_clock(ClockFn fn) { g_clock = fn; }
std::int64_t now_ns() { return g_clock(); }

void open(Key k) {
  ThreadTotals& t = mine();
  if (t.depth == kMaxDepth) std::abort();  // unbalanced spans: a bug
  t.stack[t.depth++] = Frame{k, now_ns(), 0};
}

void close() {
  const std::int64_t end = now_ns();
  ThreadTotals& t = mine();
  if (t.depth == 0) std::abort();
  const Frame& f = t.stack[--t.depth];
  const std::int64_t dur = end - f.start_ns;
  const auto k = static_cast<std::size_t>(f.key);
  t.self_ns[k] += dur - f.child_ns;
  ++t.calls[k];
  if (t.depth > 0) t.stack[t.depth - 1].child_ns += dur;
}

void count(Counter c, std::uint64_t n) {
  mine().counters[static_cast<std::size_t>(c)] += n;
}

Key current_key(Key fallback) {
  const ThreadTotals& t = mine();
  return t.depth > 0 ? t.stack[t.depth - 1].key : fallback;
}

Totals totals(bool main_only) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  Totals out;
  for (const ThreadTotals& t : r.threads) {
    if (main_only && !t.main) continue;
    for (std::size_t k = 0; k < kKeys; ++k) {
      out.self_s[k] += static_cast<double>(t.self_ns[k]) * 1e-9;
      out.calls[k] += t.calls[k];
    }
    for (std::size_t c = 0; c < kCounters; ++c) out.counters[c] += t.counters[c];
  }
  return out;
}

void reset() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (ThreadTotals& t : r.threads) {
    const bool main = t.main;
    t = ThreadTotals{};
    t.main = main;
  }
}

}  // namespace perfbench::trace
