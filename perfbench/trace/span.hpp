// Span recorder for the traced benchmark binaries.
//
// A span is one call into a layer's entry point. Spans nest per thread;
// a span's self time is its duration minus the durations of the spans
// opened directly inside it, so the self times of one thread's spans add
// up to that thread's time inside its outermost spans. Totals are kept
// per key and per thread and written as JSON when the process exits (to
// the file named by PERFBENCH_TRACE_OUT; nothing is written without it).
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench::trace {

/// One entry per timed entry point group. The dotted name is the prefix
/// of the per-layer metrics run.py prints.
enum class Key : std::uint8_t {
  kNetsimDispatch,  // Simulator::run_until, and closures with no open span
  kNetsimLink,      // Network::send/send_burst and the link closures
  kNetsimWorker,    // WorkerPool::run on the calling thread
  kVnf,             // handlers bound at data-center nodes, their timers
  kCoding,          // Encoder::encode_*, Decoder::add/recode/recode_batch
  kCodingRecover,   // Decoder::recover
  kGf,              // gf::bulk_* and gf::dot
  kAppProvider,     // generation content synthesis (source and verify)
  kAppEndpoint,     // handlers bound at host nodes, their timers, start()
  kAppParse,        // load_scenario
  kAppWire,         // SimNet and session construction
  kAppTeardown,     // SimNet destruction
  kCtrlDecide,      // public Controller calls made by a harness
  kCtrlSolve,       // solve_deployment
  kLpSolve,         // lp::Problem::solve
  kGraphPaths,      // graph::feasible_paths
  kObsTrace,        // EventTrace record emission
  kObsMerge,        // merged traces / metrics
  kObsWrite,        // output files
  kHarness,         // a harness's own work between layer calls
  kCount
};

/// Counts recorded at the same boundaries as the spans.
enum class Counter : std::uint8_t {
  kEvents,          // events executed by run_until
  kGfBytes,         // destination bytes handed to GF kernels
  kGfTailCalls,     // GF kernel calls whose length is not a multiple of 64
  kLpNonOptimal,    // lp solves not returning kOptimal
  kTraceRecords,    // EventTrace records emitted
  kTraceBytes,      // EventTrace bytes appended
  kWorkerBusyNs,    // per lane: time inside WorkerPool jobs
  kWorkerWaitNs,    // per lane: run() wall minus the lane's busy time
  kUntaggedBinds,   // handlers bound on a network with no known node kinds
  kProviderBytes,   // generation bytes synthesised (source and verify)
  kCount
};

/// Monotonic clock in nanoseconds. Replaceable for the self-test.
using ClockFn = std::int64_t (*)();
void set_clock(ClockFn fn);
[[nodiscard]] std::int64_t now_ns();

void open(Key k);
void close();
void count(Counter c, std::uint64_t n = 1);

/// Key of the innermost open span on this thread, or `fallback`.
[[nodiscard]] Key current_key(Key fallback);

class Span {
 public:
  explicit Span(Key k) { open(k); }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// Totals over every thread (`main_only` = the thread that started the
/// process), in seconds and calls.
struct Totals {
  double self_s[static_cast<std::size_t>(Key::kCount)] = {};
  std::uint64_t calls[static_cast<std::size_t>(Key::kCount)] = {};
  std::uint64_t counters[static_cast<std::size_t>(Counter::kCount)] = {};
};
[[nodiscard]] Totals totals(bool main_only);

/// Forget every total (self-test only; no span may be open).
void reset();

}  // namespace perfbench::trace
