// Discrete-event simulation core.
//
// This is the substrate that stands in for the paper's EC2/Linode testbed:
// a deterministic event loop with a virtual clock. All network, VNF and
// controller activity in the reproduction is driven from this queue, so
// every experiment is exactly reproducible from its seed.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

namespace ncfn::netsim {

/// Simulated time in seconds.
using Time = double;

/// Handle for cancelling a scheduled event.
using EventId = std::uint64_t;

class Simulator {
 public:
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule(Time delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `t` (t >= now()).
  EventId schedule_at(Time t, std::function<void()> fn);

  /// Cancel a pending event. Cancelling an already-fired or unknown id is
  /// a no-op (the common race when a timer and its cause fire together).
  /// O(1): the id becomes a tombstone that its event erases on popping.
  void cancel(EventId id) { cancelled_.insert(id); }

  /// Run events until the queue drains or the clock passes `t_end`.
  /// Returns the number of events executed.
  std::size_t run_until(Time t_end);

  /// Run until the queue drains entirely.
  std::size_t run() { return run_until(kForever); }

  static constexpr Time kForever = 1e18;

 private:
  struct Event {
    Time at;
    EventId id;
    std::function<void()> fn;
  };

  /// Heap order: true if `a` runs after `b`. Ids are unique, so (at, id)
  /// is a total order, and simultaneous events run FIFO.
  static bool later(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.id > b.id;
  }

  Time now_ = 0;
  EventId next_id_ = 1;
  // Min-heap on (at, id) kept with std::push_heap/pop_heap rather than a
  // std::priority_queue, whose const top() would force a copy of every
  // callback (and of everything it captured) on the way out.
  std::vector<Event> queue_;
  std::unordered_set<EventId> cancelled_;
};

}  // namespace ncfn::netsim
