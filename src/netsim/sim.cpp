#include "netsim/sim.hpp"

#include <algorithm>
#include <cassert>

namespace ncfn::netsim {

EventId Simulator::schedule_at(Time t, std::function<void()> fn) {
  assert(t >= now_ && "cannot schedule into the past");
  const EventId id = next_id_++;
  queue_.push_back(Event{t, id, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), later);
  return id;
}

std::size_t Simulator::run_until(Time t_end) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.front().at <= t_end) {
    std::pop_heap(queue_.begin(), queue_.end(), later);
    Event ev = std::move(queue_.back());
    queue_.pop_back();
    if (!cancelled_.empty() && cancelled_.erase(ev.id) != 0) continue;
    now_ = ev.at;
    ev.fn();
    ++executed;
  }
  if (queue_.empty()) cancelled_.clear();
  if (now_ < t_end && t_end != kForever) now_ = t_end;
  return executed;
}

}  // namespace ncfn::netsim
