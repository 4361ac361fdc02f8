#include "sim/simulation.h"

#include <stdexcept>

namespace ntier::sim {

namespace {
[[noreturn]] void throw_past(const char* what, SimTime when, SimTime now) {
  throw std::logic_error(std::string(what) + ": scheduling in the past (" +
                         when.to_string() + " < " + now.to_string() + ")");
}
}  // namespace

EventId Simulation::at(SimTime when, Callback&& fn) {
  if (when < now_) throw_past("Simulation::at", when, now_);
  return events_.push(when, std::move(fn));
}

EventId Simulation::after_fixed(SimTime delay, Callback&& fn) {
  if (delay < SimTime::zero())
    throw_past("Simulation::after_fixed", now_ + delay, now_);
  return events_.push_fifo(now_ + delay, delay, std::move(fn));
}

bool Simulation::reschedule(EventId id, SimTime when) {
  if (when < now_) throw_past("Simulation::reschedule", when, now_);
  return events_.reschedule(id, when);
}

std::uint64_t Simulation::run_until(SimTime until) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!events_.empty() && !stop_requested_) {
    if (events_.next_time() > until) break;
    auto [at, fn] = events_.pop();
    now_ = at;
    fn();
    ++n;
    ++executed_;
  }
  // Advance the clock to the horizon even if we drained early, so
  // back-to-back run_until calls observe monotonic time.
  if (until != SimTime::max() && now_ < until && !stop_requested_) now_ = until;
  return n;
}

}  // namespace ntier::sim
