#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ntier::sim {

EventId EventQueue::push(SimTime at, Callback fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.armed = true;

  ++scheduled_;
  heap_.push_back(Node{at, ++seq_, slot});
  sift_up(heap_.size() - 1);
  ++live_;
  return make_id(slot, s.gen);
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return false;  // never existed
  Slot& s = slots_[slot];
  if (s.gen != gen_of(id) || !s.armed) return false;  // fired or cancelled
  s.armed = false;
  s.fn = nullptr;  // free the closure now; the heap node dies lazily
  --live_;
  return true;
}

bool EventQueue::reschedule(EventId id, SimTime at) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.gen != gen_of(id) || !s.armed) return false;
  // The fresh sequence number orders the event after everything already
  // queued for `at`, so a later time or an equal one only moves it down.
  const std::size_t i = s.pos;
  const bool earlier = at < heap_[i].at;
  heap_[i].at = at;
  heap_[i].seq = ++seq_;
  if (earlier)
    sift_up(i);
  else
    sift_down(i);
  return true;
}

void EventQueue::sift_up(std::size_t i) const {
  const Node node = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(node, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, node);
}

void EventQueue::sift_down(std::size_t i) const {
  const std::size_t n = heap_.size();
  const Node node = heap_[i];
  while (true) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], node)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, node);
}

void EventQueue::remove_top() const {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::release_slot(std::uint32_t slot) const {
  ++slots_[slot].gen;  // stale ids to this slot stop resolving
  free_slots_.push_back(slot);
}

void EventQueue::prune_top() const {
  while (!heap_.empty() && !slots_[heap_[0].slot].armed) {
    release_slot(heap_[0].slot);
    remove_top();
  }
}

SimTime EventQueue::next_time() const {
  prune_top();
  if (heap_.empty()) return SimTime::max();
  return heap_[0].at;
}

EventQueue::Fired EventQueue::pop() {
  prune_top();
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const Node top = heap_[0];
  Slot& s = slots_[top.slot];
  Fired f{top.at, std::move(s.fn)};
  s.armed = false;
  s.fn = nullptr;
  release_slot(top.slot);
  remove_top();
  --live_;
  return f;
}

}  // namespace ntier::sim
