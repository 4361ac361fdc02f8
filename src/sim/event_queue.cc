#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace ntier::sim {

namespace {

/// Index of the first set bit at or after `from` in a kBuckets-bit map;
/// kBuckets when there is none.
template <std::size_t N>
std::size_t next_used(const std::array<std::uint64_t, N>& used,
                      std::size_t from) {
  for (std::size_t w = from / 64; w < N; ++w) {
    std::uint64_t word = used[w];
    if (w == from / 64) word &= ~std::uint64_t{0} << (from % 64);
    if (word != 0)
      return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
  }
  return N * 64;
}

}  // namespace

std::uint32_t EventQueue::take_slot(SimTime at, Callback&& fn) {
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
  s.at = at;
  s.seq = ++seq_;
  ++scheduled_;
  ++live_;
  return slot;
}

EventId EventQueue::push(SimTime at, Callback&& fn) {
  const std::uint32_t slot = take_slot(at, std::move(fn));
  file(slot);
  if (heap_.empty()) refill();
  return make_id(slot, slots_[slot].gen);
}

EventId EventQueue::push_fifo(SimTime at, SimTime delay, Callback&& fn) {
  Lane* lane = lane_for(delay);
  if (lane == nullptr || (lane->tail != kNil && at < slots_[lane->tail].at))
    return push(at, std::move(fn));
  const std::uint32_t slot = take_slot(at, std::move(fn));
  Slot& s = slots_[slot];
  s.tier = Tier::kLane;
  s.lane = static_cast<std::uint8_t>(lane - lanes_.data());
  s.next = kNil;
  s.prev = lane->tail;
  if (lane->tail == kNil)
    lane->head = Node{at, s.seq, slot};
  else
    slots_[lane->tail].next = slot;
  lane->tail = slot;
  ++laned_;
  return make_id(slot, s.gen);
}

EventQueue::Lane* EventQueue::lane_for(SimTime delay) {
  for (std::size_t i = 0; i < lanes_open_; ++i)
    if (lanes_[i].delay == delay) return &lanes_[i];
  Lane* lane = nullptr;
  for (std::size_t i = 0; i < lanes_open_ && lane == nullptr; ++i)
    if (lanes_[i].tail == kNil) lane = &lanes_[i];
  if (lane == nullptr && lanes_open_ < kLanes) lane = &lanes_[lanes_open_++];
  if (lane != nullptr) lane->delay = delay;
  return lane;
}

EventQueue::Slot* EventQueue::pending(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return nullptr;  // never existed
  Slot& s = slots_[slot];
  if (s.gen != gen_of(id) || s.tier == Tier::kFree) return nullptr;
  return &s;
}

bool EventQueue::cancel(EventId id) {
  Slot* s = pending(id);
  if (s == nullptr) return false;  // fired, cancelled or never existed
  if (s->tier == Tier::kNear)
    heap_erase(s->pos);
  else if (s->tier == Tier::kLane)
    lane_unlink(slot_of(id));
  else
    unlink(slot_of(id));
  s->fn = nullptr;  // free the closure now
  release_slot(*s, slot_of(id));
  --live_;
  if (heap_.empty() && live_ > laned_) refill();
  return true;
}

bool EventQueue::reschedule(EventId id, SimTime at) {
  Slot* s = pending(id);
  if (s == nullptr) return false;
  const std::uint32_t slot = slot_of(id);
  if (s->tier == Tier::kNear && bucket_of(at) < cur_) {
    // Stays near: re-key in place. The fresh sequence number orders the
    // event after everything already queued for `at`, so a later time or
    // an equal one only moves it down.
    const std::size_t i = s->pos;
    const bool earlier = at < heap_[i].at;
    s->at = heap_[i].at = at;
    s->seq = heap_[i].seq = ++seq_;
    if (earlier)
      sift_up(i);
    else
      sift_down(i);
    return true;
  }
  if (s->tier == Tier::kNear)
    heap_erase(s->pos);
  else if (s->tier == Tier::kLane)
    lane_unlink(slot);
  else
    unlink(slot);  // before the re-key: the bucket is found from `at`
  s->at = at;
  s->seq = ++seq_;
  file(slot);
  if (heap_.empty()) refill();
  return true;
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty() && "pop() on empty EventQueue");
  // The earliest of the heap top and the lane heads, by (time, sequence).
  Node top = heap_.empty() ? kNoNode : heap_[0];
  bool laned = false;
  for (std::size_t i = 0; i < lanes_open_; ++i)
    if (before(lanes_[i].head, top)) {
      top = lanes_[i].head;
      laned = true;
    }
  Slot& s = slots_[top.slot];
  Fired f{top.at, std::move(s.fn)};
  if (laned)
    lane_unlink(top.slot);
  else
    heap_erase(0);
  release_slot(s, top.slot);
  --live_;
  if (heap_.empty() && live_ > laned_) refill();
  return f;
}

void EventQueue::sift_up(std::size_t i) {
  const Node node = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(node, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, node);
}

void EventQueue::sift_down(std::size_t i) {
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

void EventQueue::heap_erase(std::size_t i) {
  const Node removed = heap_[i];
  const Node last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  place(i, last);
  if (before(last, removed))
    sift_up(i);
  else
    sift_down(i);
}

void EventQueue::file(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::int64_t b = bucket_of(s.at);
  if (b < cur_) {
    s.tier = Tier::kNear;
    heap_.push_back(Node{s.at, s.seq, slot});
    sift_up(heap_.size() - 1);
  } else if ((b >> kLevelBits) == (cur_ >> kLevelBits)) {
    link_level(l0_, b & kLevelMask, slot, Tier::kL0);
  } else if ((b >> 2 * kLevelBits) == (cur_ >> 2 * kLevelBits)) {
    link_level(l1_, (b >> kLevelBits) & kLevelMask, slot, Tier::kL1);
  } else {
    link(overflow_, slot, Tier::kOverflow);
  }
}

void EventQueue::link(std::uint32_t& head, std::uint32_t slot, Tier tier) {
  Slot& s = slots_[slot];
  s.tier = tier;
  s.prev = kNil;
  s.next = head;
  if (head != kNil) slots_[head].prev = slot;
  head = slot;
}

void EventQueue::link_level(Level& level, std::int64_t index,
                            std::uint32_t slot, Tier tier) {
  const auto i = static_cast<std::size_t>(index);
  link(level.head[i], slot, tier);
  level.used[i / 64] |= std::uint64_t{1} << (i % 64);
}

void EventQueue::unlink(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  if (s.next != kNil) slots_[s.next].prev = s.prev;
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
    return;
  }
  // First in its list: the head moves on; an emptied bucket leaves the map.
  if (s.tier == Tier::kOverflow) {
    overflow_ = s.next;
    return;
  }
  const std::int64_t b = bucket_of(s.at);
  Level& level = s.tier == Tier::kL0 ? l0_ : l1_;
  const auto i = static_cast<std::size_t>(
      (s.tier == Tier::kL0 ? b : b >> kLevelBits) & kLevelMask);
  level.head[i] = s.next;
  if (s.next == kNil) level.used[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

void EventQueue::lane_unlink(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  Lane& lane = lanes_[s.lane];
  if (s.next != kNil)
    slots_[s.next].prev = s.prev;
  else
    lane.tail = s.prev;
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else if (s.next != kNil) {
    const Slot& head = slots_[s.next];
    lane.head = Node{head.at, head.seq, s.next};
  } else {
    lane.head = kNoNode;
  }
  --laned_;
}

std::uint32_t EventQueue::take_list(Level& level, std::int64_t index) {
  const auto i = static_cast<std::size_t>(index);
  const std::uint32_t first = level.head[i];
  level.head[i] = kNil;
  level.used[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  return first;
}

void EventQueue::enter_span() {
  const std::int64_t span = cur_ >> kLevelBits;
  // On a new L1 span, L1 is empty and the overflow list holds its events.
  std::uint32_t next = (span & kLevelMask) == 0
                           ? std::exchange(overflow_, kNil)
                           : take_list(l1_, span & kLevelMask);
  while (next != kNil) {
    const std::uint32_t slot = next;
    next = slots_[slot].next;
    file(slot);
  }
}

void EventQueue::refill() {
  assert(heap_.empty() && live_ > laned_);
  while (true) {
    const std::size_t i0 = next_used(l0_.used, cur_ & kLevelMask);
    if (i0 < kBuckets) {
      // Open the bucket: every node enters the empty heap, then heapify.
      // The list runs newest first and later pushes mostly fire later, so
      // reversed it is close to heap order and the heapify moves little.
      std::uint32_t next = take_list(l0_, static_cast<std::int64_t>(i0));
      while (next != kNil) {
        Slot& s = slots_[next];
        s.tier = Tier::kNear;
        heap_.push_back(Node{s.at, s.seq, next});
        next = s.next;
      }
      std::reverse(heap_.begin(), heap_.end());
      for (std::size_t i = 0; i < heap_.size(); ++i)
        slots_[heap_[i].slot].pos = static_cast<std::uint32_t>(i);
      for (std::size_t i = (heap_.size() + kArity - 2) / kArity; i-- > 0;)
        sift_down(i);
      cur_ = (cur_ & ~kLevelMask) + static_cast<std::int64_t>(i0) + 1;
      if ((cur_ & kLevelMask) == 0) enter_span();
      return;
    }
    // The rest of this L0 span is empty: skip to the next L1 bucket that
    // holds events, or else to the L1 span of the earliest overflow event.
    const std::int64_t span = cur_ >> kLevelBits;
    const std::size_t from = static_cast<std::size_t>(span & kLevelMask) + 1;
    const std::size_t i1 = next_used(l1_.used, from);
    if (i1 < kBuckets) {
      cur_ = ((span & ~kLevelMask) + static_cast<std::int64_t>(i1))
             << kLevelBits;
    } else {
      std::int64_t earliest = INT64_MAX;
      for (std::uint32_t s = overflow_; s != kNil; s = slots_[s].next)
        earliest = std::min(earliest, bucket_of(slots_[s].at));
      assert(earliest != INT64_MAX);
      cur_ = (earliest >> 2 * kLevelBits) << 2 * kLevelBits;
    }
    enter_span();
  }
}

void EventQueue::release_slot(Slot& s, std::uint32_t slot) {
  s.tier = Tier::kFree;
  ++s.gen;  // stale ids to this slot stop resolving
  free_slots_.push_back(slot);
}

}  // namespace ntier::sim
