#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace ntier::sim {

/// Identifier of a scheduled event; usable to cancel it before it fires.
/// Encodes (generation << 32 | slot); generations start at 1, so no valid
/// id is ever 0.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Priority queue of timed callbacks. Ties are broken by scheduling order
/// (FIFO among events at the same instant) so runs are deterministic.
///
/// Implementation: three kinds of tier over one generation-tagged slot
/// table that owns the callbacks.
///  - The *near heap*: a 4-ary heap of small POD nodes {time, sequence,
///    slot} holding every ordinary event whose L0 bucket
///    (time >> kBucketShift) lies before the cursor `cur_`.
///  - A two-level hashed *timing wheel* holding the ordinary events at or
///    after the cursor, as intrusive doubly-linked lists threaded through
///    the slots: L0 has kBuckets buckets of 2^kBucketShift ns (the cursor's
///    L0 span), L1 has kBuckets buckets of one L0 span each (the rest of the
///    cursor's L1 span), and one overflow list holds the rest. When the near
///    heap runs dry while the wheel holds events, the next non-empty L0
///    bucket is opened into it; crossing an L0 span cascades the next L1
///    bucket into L0, crossing an L1 span re-files the overflow list.
///  - Up to kLanes FIFO *lanes* (push_fifo), each an intrusive list of the
///    events pushed with one constant delay from a clock that never goes
///    back, such as a network link's latency. Those pushes arrive in
///    (time, sequence) order, so appending at the tail keeps a lane sorted
///    and its head is its earliest event.
/// pop() and next_time() take the (time, sequence) minimum over the heap
/// top and the lane heads; the wheel only decides *when* a node enters the
/// heap. Tiers decide where a node waits, never the order in which nodes
/// fire, so a run is the same as with one heap. What they save: the many
/// far-future timers (client think times, timeouts) stay out of the heap,
/// and the link hops, most of a run's events, never sift at all.
///
/// Cancellation is eager: O(1) in the wheel and the lanes (unlink) and
/// O(log n) in the heap (remove by position); the slot and its closure are
/// released at once, so no tier ever holds a dead node. Rescheduling
/// re-keys a heap node in place when it stays near and re-files it (into the
/// heap or the wheel, never a lane) otherwise. No per-event hashing or
/// allocation anywhere on the push/cancel/pop path — this is the
/// simulator's hottest loop (every request touches it a dozen times).
class EventQueue {
 public:
  /// Width of an L0 bucket: 2^22 ns (4.19 ms).
  static constexpr int kBucketShift = 22;
  /// Buckets per wheel level: 2^10. L0 spans 2^32 ns (4.3 s), L1 spans
  /// 2^42 ns (73 min).
  static constexpr int kLevelBits = 10;
  static constexpr std::size_t kBuckets = std::size_t{1} << kLevelBits;
  /// FIFO lanes, i.e. distinct push_fifo delays queued at once.
  static constexpr std::size_t kLanes = 4;

  /// Schedule `fn` at absolute time `at`. Returns an id for cancellation.
  EventId push(SimTime at, Callback&& fn);

  /// Schedule `fn` at `at` == now + `delay`, for a caller that pushes with
  /// this same `delay` again and again from a clock that never goes back.
  /// The event joins the tail of the FIFO lane for `delay`, which stays
  /// sorted because such pushes come in firing order. Fires exactly where
  /// push(at, fn) would; it takes the push() path when every lane holds
  /// events of other delays, or when `at` is earlier than the lane's tail.
  EventId push_fifo(SimTime at, SimTime delay, Callback&& fn);

  /// Cancel a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed.
  bool cancel(EventId id);

  /// Move a pending event to time `at`, keeping its id and callback. It
  /// takes a fresh sequence number, so it fires exactly where cancel + push
  /// of the same callback would: after every event already queued for `at`.
  /// Not counted in total_scheduled(). Returns false (and does nothing) if
  /// the event already fired, was cancelled, or never existed.
  bool reschedule(EventId id, SimTime at);

  /// True when no pending event remains.
  bool empty() const { return live_ == 0; }

  std::size_t size() const { return live_; }

  /// Time of the earliest pending event; SimTime::max() when empty.
  SimTime next_time() const {
    SimTime t = heap_.empty() ? SimTime::max() : heap_[0].at;
    for (std::size_t i = 0; i < lanes_open_; ++i)
      t = std::min(t, lanes_[i].head.at);
    return t;
  }

  /// Pop the earliest event. Precondition: !empty().
  struct Fired {
    SimTime at;
    Callback fn;
  };
  Fired pop();

  /// Total events ever pushed (stats / microbench instrumentation).
  std::uint64_t total_scheduled() const { return scheduled_; }

 private:
  static constexpr std::size_t kArity = 4;
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::int64_t kLevelMask = kBuckets - 1;

  /// What moves during sifts: 24 bytes, no callback traffic.
  struct Node {
    SimTime at;
    std::uint64_t seq = 0;  // push/re-key order; FIFO tie-break at equal times
    std::uint32_t slot = 0;
  };

  /// Where a slot's event is filed; kFree when it holds no pending event.
  enum class Tier : std::uint8_t { kFree, kNear, kL0, kL1, kOverflow, kLane };

  /// Owns the callback; `gen` tags the slot's current incarnation so stale
  /// EventIds from earlier occupants of a reused slot never resolve. A
  /// slot's generation only grows (32-bit: wraps after 4G reuses of one
  /// slot, far beyond any run), so ids are unique for the queue's lifetime.
  struct Slot {
    Callback fn;
    SimTime at;                  // firing time
    std::uint64_t seq = 0;       // as in Node
    std::uint32_t gen = 1;
    union {                      // which one is in use follows `tier`
      std::uint32_t pos;         // kNear: index of this slot's node in heap_
      std::uint32_t next = kNil; // wheel tiers and kLane: list links
    };
    std::uint32_t prev = kNil;
    Tier tier = Tier::kFree;
    std::uint8_t lane = 0;       // kLane: index into lanes_
  };

  /// One wheel level: list heads plus a bitmap of the non-empty buckets.
  struct Level {
    Level() { head.fill(kNil); }
    std::array<std::uint32_t, kBuckets> head;
    std::array<std::uint64_t, kBuckets / 64> used{};
  };

  /// The key of a missing node: after every real one.
  static constexpr Node kNoNode{SimTime::max(), UINT64_MAX, kNil};

  /// One FIFO lane: events in (time, sequence) order, oldest first. `head`
  /// copies the first event's key so pop() compares without touching its
  /// slot; it is kNoNode when the lane is empty, and an empty lane may be
  /// taken over by another delay.
  struct Lane {
    Node head = kNoNode;
    std::uint32_t tail = kNil;
    SimTime delay;  // the push_fifo delay it is keyed by
  };

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  static std::int64_t bucket_of(SimTime at) { return at.ns() >> kBucketShift; }

  static bool before(const Node& a, const Node& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  /// Take a free slot for a new event at `at` and count the push.
  std::uint32_t take_slot(SimTime at, Callback&& fn);
  /// The slot `id` names if it holds a pending event, else nullptr.
  Slot* pending(EventId id);

  /// Write `node` at heap index `i` and record the position in its slot.
  void place(std::size_t i, const Node& node) {
    heap_[i] = node;
    slots_[node.slot].pos = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Remove heap_[i], restoring the heap property.
  void heap_erase(std::size_t i);

  /// File a slot by its `at` into the near heap or a wheel list.
  void file(std::uint32_t slot);
  void link(std::uint32_t& head, std::uint32_t slot, Tier tier);
  void link_level(Level& level, std::int64_t index, std::uint32_t slot,
                  Tier tier);
  void unlink(std::uint32_t slot);
  /// Detach a whole list and return its first slot.
  static std::uint32_t take_list(Level& level, std::int64_t index);
  /// The lane for `delay`: the one keyed by that delay, else an empty one
  /// (re-keyed), else an unopened one, else nullptr.
  Lane* lane_for(SimTime delay);
  void lane_unlink(std::uint32_t slot);
  /// Refill the empty near heap from the wheel. Precondition: the wheel
  /// holds an event (live_ > laned_).
  void refill();
  /// The cursor has just moved to the start of an L0 span: bring that
  /// span's events into L0 (from L1, or from overflow on an L1 span).
  void enter_span();

  /// Return a slot to the free list, bumping its generation.
  void release_slot(Slot& s, std::uint32_t slot);

  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Level l0_;
  Level l1_;
  std::uint32_t overflow_ = kNil;
  std::array<Lane, kLanes> lanes_;
  std::size_t lanes_open_ = 0;  // lanes_[0, lanes_open_) have been keyed
  std::int64_t cur_ = 0;       // first L0 bucket not yet opened into heap_
  std::size_t live_ = 0;       // pending events, all tiers
  std::size_t laned_ = 0;      // pending events in lanes
  std::uint64_t scheduled_ = 0;
  std::uint64_t seq_ = 0;      // last sequence number handed out
};

}  // namespace ntier::sim
