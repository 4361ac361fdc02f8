#pragma once

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

/// Min-heap of timed callbacks. Ties are broken by scheduling order (FIFO
/// among events at the same instant) so runs are deterministic.
///
/// Implementation: a 4-ary heap of small POD nodes {time, sequence, slot}
/// over a generation-tagged slot table that owns the callbacks; each slot
/// tracks its node's heap position. Cancellation is O(1) (disarm the slot,
/// release the closure) and lazy in the heap: dead nodes are skipped when
/// they surface at the top. Rescheduling re-keys the node in place. No
/// per-event hashing anywhere on the push/cancel/pop path — this is the
/// simulator's hottest loop (every request touches it a dozen times).
class EventQueue {
 public:
  /// Schedule `fn` at absolute time `at`. Returns an id for cancellation.
  EventId push(SimTime at, Callback fn);

  /// Cancel a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed. O(1).
  bool cancel(EventId id);

  /// Move a pending event to time `at`, keeping its id and callback. It
  /// takes a fresh sequence number, so it fires exactly where cancel + push
  /// of the same callback would: after every event already queued for `at`.
  /// Not counted in total_scheduled(). Returns false (and does nothing) if
  /// the event already fired, was cancelled, or never existed.
  bool reschedule(EventId id, SimTime at);

  /// True when no live (non-cancelled) event remains.
  bool empty() const { return live_ == 0; }

  std::size_t size() const { return live_; }

  /// Time of the earliest live event; SimTime::max() when empty.
  SimTime next_time() const;

  /// Pop the earliest live event. Precondition: !empty().
  struct Fired {
    SimTime at;
    Callback fn;
  };
  Fired pop();

  /// Total events ever pushed (stats / microbench instrumentation).
  std::uint64_t total_scheduled() const { return scheduled_; }

 private:
  static constexpr std::size_t kArity = 4;

  /// What moves during sifts: 24 bytes, no callback traffic.
  struct Node {
    SimTime at;
    std::uint64_t seq = 0;  // push/re-key order; FIFO tie-break at equal times
    std::uint32_t slot = 0;
  };

  /// Owns the callback; `gen` tags the slot's current incarnation so stale
  /// EventIds from earlier occupants of a reused slot never resolve. A
  /// slot's generation only grows (32-bit: wraps after 4G reuses of one
  /// slot, far beyond any run), so ids are unique for the queue's lifetime.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;
    std::uint32_t pos = 0;  // index of this slot's node in heap_
    bool armed = false;     // scheduled, not yet cancelled or fired
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

  static bool before(const Node& a, const Node& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  /// Write `node` at heap index `i` and record the position in its slot.
  void place(std::size_t i, const Node& node) const {
    heap_[i] = node;
    slots_[node.slot].pos = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;
  /// Remove heap_[0], restoring the heap property.
  void remove_top() const;
  /// Return a slot to the free list, bumping its generation.
  void release_slot(std::uint32_t slot) const;
  /// Drop cancelled nodes from the top until a live one (or empty) surfaces.
  void prune_top() const;

  // Mutable: next_time() is logically const but may shed cancelled tops.
  mutable std::vector<Node> heap_;
  mutable std::vector<Slot> slots_;
  mutable std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;       // armed events (heap may hold more nodes)
  std::uint64_t scheduled_ = 0;
  std::uint64_t seq_ = 0;      // last sequence number handed out
};

}  // namespace ntier::sim
