#pragma once

#include <cstdint>
#include <vector>

#include "sim/flat_index.h"
#include "sim/time.h"

namespace ntier::cache {

/// One node's key set: a bounded LRU with per-entry TTLs. Entries expire
/// lazily — an expired entry is discovered (and counted) at the lookup or
/// holds() probe that finds it, which is exactly when a memcached-style
/// cache pays the expiry cost. Entries live in one slab vector, threaded
/// on an index-linked LRU list (free slots on a free list) and found through
/// a sim::FlatIndex. Every operation is keyed explicitly and no output ever
/// depends on hash-table order, so the store is byte-deterministic by
/// construction.
class CacheStore {
 public:
  explicit CacheStore(std::size_t capacity_entries)
      : capacity_(capacity_entries ? capacity_entries : 1) {}

  /// Look a key up at `now`: a live entry is promoted to most-recently-used
  /// and counts a hit; a dead (expired) entry is erased and counts both an
  /// expiration and a miss.
  bool lookup(std::uint64_t key, sim::SimTime now);

  /// True when the key is resident and live at `now`, without promoting it
  /// (the invalidation broadcast's "does this node hold the key" probe).
  /// Expired entries found here are erased and counted.
  bool holds(std::uint64_t key, sim::SimTime now);

  /// Install (or refresh) a key with expiry `now + ttl`, evicting the
  /// least-recently-used entry when over capacity.
  void insert(std::uint64_t key, sim::SimTime now, sim::SimTime ttl);

  /// Drop a key; true when it was resident.
  bool invalidate(std::uint64_t key);

  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t expirations() const { return expirations_; }

 private:
  static constexpr std::uint32_t kNil = sim::FlatIndex::kNone;

  /// One slab slot: a resident entry threaded on the LRU list, or a free
  /// slot threaded on the free list through `next`.
  struct Entry {
    std::uint64_t key = 0;
    sim::SimTime expires;
    std::uint32_t prev = kNil;  // toward the most recently used end
    std::uint32_t next = kNil;  // toward the least recently used end
  };

  /// The key's slot, or kNil when absent or expired at `now` (an expired
  /// entry is erased and counted).
  std::uint32_t find_live(std::uint64_t key, sim::SimTime now);
  void link_front(std::uint32_t slot);
  void promote(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  void erase(std::uint32_t slot);

  std::size_t capacity_;
  std::vector<Entry> entries_;  // grows on demand, at most capacity_ + 1
  sim::FlatIndex index_;        // key -> slot in entries_
  std::uint32_t head_ = kNil;   // most recently used
  std::uint32_t tail_ = kNil;   // least recently used: the eviction victim
  std::uint32_t free_ = kNil;
  std::uint64_t evictions_ = 0;
  std::uint64_t expirations_ = 0;
};

}  // namespace ntier::cache
