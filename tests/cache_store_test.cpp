// Unit tests of the per-node cache store: bounded LRU order, lazy TTL
// expiry, invalidation, and the capacity floor — the building block under
// the cache tier's accounting identities.
#include "cache/store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <list>
#include <random>
#include <unordered_map>

#include "cache/config.h"
#include "sim/time.h"

namespace ntier::cache {
namespace {

using sim::SimTime;

constexpr SimTime kTtl = SimTime::seconds(10);

TEST(CacheStore, MissThenInsertThenHit) {
  CacheStore store(4);
  EXPECT_FALSE(store.lookup(1, SimTime::zero()));
  store.insert(1, SimTime::zero(), kTtl);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.lookup(1, SimTime::millis(1)));
  EXPECT_EQ(store.evictions(), 0u);
  EXPECT_EQ(store.expirations(), 0u);
}

TEST(CacheStore, EvictsLeastRecentlyUsedAtCapacity) {
  CacheStore store(2);
  store.insert(1, SimTime::zero(), kTtl);
  store.insert(2, SimTime::millis(1), kTtl);
  // Touch key 1 so key 2 becomes the LRU victim.
  EXPECT_TRUE(store.lookup(1, SimTime::millis(2)));
  store.insert(3, SimTime::millis(3), kTtl);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_TRUE(store.lookup(1, SimTime::millis(4)));
  EXPECT_FALSE(store.lookup(2, SimTime::millis(4)));  // evicted
  EXPECT_TRUE(store.lookup(3, SimTime::millis(4)));
}

TEST(CacheStore, ReinsertRefreshesInsteadOfEvicting) {
  CacheStore store(2);
  store.insert(1, SimTime::zero(), kTtl);
  store.insert(2, SimTime::zero(), kTtl);
  store.insert(1, SimTime::millis(1), kTtl);  // refresh, not a new entry
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(CacheStore, TtlExpiresLazilyAtLookup) {
  CacheStore store(4);
  store.insert(1, SimTime::zero(), SimTime::millis(5));
  EXPECT_TRUE(store.lookup(1, SimTime::millis(4)));  // still live
  EXPECT_FALSE(store.lookup(1, SimTime::millis(6)));  // dead: erased + counted
  EXPECT_EQ(store.expirations(), 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(CacheStore, ReinsertExtendsExpiry) {
  CacheStore store(4);
  store.insert(1, SimTime::zero(), SimTime::millis(5));
  store.insert(1, SimTime::millis(4), SimTime::millis(5));
  EXPECT_TRUE(store.lookup(1, SimTime::millis(8)));  // refreshed to t=9ms
  EXPECT_EQ(store.expirations(), 0u);
}

TEST(CacheStore, HoldsProbesWithoutPromoting) {
  CacheStore store(2);
  store.insert(1, SimTime::zero(), kTtl);
  store.insert(2, SimTime::millis(1), kTtl);
  // holds() must not promote key 1, so it stays the LRU victim.
  EXPECT_TRUE(store.holds(1, SimTime::millis(2)));
  store.insert(3, SimTime::millis(3), kTtl);
  EXPECT_FALSE(store.holds(1, SimTime::millis(4)));  // evicted despite probe
  EXPECT_TRUE(store.holds(2, SimTime::millis(4)));
}

TEST(CacheStore, HoldsErasesAndCountsExpiredEntries) {
  CacheStore store(4);
  store.insert(1, SimTime::zero(), SimTime::millis(5));
  EXPECT_FALSE(store.holds(1, SimTime::millis(6)));
  EXPECT_EQ(store.expirations(), 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(CacheStore, InvalidateDropsResidentKeysOnly) {
  CacheStore store(4);
  store.insert(1, SimTime::zero(), kTtl);
  EXPECT_TRUE(store.invalidate(1));
  EXPECT_FALSE(store.invalidate(1));  // already gone
  EXPECT_FALSE(store.invalidate(99));
  EXPECT_EQ(store.size(), 0u);
  // Invalidation is neither an eviction nor an expiration.
  EXPECT_EQ(store.evictions(), 0u);
  EXPECT_EQ(store.expirations(), 0u);
}

TEST(CacheStore, ZeroCapacityClampsToOneEntry) {
  CacheStore store(0);
  EXPECT_EQ(store.capacity(), 1u);
  store.insert(1, SimTime::zero(), kTtl);
  store.insert(2, SimTime::millis(1), kTtl);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_TRUE(store.lookup(2, SimTime::millis(2)));
}

// -- reference model -----------------------------------------------------------

/// The store as first written: a std::list LRU (front = most recently used)
/// indexed by a std::unordered_map. CacheStore must agree with it on every
/// return value and counter.
class ListLruStore {
 public:
  explicit ListLruStore(std::size_t capacity)
      : capacity_(capacity ? capacity : 1) {}

  bool lookup(std::uint64_t key, SimTime now) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    if (it->second->expires <= now) {
      ++expirations_;
      erase(it->second);
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  bool holds(std::uint64_t key, SimTime now) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    if (it->second->expires <= now) {
      ++expirations_;
      erase(it->second);
      return false;
    }
    return true;
  }
  void insert(std::uint64_t key, SimTime now, SimTime ttl) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->expires = now + ttl;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{key, now + ttl});
    index_[key] = lru_.begin();
    if (index_.size() > capacity_) {
      ++evictions_;
      erase(std::prev(lru_.end()));
    }
  }
  bool invalidate(std::uint64_t key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    erase(it->second);
    return true;
  }
  std::size_t size() const { return index_.size(); }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t expirations() const { return expirations_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    SimTime expires;
  };
  void erase(std::list<Entry>::iterator it) {
    index_.erase(it->key);
    lru_.erase(it);
  }

  std::size_t capacity_;
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::uint64_t evictions_ = 0;
  std::uint64_t expirations_ = 0;
};

TEST(CacheStore, MatchesListLruReferenceOnRandomStreams) {
  for (const std::size_t capacity : {1u, 2u, 64u}) {
    SCOPED_TRACE(capacity);
    CacheStore store(capacity);
    ListLruStore ref(capacity);
    std::mt19937_64 rng(capacity * 1000 + 7);
    // Keys from a range about twice the capacity, so hits, misses,
    // evictions and refreshes all happen. The clock advances 1 ms per call
    // on average and TTLs run from 1 ms to 8 ms per key, so a full store
    // is common and so are expired entries.
    const std::uint64_t keys = 2 * capacity + 3;
    const auto max_ttl_us = static_cast<std::uint64_t>(8000 * keys);
    SimTime now = SimTime::zero();
    for (int step = 0; step < 200'000; ++step) {
      now = now + SimTime::micros(static_cast<std::int64_t>(rng() % 2000));
      const std::uint64_t key = rng() % keys;
      const SimTime ttl =
          SimTime::micros(1000 + static_cast<std::int64_t>(rng() % max_ttl_us));
      switch (rng() % 4) {
        case 0:
          ASSERT_EQ(store.lookup(key, now), ref.lookup(key, now))
              << "step " << step;
          break;
        case 1:
          ASSERT_EQ(store.holds(key, now), ref.holds(key, now))
              << "step " << step;
          break;
        case 2:
          store.insert(key, now, ttl);
          ref.insert(key, now, ttl);
          break;
        default:
          ASSERT_EQ(store.invalidate(key), ref.invalidate(key))
              << "step " << step;
          break;
      }
      ASSERT_EQ(store.size(), ref.size()) << "step " << step;
      ASSERT_EQ(store.evictions(), ref.evictions()) << "step " << step;
      ASSERT_EQ(store.expirations(), ref.expirations()) << "step " << step;
    }
    // The stream exercised every path.
    EXPECT_GT(ref.evictions(), 0u);
    EXPECT_GT(ref.expirations(), 0u);
  }
}

// -- CacheConfig parsing ------------------------------------------------------

TEST(CacheConfig, RoundTripsThroughString) {
  CacheConfig c;
  c.nodes = 3;
  c.bytes = 1ull << 20;
  c.entry_bytes = 1024;
  c.ttl = SimTime::millis(2500);
  c.invalidation_queue_capacity = 128;
  c.coalesce = false;
  std::string err;
  const auto parsed = cache_config_from_string(c.to_string(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->to_string(), c.to_string());
}

TEST(CacheConfig, ParseAppliesPartialOverridesOverDefaults) {
  std::string err;
  const auto parsed = cache_config_from_string("nodes=4,ttl_ms=500", &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->nodes, 4);
  EXPECT_EQ(parsed->ttl, SimTime::millis(500));
  EXPECT_EQ(parsed->entry_bytes, 4096u);  // untouched default
}

TEST(CacheConfig, RejectsUnknownKeysAndMalformedItems) {
  std::string err;
  EXPECT_FALSE(cache_config_from_string("bogus=1", &err).has_value());
  EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
  EXPECT_FALSE(cache_config_from_string("nodes", &err).has_value());
  EXPECT_FALSE(cache_config_from_string("nodes=two", &err).has_value());
}

TEST(CacheConfig, RejectsInvalidGeometry) {
  std::string err;
  EXPECT_FALSE(cache_config_from_string("nodes=0", &err).has_value());
  EXPECT_FALSE(cache_config_from_string("bytes=0", &err).has_value());
  EXPECT_FALSE(cache_config_from_string("entry=0", &err).has_value());
  EXPECT_FALSE(cache_config_from_string("ttl_ms=0", &err).has_value());
}

TEST(CacheConfig, CapacityEntriesHasAFloorOfOne) {
  CacheConfig c;
  c.bytes = 1024;
  c.entry_bytes = 4096;  // bigger than the whole budget
  EXPECT_EQ(c.capacity_entries(), 1u);
  c.bytes = 64ull << 20;
  EXPECT_EQ(c.capacity_entries(), (64ull << 20) / 4096u);
}

}  // namespace
}  // namespace ntier::cache
