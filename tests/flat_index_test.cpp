// Unit and reference-model tests of sim::FlatIndex, the open-addressing
// key -> slot index under the cache store and the KV version table.
#include "sim/flat_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

namespace ntier::sim {
namespace {

constexpr std::uint32_t kNone = FlatIndex::kNone;

TEST(FlatIndex, EmptyFindsNothing) {
  const FlatIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.find(0), kNone);
  EXPECT_EQ(index.find(12345), kNone);
  FlatIndex mutable_index;
  EXPECT_FALSE(mutable_index.erase(7));
}

TEST(FlatIndex, EmplaceKeepsTheFirstValue) {
  FlatIndex index;
  EXPECT_EQ(index.emplace(42, 3), std::make_pair(std::uint32_t{3}, true));
  EXPECT_EQ(index.emplace(42, 9), std::make_pair(std::uint32_t{3}, false));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.find(42), 3u);
  // Key 0 and the largest key are ordinary keys.
  index.emplace(0, 1);
  index.emplace(UINT64_MAX, 2);
  EXPECT_EQ(index.find(0), 1u);
  EXPECT_EQ(index.find(UINT64_MAX), 2u);
}

TEST(FlatIndex, DenseSmallKeysEachTakeTheirHomeCell) {
  // Zipf ranks: the hottest keys are 0, 1, 2, ... Every one of them must be
  // found at its first probe.
  FlatIndex index;
  for (std::uint64_t k = 0; k < 5000; ++k)
    index.emplace(k, static_cast<std::uint32_t>(k));
  for (std::uint64_t k = 0; k < 5000; ++k) {
    ASSERT_EQ(index.find(k), k);
    ASSERT_EQ(index.probe_length(k), 1u) << "key " << k;
  }
}

TEST(FlatIndex, StridedKeysDoNotCollapseIntoOneChain) {
  // Keys whose low 20 bits all agree: a hash of the low bits alone would
  // give them one home cell and a chain as long as the key set.
  FlatIndex index;
  constexpr std::uint64_t kKeys = 4096;
  for (std::uint64_t i = 0; i < kKeys; ++i)
    index.emplace(i << 20, static_cast<std::uint32_t>(i));
  std::size_t longest = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(index.find(i << 20), i);
    longest = std::max(longest, index.probe_length(i << 20));
  }
  EXPECT_LE(longest, 8u);
}

TEST(FlatIndex, EraseShiftsAWrappedChainBackAcrossTheTableEnd) {
  // Keys 14 and 15 take the last two cells of the first 16-cell table;
  // colliding keys then wrap to cells 0 and 1. Erasing 15 must pull the
  // wrapped keys back so each is still found without tombstones.
  FlatIndex index;
  index.emplace(14, 0);
  index.emplace(15, 1);
  std::vector<std::uint64_t> wrapped;
  for (std::uint64_t k = 16; wrapped.size() < 2 && k < 100000; ++k) {
    index.emplace(k, static_cast<std::uint32_t>(10 + wrapped.size()));
    // Homed on cell 14 or 15 and placed past the end: probe length of at
    // least two beyond the occupied tail.
    if (index.probe_length(k) >= 2 + wrapped.size())
      wrapped.push_back(k);
    else
      ASSERT_TRUE(index.erase(k));
  }
  ASSERT_EQ(wrapped.size(), 2u);
  index.emplace(2, 2);  // a key at home right after the wrapped ones
  ASSERT_LE(index.size(), 8u);  // still the first 16-cell table

  ASSERT_TRUE(index.erase(15));
  EXPECT_FALSE(index.erase(15));
  EXPECT_EQ(index.find(15), kNone);
  EXPECT_EQ(index.find(14), 0u);
  EXPECT_EQ(index.find(wrapped[0]), 10u);
  EXPECT_EQ(index.find(wrapped[1]), 11u);
  EXPECT_EQ(index.find(2), 2u);
  EXPECT_EQ(index.probe_length(2), 1u);
  // The shift moved each wrapped key one cell closer to its home.
  EXPECT_LE(index.probe_length(wrapped[0]), 2u);
  EXPECT_EQ(index.size(), 4u);

  ASSERT_TRUE(index.erase(14));
  ASSERT_TRUE(index.erase(wrapped[0]));
  EXPECT_EQ(index.find(wrapped[1]), 11u);
  EXPECT_EQ(index.find(2), 2u);
}

TEST(FlatIndex, MatchesUnorderedMapThroughGrowthAndErase) {
  // Dense, strided and random keys, inserted and erased at random while the
  // table grows from 16 cells to tens of thousands.
  std::mt19937_64 rng(17);
  std::vector<std::uint64_t> pool;
  for (std::uint64_t k = 0; k < 3000; ++k) pool.push_back(k);
  for (std::uint64_t k = 0; k < 3000; ++k) pool.push_back(k << 24);
  for (int k = 0; k < 3000; ++k) pool.push_back(rng());
  FlatIndex index;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  std::uint32_t next_value = 0;
  for (int step = 0; step < 200'000; ++step) {
    const std::uint64_t key = pool[rng() % pool.size()];
    // Mostly inserts early on, balanced later, so the size rises and falls.
    const bool insert = rng() % 100 < (step < 100'000 ? 70u : 45u);
    if (insert) {
      const auto [it, fresh] = ref.emplace(key, next_value);
      ASSERT_EQ(index.emplace(key, next_value),
                std::make_pair(it->second, fresh));
      ++next_value;
    } else {
      ASSERT_EQ(index.erase(key), ref.erase(key) == 1) << "step " << step;
    }
    ASSERT_EQ(index.size(), ref.size());
    const std::uint64_t probe = pool[rng() % pool.size()];
    const auto it = ref.find(probe);
    ASSERT_EQ(index.find(probe), it == ref.end() ? kNone : it->second)
        << "step " << step;
  }
  for (const std::uint64_t key : pool) {
    const auto it = ref.find(key);
    ASSERT_EQ(index.find(key), it == ref.end() ? kNone : it->second);
  }
}

}  // namespace
}  // namespace ntier::sim
