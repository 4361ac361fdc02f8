#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ntier::sim {

/// Open-addressing index from a 64-bit key to a 32-bit slot number, for
/// per-key state kept in a caller-owned flat array (a cache slab, a version
/// vector). Linear probing in one power-of-two table of 16-byte cells, grown
/// on demand (never pre-sized), erase by backward shift (no tombstones).
///
/// The home cell of a key keeps its low bits and folds the bits above the
/// mask in with a multiplicative hash: the dense small keys this simulator
/// uses (Zipf popularity ranks, hottest first) land in distinct low cells,
/// while strided keys such as `i << 20`, whose low bits all agree, still
/// spread over the table instead of forming one probe chain.
class FlatIndex {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::size_t size() const { return size_; }

  /// The value stored for `key`, or kNone.
  std::uint32_t find(std::uint64_t key) const {
    return size_ == 0 ? kNone : cells_[locate(key)].value;
  }

  /// Insert `key -> value` unless the key is present. Returns the stored
  /// value and whether it was inserted. `value` must not be kNone.
  std::pair<std::uint32_t, bool> emplace(std::uint64_t key,
                                         std::uint32_t value) {
    if (2 * (size_ + 1) > cells_.size()) grow();
    Cell& c = cells_[locate(key)];
    if (c.value != kNone) return {c.value, false};
    c = Cell{key, value};
    ++size_;
    return {value, true};
  }

  /// Remove `key`; false when it was absent. Later members of its probe
  /// chain shift back into the hole, so lookups never cross a tombstone.
  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    std::size_t hole = locate(key);
    if (cells_[hole].value == kNone) return false;
    for (std::size_t j = (hole + 1) & mask_; cells_[j].value != kNone;
         j = (j + 1) & mask_) {
      // A cell may fill the hole when the hole lies on its probe path:
      // its distance from home reaches at least back to the hole.
      const std::size_t from_home = (j - home(cells_[j].key)) & mask_;
      if (from_home >= ((j - hole) & mask_)) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole].value = kNone;
    --size_;
    return true;
  }

  /// Cells from a key's home cell to the cell holding it, counting both;
  /// 0 when absent. Exposed for tests of the probe-chain bound.
  std::size_t probe_length(std::uint64_t key) const {
    if (size_ == 0) return 0;
    const std::size_t i = locate(key);
    return cells_[i].value == kNone ? 0 : ((i - home(key)) & mask_) + 1;
  }

 private:
  struct Cell {
    std::uint64_t key = 0;
    std::uint32_t value = kNone;  // kNone marks an empty cell
  };

  /// The cell holding `key`, or the empty cell that ends its probe chain.
  /// The table is never full, so the walk ends.
  std::size_t locate(std::uint64_t key) const {
    std::size_t i = home(key);
    while (cells_[i].value != kNone && cells_[i].key != key) i = (i + 1) & mask_;
    return i;
  }

  std::size_t home(std::uint64_t key) const {
    const std::uint64_t high = (key >> bits_) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(key ^ (high >> (64 - bits_))) & mask_;
  }

  void grow() {
    std::vector<Cell> old(cells_.empty() ? 16 : 2 * cells_.size());
    old.swap(cells_);
    mask_ = cells_.size() - 1;
    bits_ = static_cast<unsigned>(std::countr_zero(cells_.size()));
    for (const Cell& c : old) {
      if (c.value == kNone) continue;
      std::size_t i = home(c.key);
      while (cells_[i].value != kNone) i = (i + 1) & mask_;
      cells_[i] = c;
    }
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  unsigned bits_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ntier::sim
