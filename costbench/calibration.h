#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace costbench {

/// A fixed reference workload compiled into the benchmark only, timed
/// next to the simulator to measure how fast the host runs right now. It
/// never changes with the simulator, so dividing the simulator's host time
/// by it cancels host speed drift (other tenants, frequency) without
/// cancelling a change to the simulator.
///
/// A burst first touches all of its data, so the timed part does not depend
/// on what the simulator left in the caches. The timed part has two phases
/// in the shape of an event-queue kernel: 2048 pops and pushes on a
/// 4096-entry binary heap, each with a read into a 2 MiB table, then 2048
/// on a 512-entry heap with no table. Of the kernels tried, this mix slowed
/// down under interference most like the simulator did, on all three
/// workloads, on the host the benchmark was defined on (see README.md).
class Calibration {
 public:
  Calibration()
      : table_(std::size_t{1} << 18),
        large_(make_heap(4096)),
        small_(make_heap(512)) {
    for (auto& v : table_) v = next();
  }

  /// Host microseconds of one burst's timed part.
  double burst_us() {
    std::uint64_t sum = touch(table_) + touch(large_) + touch(small_);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 2048; ++i) {
      const std::uint64_t r = step(large_);
      sum += table_[r & (table_.size() - 1)];
    }
    for (int i = 0; i < 2048; ++i) sum += step(small_);
    const auto t1 = std::chrono::steady_clock::now();
    sink_ += sum;
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
  }

  /// Folded results, so the work cannot be optimized away.
  std::uint64_t sink() const { return sink_; }

 private:
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_;
  }
  std::vector<std::uint64_t> make_heap(std::size_t n) {
    std::vector<std::uint64_t> heap(n);
    for (auto& v : heap) v = next() >> 20;
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    return heap;
  }
  // One read per 64-byte line.
  static std::uint64_t touch(const std::vector<std::uint64_t>& v) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < v.size(); i += 8) sum += v[i];
    return sum;
  }
  // Pop the earliest timestamp and push a later one; returns the draw.
  std::uint64_t step(std::vector<std::uint64_t>& heap) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const std::uint64_t r = next();
    heap.back() += r >> 44;
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    return r;
  }

  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> large_, small_;
  std::uint64_t sink_ = 0;
};

}  // namespace costbench
