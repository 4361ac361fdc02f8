#pragma once

#include <cstddef>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace costbench {

/// SIGPROF stack sampler for the traced repetition. While armed, every
/// timer tick stores the interrupted call stack as raw return addresses in
/// preallocated buffers (nothing is allocated or symbolized in the signal
/// handler). After the run, attribute() expands each address into its
/// inline chain and charges the sample to the innermost level that names a
/// layer:
///   - "alloc": an allocation function (malloc/free family, operator
///     new/delete, the counting allocator);
///   - "std_function": code from <bits/std_function.h> (closure managers,
///     the invoker thunk, inlined constructors);
///   - a src/ module ("sim", "lb", "control", ...): code whose source file
///     is under src/<module>/, including inlined header code and lambdas;
///   - "bench": the benchmark's own files.
/// Levels in other standard-library or libc code are charged to the next
/// level out; a sample with no such level counts as "other".
///
/// One sampler may be armed at a time (the handler reads a global).
class Sampler {
 public:
  explicit Sampler(std::size_t max_samples);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Arm a periodic SIGPROF timer with the given period.
  void start(int period_us);
  void stop();

  /// Samples taken; ticks after the buffers are full are dropped.
  std::size_t samples() const;

  /// Samples per layer. `exe_path` is this program's executable (read by
  /// addr2line for its debug information); `scratch_path` is a temporary
  /// file for the address list, removed afterwards.
  std::map<std::string, std::uint64_t> attribute(
      const std::string& exe_path, const std::string& scratch_path) const;

 private:
  std::vector<void*> frames_;
  std::vector<std::uintptr_t> leaf_pc_;
  std::vector<int> depth_;
  timer_t timer_{};
  bool armed_ = false;
};

}  // namespace costbench
