#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/time.h"

namespace ntier::sim {

/// MT19937-64 with exactly the seeding recurrence, state recurrence and
/// tempering of std::mt19937_64, so every raw draw -- and every standard
/// distribution driven by it -- is bit-identical to the library engine.
///
/// The library engine regenerates all 312 state words on the first draw of
/// each generation. This one twists word i just before drawing it. Updating
/// in index order reads exactly the words the batch pass reads: word i
/// combines words (i+1) mod n and (i+m) mod n, each already updated in this
/// generation exactly when its index is below i. So a short-lived stream,
/// such as a forked per-session Rng, pays only for seeding plus the words
/// it actually draws.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i)
      x_[i] = 6364136223846793005ull * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
  }

  result_type operator()() {
    const std::size_t i = i_;
    const std::size_t next = i + 1 == kN ? 0 : i + 1;
    const std::size_t far = i < kN - kM ? i + kM : i + kM - kN;
    const result_type y = (x_[i] & kUpper) | (x_[next] & kLower);
    result_type z = x_[far] ^ (y >> 1) ^ ((0 - (y & 1)) & kA);
    x_[i] = z;
    i_ = next;
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr result_type kA = 0xB5026F5AA96619E9ull;
  static constexpr result_type kUpper = ~result_type{0} << 31;
  static constexpr result_type kLower = ~kUpper;

  result_type x_[kN];
  std::size_t i_ = 0;  // next word to twist and draw
};

/// Deterministic random source for the simulator. Every stochastic component
/// takes an Rng (or forks one from a parent) so that a run is fully
/// reproducible from a single seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// splitmix64 finaliser: a bijective avalanche mix. Used to turn nearby /
  /// weakly mixed 64-bit values (raw engine draws, seed+index pairs) into
  /// well-separated seeds for child streams.
  static std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  /// Derive an independent child stream; used to give each client / server /
  /// injector its own stream so component insertion order does not perturb
  /// other components' draws. The raw MT19937-64 draw is mixed through
  /// splitmix64 before seeding: MT19937-64's seeding of its 19937-bit state
  /// from a single word is weak enough that correlated/poorly mixed seed
  /// words give observably correlated child streams. Determinism is
  /// preserved (same parent seed => same children).
  Rng fork() { return Rng(mix64(engine_())); }

  /// Deterministic per-replica seed derivation for multi-seed sweeps:
  /// independent of thread scheduling, collision-resistant across run
  /// indices, and distinct from the base stream itself.
  static std::uint64_t derive_seed(std::uint64_t base_seed,
                                   std::uint64_t index) {
    return mix64(base_seed + 0x632BE59BD9B4E019ull * (index + 1));
  }

  std::uint64_t next_u64() { return engine_(); }

  /// Uniform in [0, 1).
  double uniform01() { return unit_interval(engine_()); }

  /// One engine word as a double in [0, 1), bit-identical to
  /// std::generate_canonical<double, 53> over a 64-bit engine: the word
  /// rounded once to double, scaled by 2^-64, and clamped below 1. Adding
  /// the two exact 32-bit halves does that rounding without the sign-bit
  /// branch of a u64 -> double conversion.
  static double unit_interval(std::uint64_t word) {
    const double r = (static_cast<double>(word >> 32) * 0x1p32 +
                      static_cast<double>(word & 0xFFFFFFFFull)) *
                     0x1p-64;
    return std::min(r, 0x1.fffffffffffffp-1);  // nextafter(1.0, 0.0)
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Exponential inter-arrival / think time as a SimTime.
  SimTime exponential_time(SimTime mean) {
    return SimTime::from_seconds(exponential(mean.to_seconds()));
  }

  /// Log-normal parameterised by the mean and sigma of the *result*
  /// distribution (not of the underlying normal). Used for service-demand
  /// jitter.
  double lognormal_mean(double mean, double cv) {
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::lognormal_distribution<double>(mu, std::sqrt(sigma2))(engine_);
  }

  bool bernoulli(double p) { return uniform01() < p; }

  /// Draw an index from a discrete distribution given (unnormalised) weights.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Zipf-distributed integer in [0, n) with exponent s (popularity skew for
  /// query-cache modelling).
  std::size_t zipf(std::size_t n, double s);

 private:
  Mt19937_64 engine_;
};

}  // namespace ntier::sim
