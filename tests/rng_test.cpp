#include "sim/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

namespace ntier::sim {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(123);
  Rng child = a.fork();
  // The child stream must not replay the parent stream.
  Rng fresh(123);
  fresh.next_u64();  // consume the draw used to seed the child
  bool all_equal = true;
  for (int i = 0; i < 10; ++i)
    if (child.next_u64() != fresh.next_u64()) all_equal = false;
  EXPECT_FALSE(all_equal);
}

TEST(Rng, ForkIsDeterministicForParentSeed) {
  Rng a(77), b(77);
  Rng ca = a.fork(), cb = b.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
  // And the second fork differs from the first.
  Rng ca2 = a.fork();
  bool differs = false;
  Rng ca_replay(77);
  (void)ca_replay;
  for (int i = 0; i < 10; ++i)
    if (ca2.next_u64() != cb.next_u64()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, ForkSeedsAreMixed) {
  // The child seed must pass through splitmix64, not be the raw engine
  // draw: child(seed) != Rng(raw_draw) but == Rng(mix64(raw_draw)).
  Rng parent(123);
  Rng probe(123);
  const std::uint64_t raw = probe.next_u64();
  Rng child = parent.fork();
  Rng mixed(Rng::mix64(raw));
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child.next_u64(), mixed.next_u64());
  Rng unmixed(raw);
  bool all_equal = true;
  Rng child2 = Rng(Rng::mix64(raw));
  for (int i = 0; i < 10; ++i)
    if (child2.next_u64() != unmixed.next_u64()) all_equal = false;
  EXPECT_FALSE(all_equal);
}

TEST(Rng, DeriveSeedIsDeterministicAndCollisionFree) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.push_back(Rng::derive_seed(42, i));
    EXPECT_EQ(seeds.back(), Rng::derive_seed(42, i));  // pure function
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // Different base seeds land elsewhere.
  EXPECT_NE(Rng::derive_seed(42, 0), Rng::derive_seed(43, 0));
}

TEST(Rng, Uniform01InRange) {
  Rng r(1);
  for (int i = 0; i < 10'000; ++i) {
    const double x = r.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto x = r.uniform_int(3, 7);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 7);
    saw_lo |= (x == 3);
    saw_hi |= (x == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(3);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, ExponentialTimeMatchesMean) {
  Rng r(4);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i)
    sum += r.exponential_time(SimTime::millis(10)).to_millis();
  EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(Rng, LognormalMeanAndSpread) {
  Rng r(5);
  const int n = 200'000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = r.lognormal_mean(4.0, 0.5);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 4.0, 0.08);
  EXPECT_NEAR(std::sqrt(var) / mean, 0.5, 0.03);  // cv as requested
}

TEST(Rng, BernoulliFrequency) {
  Rng r(6);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexMatchesWeights) {
  Rng r(7);
  std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[r.weighted_index(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng r(8);
  EXPECT_THROW(r.weighted_index({}), std::invalid_argument);
  EXPECT_THROW(r.weighted_index({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, ZipfSkewsTowardsLowRanks) {
  Rng r(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[r.zipf(10, 1.0)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
  // Rank-0 frequency for s=1, n=10 is 1/H_10 ≈ 0.341.
  EXPECT_NEAR(counts[0] / 100'000.0, 0.341, 0.02);
}

TEST(Rng, ZipfRejectsEmptyDomain) {
  Rng r(10);
  EXPECT_THROW(r.zipf(0, 1.0), std::invalid_argument);
}

// --- the in-house MT19937-64 against the library engine ---------------------

/// sim::Rng's draw recipes over std::mt19937_64: the reference the per-draw
/// engine must match bit for bit.
class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed) {}
  StdRng fork() { return StdRng(Rng::mix64(engine_())); }
  std::uint64_t next_u64() { return engine_(); }
  double uniform01() { return std::generate_canonical<double, 53>(engine_); }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  double lognormal_mean(double mean, double cv) {
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::lognormal_distribution<double>(mu, std::sqrt(sigma2))(engine_);
  }
  bool bernoulli(double p) { return uniform01() < p; }
  std::size_t weighted_index(const std::vector<double>& weights) {
    double total = 0;
    for (double w : weights) total += w;
    double x = uniform01() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x < 0) return i;
    }
    return weights.size() - 1;
  }

 private:
  std::mt19937_64 engine_;
};

/// Every draw kind once per round, so each distribution sees engine words
/// on both sides of every twist boundary.
void expect_same_draws(Rng& rng, StdRng& ref, int rounds) {
  const std::vector<double> weights{0.5, 3.0, 0.0, 1.25, 7.0};
  for (int r = 0; r < rounds; ++r) {
    ASSERT_EQ(rng.uniform01(), ref.uniform01()) << "round " << r;
    ASSERT_EQ(rng.exponential(0.37), ref.exponential(0.37)) << "round " << r;
    ASSERT_EQ(rng.lognormal_mean(0.55, 0.3), ref.lognormal_mean(0.55, 0.3))
        << "round " << r;
    ASSERT_EQ(rng.uniform_int(-5, 1'000'003), ref.uniform_int(-5, 1'000'003))
        << "round " << r;
    ASSERT_EQ(rng.uniform_int(INT64_MIN, INT64_MAX),
              ref.uniform_int(INT64_MIN, INT64_MAX))
        << "round " << r;
    ASSERT_EQ(rng.bernoulli(0.85), ref.bernoulli(0.85)) << "round " << r;
    ASSERT_EQ(rng.weighted_index(weights), ref.weighted_index(weights))
        << "round " << r;
  }
}

TEST(Rng, EngineMatchesStdMt19937_64) {
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  std::vector<std::uint64_t> seeds{0, 1, 42, UINT64_MAX};
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.push_back(Rng::mix64(i));
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(seed);
    // Raw words across three full generations plus a partial fourth.
    Mt19937_64 engine(seed);
    std::mt19937_64 lib(seed);
    for (std::size_t i = 0; i < 3 * Mt19937_64::kN + 7; ++i)
      ASSERT_EQ(engine(), lib()) << "draw " << i;

    // The Rng recipes, and a chain of forks each drawing across a boundary.
    Rng rng(seed);
    StdRng ref(seed);
    ASSERT_EQ(rng.next_u64(), ref.next_u64());
    ASSERT_NO_FATAL_FAILURE(expect_same_draws(rng, ref, 60));
    for (int depth = 0; depth < 4; ++depth) {
      SCOPED_TRACE(depth);
      rng = rng.fork();
      ref = ref.fork();
      ASSERT_NO_FATAL_FAILURE(expect_same_draws(rng, ref, 50));
    }
  }
}

}  // namespace
}  // namespace ntier::sim
