#include "obs/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

namespace ntier::obs {
namespace {

// Deterministic value stream (no platform-dependent std:: distributions).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  double uniform01() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state_ >> 11) * 0x1p-53;
  }

 private:
  std::uint64_t state_;
};

/// Exact sample quantile under the sketch's own rank convention
/// (rank = q * (n - 1), first value whose cumulative count exceeds it).
double exact_quantile(std::vector<double> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(rank)];
}

TEST(DDSketch, EmptyAndSingleValue) {
  DDSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);

  s.record(123.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_NEAR(s.quantile(0.5), 123.0, 0.02 * 123.0);
  EXPECT_NEAR(s.quantile(0.99), 123.0, 0.02 * 123.0);
  EXPECT_EQ(s.min(), 123.0);
  EXPECT_EQ(s.max(), 123.0);
}

TEST(DDSketch, RelativeErrorBoundAcrossMagnitudes) {
  // The headline property: every reported quantile is within
  // relative_accuracy of the true sample quantile, for samples spanning six
  // orders of magnitude and for samples clustered tightly.
  const double a = SketchConfig{}.relative_accuracy;
  struct Gen {
    const char* name;
    double (*next)(Lcg&);
  };
  const Gen gens[] = {
      {"uniform [1, 1000]",
       [](Lcg& r) { return 1.0 + 999.0 * r.uniform01(); }},
      {"log-uniform [1e-3, 1e3]",
       [](Lcg& r) { return std::pow(10.0, -3.0 + 6.0 * r.uniform01()); }},
      {"bimodal latencies",
       [](Lcg& r) {
         return r.uniform01() < 0.95 ? 20.0 + 10.0 * r.uniform01()
                                     : 1000.0 + 2000.0 * r.uniform01();
       }},
  };
  for (const Gen& g : gens) {
    Lcg rng(7);
    DDSketch s;
    std::vector<double> samples;
    for (int i = 0; i < 20'000; ++i) {
      const double v = g.next(rng);
      samples.push_back(v);
      s.record(v);
    }
    for (double q : {0.25, 0.5, 0.9, 0.95, 0.99, 0.999}) {
      const double exact = exact_quantile(samples, q);
      const double est = s.quantile(q);
      EXPECT_LE(std::abs(est - exact), a * exact + 1e-9)
          << g.name << " q=" << q << " exact=" << exact << " est=" << est;
    }
  }
}

TEST(DDSketch, MergeIsCommutativeAndAssociativeToTheByte) {
  // Values chosen exactly representable with exactly representable sums, so
  // merge order cannot perturb the serialized sum field; bucket counts are
  // integers and commute regardless.
  auto make = [](double base, int n) {
    DDSketch s;
    for (int i = 0; i < n; ++i) s.record(base + 0.5 * i);
    return s;
  };
  const DDSketch a = make(1.0, 50);
  const DDSketch b = make(300.0, 70);
  const DDSketch c = make(9000.0, 30);

  DDSketch ab = a;
  ab.merge(b);
  DDSketch ba = b;
  ba.merge(a);
  EXPECT_TRUE(ab == ba);
  EXPECT_EQ(ab.serialize(), ba.serialize());

  DDSketch ab_c = ab;
  ab_c.merge(c);
  DDSketch bc = b;
  bc.merge(c);
  DDSketch a_bc = a;
  a_bc.merge(bc);
  EXPECT_TRUE(ab_c == a_bc);
  EXPECT_EQ(ab_c.serialize(), a_bc.serialize());

  // Merging the shards reproduces the bulk sketch.
  DDSketch bulk;
  for (int i = 0; i < 50; ++i) bulk.record(1.0 + 0.5 * i);
  for (int i = 0; i < 70; ++i) bulk.record(300.0 + 0.5 * i);
  for (int i = 0; i < 30; ++i) bulk.record(9000.0 + 0.5 * i);
  EXPECT_TRUE(ab_c == bulk);
  EXPECT_EQ(ab_c.count(), 150u);
}

TEST(DDSketch, ManyShardMergeOrderIsByteDeterministic) {
  // The sweep merges per-run sketches in run-index order; any fixed multiset
  // of shards must yield the same bytes no matter how the merge tree is
  // shaped (index order vs pairwise reduction).
  std::vector<DDSketch> shards;
  for (int s = 0; s < 8; ++s) {
    DDSketch sk;
    for (int i = 0; i < 200; ++i)
      sk.record(1.0 + 2.0 * s + 0.25 * i);  // exactly representable
    shards.push_back(sk);
  }
  DDSketch in_order;
  for (const DDSketch& s : shards) in_order.merge(s);
  DDSketch tree;
  {
    std::vector<DDSketch> level = shards;
    while (level.size() > 1) {
      std::vector<DDSketch> next;
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        DDSketch m = level[i];
        m.merge(level[i + 1]);
        next.push_back(m);
      }
      if (level.size() % 2) next.push_back(level.back());
      level = next;
    }
    tree = level[0];
  }
  EXPECT_EQ(in_order.serialize(), tree.serialize());
}

TEST(DDSketch, SerializeRoundTrip) {
  Lcg rng(11);
  DDSketch s;
  s.record(0.0);  // zero bucket
  s.record(-3.0);
  for (int i = 0; i < 5'000; ++i)
    s.record(std::pow(10.0, -2.0 + 5.0 * rng.uniform01()));

  const std::string bytes = s.serialize();
  EXPECT_EQ(bytes.rfind("ddsk1 a=", 0), 0u);
  const auto back = DDSketch::deserialize(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == s);
  EXPECT_EQ(back->serialize(), bytes);
  EXPECT_EQ(back->quantile(0.99), s.quantile(0.99));
}

TEST(DDSketch, DeserializeRejectsMalformedInput) {
  EXPECT_FALSE(DDSketch::deserialize("").has_value());
  EXPECT_FALSE(DDSketch::deserialize("junk").has_value());
  EXPECT_FALSE(DDSketch::deserialize("ddsk1 a=").has_value());
  EXPECT_FALSE(DDSketch::deserialize("ddsk1 a=0.02 b=1024").has_value());
  // Count mismatch between header and buckets.
  EXPECT_FALSE(
      DDSketch::deserialize(
          "ddsk1 a=0.02 b=1024 z=0 n=5 s=10 lo=1 hi=4 | 3:2")
          .has_value());
  // A valid empty sketch round-trips.
  const DDSketch empty;
  EXPECT_TRUE(DDSketch::deserialize(empty.serialize()).has_value());
}

TEST(DDSketch, CollapsePreservesUpperQuantilesUnderBucketBound) {
  SketchConfig cfg;
  cfg.max_buckets = 32;
  DDSketch s(cfg);
  Lcg rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 50'000; ++i) {
    const double v = std::pow(10.0, -3.0 + 7.0 * rng.uniform01());
    samples.push_back(v);
    s.record(v);
  }
  EXPECT_LE(s.num_buckets(), 32u);
  // The collapse eats the lowest buckets; p99/p99.9 keep their guarantee.
  for (double q : {0.99, 0.999}) {
    const double exact = exact_quantile(samples, q);
    EXPECT_LE(std::abs(s.quantile(q) - exact),
              cfg.relative_accuracy * exact + 1e-9)
        << "q=" << q;
  }
}

TEST(DDSketch, ZeroAndNegativeValuesLandInTheZeroBucket) {
  DDSketch s;
  s.record_n(0.0, 10);
  s.record_n(-5.0, 5);
  s.record_n(100.0, 5);
  EXPECT_EQ(s.count(), 20u);
  EXPECT_EQ(s.quantile(0.5), 0.0);  // 15/20 of mass is in the zero bucket
  EXPECT_NEAR(s.quantile(0.99), 100.0, 2.0);
  EXPECT_EQ(s.min(), -5.0);
  EXPECT_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.sum(), -25.0 + 500.0);
}

TEST(DDSketch, MergeRequiresNothingOfEmptySketches) {
  DDSketch a;
  DDSketch b;
  for (int i = 0; i < 100; ++i) b.record(10.0 + i);
  const std::string before = b.serialize();
  b.merge(a);  // merging an empty sketch is a no-op
  EXPECT_EQ(b.serialize(), before);
  a.merge(b);  // merging into an empty sketch copies
  EXPECT_TRUE(a == b);
}

// -- reference model -----------------------------------------------------------

/// The sketch as first written: buckets in a std::map, the lowest merged
/// into the next one at a time while over the bound. DDSketch must produce
/// the same serialize() bytes and bucket count.
class MapSketch {
 public:
  explicit MapSketch(SketchConfig cfg) : cfg_(cfg) {
    gamma_ = (1.0 + cfg_.relative_accuracy) / (1.0 - cfg_.relative_accuracy);
    inv_log_gamma_ = 1.0 / std::log(gamma_);
  }

  void record_n(double v, std::uint64_t n) {
    if (n == 0) return;
    note(v, v, n, v * static_cast<double>(n));
    if (v <= 0) {
      zero_ += n;
      return;
    }
    buckets_[static_cast<int>(std::ceil(std::log(v) * inv_log_gamma_))] += n;
    collapse();
  }
  void merge(const MapSketch& o) {
    if (o.count_ == 0) return;
    note(o.min_, o.max_, o.count_, o.sum_);
    zero_ += o.zero_;
    for (const auto& [idx, c] : o.buckets_) buckets_[idx] += c;
    collapse();
  }
  /// Buckets exactly as deserialize() reads them: duplicates summed, zero
  /// counts kept, no collapse.
  void load(std::uint64_t zero, const std::vector<std::pair<int, std::uint64_t>>& b,
            double sum, double lo, double hi) {
    zero_ = zero;
    count_ = zero;
    for (const auto& [idx, c] : b) {
      buckets_[idx] += c;
      count_ += c;
    }
    sum_ = sum;
    min_ = lo;
    max_ = hi;
  }
  std::size_t num_buckets() const { return buckets_.size(); }
  std::string serialize() const {
    std::string out = "ddsk1 a=" + chars(cfg_.relative_accuracy) +
                      " b=" + chars(cfg_.max_buckets) + " z=" + chars(zero_) +
                      " n=" + chars(count_) + " s=" + chars(sum_) +
                      " lo=" + chars(min_) + " hi=" + chars(max_) + " |";
    for (const auto& [idx, c] : buckets_)
      out += " " + chars(idx) + ":" + chars(c);
    return out;
  }

 private:
  template <typename T>
  static std::string chars(T v) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
  }
  void note(double lo, double hi, std::uint64_t n, double sum) {
    if (count_ == 0) {
      min_ = lo;
      max_ = hi;
    } else {
      min_ = std::min(min_, lo);
      max_ = std::max(max_, hi);
    }
    count_ += n;
    sum_ += sum;
  }
  void collapse() {
    while (buckets_.size() > cfg_.max_buckets) {
      const auto lowest = buckets_.begin();
      std::next(lowest)->second += lowest->second;
      buckets_.erase(lowest);
    }
  }

  SketchConfig cfg_;
  double gamma_ = 0;
  double inv_log_gamma_ = 0;
  std::map<int, std::uint64_t> buckets_;
  std::uint64_t zero_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

TEST(DDSketch, MatchesMapReferenceOnRecordMergeAndCollapse) {
  for (const std::size_t max_buckets : {2u, 8u, 1024u}) {
    SCOPED_TRACE(max_buckets);
    SketchConfig cfg;
    cfg.max_buckets = max_buckets;
    Lcg rng(max_buckets);
    DDSketch sketch(cfg);
    MapSketch ref(cfg);
    for (int round = 0; round < 200; ++round) {
      // A shard of samples over seven decades (with zeros and negatives),
      // recorded singly and in runs, then merged in.
      DDSketch shard(cfg);
      MapSketch ref_shard(cfg);
      for (int i = 0; i < 50; ++i) {
        const double u = rng.uniform01();
        const double v =
            u < 0.05 ? 0.0 : u < 0.08 ? -u : std::pow(10.0, -3.0 + 7.0 * u);
        const auto n = static_cast<std::uint64_t>(1 + (i % 3 == 0) * i);
        shard.record_n(v, n);
        ref_shard.record_n(v, n);
        sketch.record(v);
        ref.record_n(v, 1);
      }
      ASSERT_EQ(shard.serialize(), ref_shard.serialize()) << "round " << round;
      sketch.merge(shard);
      ref.merge(ref_shard);
      ASSERT_EQ(sketch.serialize(), ref.serialize()) << "round " << round;
      ASSERT_EQ(sketch.num_buckets(), ref.num_buckets()) << "round " << round;
      ASSERT_LE(sketch.num_buckets(), max_buckets);
    }
  }
}

TEST(DDSketch, DeserializeKeepsDuplicateAndZeroCountBucketsLikeTheMap) {
  // Out-of-order, duplicate and zero-count buckets, and more buckets than
  // the bound: the map summed duplicates, kept zero-count entries and did
  // not collapse until the next record or merge.
  const std::string text =
      "ddsk1 a=0.02 b=2 z=1 n=8 s=40 lo=0 hi=12 | "
      "9:2 -2147483648:0 3:1 9:1 5:0 2147483647:3 3:0";
  const auto sketch = DDSketch::deserialize(text);
  ASSERT_TRUE(sketch.has_value());
  SketchConfig cfg;
  cfg.max_buckets = 2;
  MapSketch ref(cfg);
  ref.load(1,
           {{9, 2}, {-2147483647 - 1, 0}, {3, 1}, {9, 1}, {5, 0},
            {2147483647, 3}, {3, 0}},
           40, 0, 12);
  EXPECT_EQ(sketch->serialize(), ref.serialize());
  EXPECT_EQ(sketch->num_buckets(), 5u);
  EXPECT_EQ(sketch->num_buckets(), ref.num_buckets());
  EXPECT_EQ(DDSketch::deserialize(sketch->serialize())->serialize(),
            ref.serialize());

  // The next record collapses it the way the map did; so does a merge.
  DDSketch recorded = *sketch;
  MapSketch ref_recorded = ref;
  recorded.record(7.0);
  ref_recorded.record_n(7.0, 1);
  EXPECT_EQ(recorded.serialize(), ref_recorded.serialize());
  EXPECT_EQ(recorded.num_buckets(), 2u);

  DDSketch merged(cfg);
  MapSketch ref_merged(cfg);
  merged.record(1.5);
  ref_merged.record_n(1.5, 1);
  merged.merge(*sketch);
  ref_merged.merge(ref);
  EXPECT_EQ(merged.serialize(), ref_merged.serialize());
  EXPECT_TRUE(merged == *DDSketch::deserialize(merged.serialize()));
}

TEST(DDSketch, RecordInBucketMatchesRecord) {
  DDSketch a;
  DDSketch b;
  Lcg rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double v = i % 50 == 0 ? 0.0 : std::pow(10.0, 4.0 * rng.uniform01());
    a.record(v);
    b.record_in_bucket(v, v > 0 ? b.index_of(v) : 0);
  }
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.serialize(), b.serialize());
}

}  // namespace
}  // namespace ntier::obs
