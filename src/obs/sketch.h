#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ntier::obs {

/// Parameters of a DDSketch. Two sketches are mergeable iff their configs
/// are identical (same gamma, same bucket bound).
struct SketchConfig {
  /// Guaranteed relative error of every quantile estimate: a reported
  /// quantile q̂ satisfies |q̂ - q| <= relative_accuracy * q for the true
  /// sample quantile q.
  double relative_accuracy = 0.02;
  /// Hard bound on the number of log-spaced buckets. When exceeded, the
  /// lowest buckets are collapsed together, which preserves the accuracy
  /// guarantee for the upper quantiles (p50/p99/p99.9 — the ones the paper's
  /// latency analysis cares about).
  std::size_t max_buckets = 1024;
};

/// A DDSketch ("Distributed Distribution Sketch"): a mergeable quantile
/// sketch over positive values with a guaranteed *relative* error bound.
/// Values are mapped to log-spaced buckets i = ceil(log_gamma(v)) with
/// gamma = (1+a)/(1-a); a bucket's midpoint 2*gamma^i/(gamma+1) is within a
/// factor (1±a) of every value it absorbed, so any quantile read back is
/// within a of the true sample quantile — without retaining samples.
///
/// Buckets live in one vector of (index, count) pairs sorted by index and
/// found by binary search, so iteration, serialisation and merge results
/// are byte-deterministic: merging the same multiset of sketches in
/// any order yields identical serialized bytes (merge is commutative and,
/// as long as the bucket bound is not hit mid-way, associative).
class DDSketch {
 public:
  explicit DDSketch(SketchConfig config = {});

  /// Record one sample. Values <= 0 land in a dedicated zero bucket
  /// (response times and queue depths are non-negative; exact zeros are
  /// common for empty windows).
  void record(double value);
  /// Record `n` identical samples at once.
  void record_n(double value, std::uint64_t n);

  /// The bucket a positive value falls in. Sketches built from one config
  /// agree on it, so a caller feeding several of them computes it once and
  /// passes it to record_in_bucket.
  int index_of(double value) const;
  /// record(value) with `index == index_of(value)` already computed
  /// (ignored for values <= 0, which go to the zero bucket).
  void record_in_bucket(double value, int index);

  /// Merge another sketch into this one. Requires identical configs.
  void merge(const DDSketch& other);

  /// Estimate the q-quantile (q in [0,1]) of everything recorded.
  /// Returns 0 when the sketch is empty.
  double quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  std::size_t num_buckets() const { return buckets_.size(); }
  const SketchConfig& config() const { return config_; }

  /// Deterministic ASCII serialisation: identical sketch state produces
  /// identical bytes on every run and worker count (the sweep-determinism
  /// invariant extends to sketches).
  std::string serialize() const;
  /// Inverse of serialize(). Returns nullopt on malformed input.
  static std::optional<DDSketch> deserialize(const std::string& bytes);

  bool operator==(const DDSketch& other) const;

  void clear();

 private:
  double value_of(int index) const;
  /// Shared body of record_n and record_in_bucket (`n` > 0).
  void add(double value, int index, std::uint64_t n);
  /// Add `n` to bucket `index`, creating it (even for n == 0) if absent.
  void add_to_bucket(int index, std::uint64_t n);
  void collapse();

  SketchConfig config_;
  double gamma_ = 0;
  double inv_log_gamma_ = 0;
  std::vector<std::pair<int, std::uint64_t>> buckets_;  // sorted by index
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace ntier::obs
