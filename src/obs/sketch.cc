#include "obs/sketch.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace ntier::obs {

namespace {

// Shortest round-trip representation via std::to_chars: locale-independent
// and byte-deterministic (same rationale as trace_io's JSONL writer).
void append_double(std::string& out, double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_int(std::string& out, long long v) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

const char* parse_double(const char* p, const char* end, double* out) {
  auto [ptr, ec] = std::from_chars(p, end, *out);
  return ec == std::errc{} ? ptr : nullptr;
}

const char* parse_u64(const char* p, const char* end, std::uint64_t* out) {
  auto [ptr, ec] = std::from_chars(p, end, *out);
  return ec == std::errc{} ? ptr : nullptr;
}

const char* parse_int(const char* p, const char* end, int* out) {
  auto [ptr, ec] = std::from_chars(p, end, *out);
  return ec == std::errc{} ? ptr : nullptr;
}

const char* expect(const char* p, const char* end, const char* lit) {
  while (p && p != end && *lit) {
    if (*p != *lit) return nullptr;
    ++p;
    ++lit;
  }
  return *lit ? nullptr : p;
}

}  // namespace

DDSketch::DDSketch(SketchConfig config) : config_(config) {
  if (!(config_.relative_accuracy > 0) || config_.relative_accuracy >= 1)
    config_.relative_accuracy = 0.02;
  if (config_.max_buckets < 2) config_.max_buckets = 2;
  gamma_ = (1.0 + config_.relative_accuracy) / (1.0 - config_.relative_accuracy);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
}

int DDSketch::index_of(double value) const {
  return static_cast<int>(std::ceil(std::log(value) * inv_log_gamma_));
}

double DDSketch::value_of(int index) const {
  // Midpoint of (gamma^(i-1), gamma^i] in the relative sense: within a
  // factor (1 ± relative_accuracy) of every value the bucket absorbed.
  return 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
}

void DDSketch::record(double value) { record_n(value, 1); }

void DDSketch::record_n(double value, std::uint64_t n) {
  if (n == 0) return;
  add(value, value > 0 ? index_of(value) : 0, n);
}

void DDSketch::record_in_bucket(double value, int index) {
  add(value, index, 1);
}

void DDSketch::add(double value, int index, std::uint64_t n) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += n;
  sum_ += value * static_cast<double>(n);
  if (value <= 0) {
    zero_count_ += n;
    return;
  }
  add_to_bucket(index, n);
  if (buckets_.size() > config_.max_buckets) collapse();
}

void DDSketch::add_to_bucket(int index, std::uint64_t n) {
  // Binary search for the first bucket not below `index`, written so the
  // step compiles to a conditional move: successive samples land in
  // unpredictable buckets, and a branching search mispredicts most steps.
  std::size_t pos = 0;
  if (!buckets_.empty()) {
    const auto* base = buckets_.data();
    for (std::size_t len = buckets_.size(); len > 1;) {
      const std::size_t half = len / 2;
      base = base[half].first < index ? base + half : base;
      len -= half;
    }
    pos = static_cast<std::size_t>(base - buckets_.data()) +
          (base->first < index);
  }
  if (pos < buckets_.size() && buckets_[pos].first == index)
    buckets_[pos].second += n;
  else
    buckets_.insert(buckets_.begin() + static_cast<std::ptrdiff_t>(pos),
                    {index, n});
}

void DDSketch::collapse() {
  // Collapse the lowest buckets together until the bound holds: the lowest
  // survivor absorbs every count below it. The low-quantile estimates
  // coarsen, the upper ones keep their guarantee.
  const std::size_t drop = buckets_.size() - config_.max_buckets;
  for (std::size_t i = 0; i < drop; ++i)
    buckets_[drop].second += buckets_[i].second;
  buckets_.erase(buckets_.begin(),
                 buckets_.begin() + static_cast<std::ptrdiff_t>(drop));
}

void DDSketch::merge(const DDSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  for (const auto& [idx, c] : other.buckets_) add_to_bucket(idx, c);
  if (buckets_.size() > config_.max_buckets) collapse();
}

double DDSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t cum = zero_count_;
  if (static_cast<double>(cum) > rank) return 0.0;
  for (const auto& [idx, c] : buckets_) {
    cum += c;
    if (static_cast<double>(cum) > rank) return value_of(idx);
  }
  return max_;
}

bool DDSketch::operator==(const DDSketch& other) const {
  return config_.relative_accuracy == other.config_.relative_accuracy &&
         config_.max_buckets == other.config_.max_buckets &&
         zero_count_ == other.zero_count_ && count_ == other.count_ &&
         sum_ == other.sum_ && min_ == other.min_ && max_ == other.max_ &&
         buckets_ == other.buckets_;
}

void DDSketch::clear() {
  buckets_.clear();
  zero_count_ = 0;
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

std::string DDSketch::serialize() const {
  std::string out = "ddsk1 a=";
  append_double(out, config_.relative_accuracy);
  out += " b=";
  append_u64(out, config_.max_buckets);
  out += " z=";
  append_u64(out, zero_count_);
  out += " n=";
  append_u64(out, count_);
  out += " s=";
  append_double(out, sum_);
  out += " lo=";
  append_double(out, min_);
  out += " hi=";
  append_double(out, max_);
  out += " |";
  for (const auto& [idx, c] : buckets_) {
    out += ' ';
    append_int(out, idx);
    out += ':';
    append_u64(out, c);
  }
  return out;
}

std::optional<DDSketch> DDSketch::deserialize(const std::string& bytes) {
  const char* p = bytes.data();
  const char* end = p + bytes.size();
  SketchConfig cfg;
  std::uint64_t zero = 0, count = 0, max_buckets = 0;
  double sum = 0, lo = 0, hi = 0;
  p = expect(p, end, "ddsk1 a=");
  if (p) p = parse_double(p, end, &cfg.relative_accuracy);
  p = expect(p, end, " b=");
  if (p) p = parse_u64(p, end, &max_buckets);
  p = expect(p, end, " z=");
  if (p) p = parse_u64(p, end, &zero);
  p = expect(p, end, " n=");
  if (p) p = parse_u64(p, end, &count);
  p = expect(p, end, " s=");
  if (p) p = parse_double(p, end, &sum);
  p = expect(p, end, " lo=");
  if (p) p = parse_double(p, end, &lo);
  p = expect(p, end, " hi=");
  if (p) p = parse_double(p, end, &hi);
  p = expect(p, end, " |");
  if (!p) return std::nullopt;
  cfg.max_buckets = static_cast<std::size_t>(max_buckets);
  DDSketch sketch(cfg);
  std::uint64_t bucketed = 0;
  while (p != end) {
    p = expect(p, end, " ");
    if (!p) return std::nullopt;
    int idx = 0;
    std::uint64_t c = 0;
    p = parse_int(p, end, &idx);
    p = expect(p, end, ":");
    if (p) p = parse_u64(p, end, &c);
    if (!p) return std::nullopt;
    sketch.add_to_bucket(idx, c);
    bucketed += c;
  }
  if (zero + bucketed != count) return std::nullopt;
  sketch.zero_count_ = zero;
  sketch.count_ = count;
  sketch.sum_ = sum;
  sketch.min_ = lo;
  sketch.max_ = hi;
  return sketch;
}

}  // namespace ntier::obs
