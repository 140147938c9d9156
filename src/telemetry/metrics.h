#ifndef LHRS_TELEMETRY_METRICS_H_
#define LHRS_TELEMETRY_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace lhrs::telemetry {

/// Monotone event counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (e.g. nodes currently down).
class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t n) { value_ += n; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Log-bucketed histogram of non-negative integer samples (latencies in
/// simulated microseconds, message sizes, ...).
///
/// Bucket layout: values below 2^kSubBits get one exact bucket each; above
/// that, every power-of-two octave is split into 2^kSubBits sub-buckets, so
/// the relative quantization error is bounded by 1/2^kSubBits (12.5%).
/// Recording is O(1) and allocation-free once the covering bucket exists
/// (the bucket vector only ever grows, to at most ~500 entries for the full
/// uint64 range).
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 3;
  static constexpr uint64_t kSub = 1u << kSubBits;  // Sub-buckets per octave.

  void Record(uint64_t value);

  /// Folds another histogram into this one (same fixed bucket layout).
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  /// Smallest / largest recorded sample (exact, not bucketized). 0 if empty.
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  /// Value at percentile `p` in [0, 100]: the inclusive upper bound of the
  /// bucket containing the ceil(p/100 * count)-th smallest sample, clamped
  /// to [min(), max()] so exact extremes are preserved. 0 if empty.
  uint64_t Percentile(double p) const;
  uint64_t p50() const { return Percentile(50); }
  uint64_t p95() const { return Percentile(95); }
  uint64_t p99() const { return Percentile(99); }

  /// Bucket index covering `value` (exposed for the boundary tests).
  static size_t BucketIndex(uint64_t value);
  /// Inclusive [lower, upper] value range of bucket `index`.
  static uint64_t BucketLowerBound(size_t index);
  static uint64_t BucketUpperBound(size_t index);

  /// Per-bucket counts, trailing zero buckets trimmed.
  const std::vector<uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~uint64_t{0};
  uint64_t max_ = 0;
};

/// Central, name-keyed home of every metric. Names are free-form; the
/// "base{label=value,...}" convention (see Labeled) keeps families of
/// related series (per node role, per message kind) groupable while the
/// registry itself stays a flat, deterministically ordered map.
/// The std::map storage keeps returned references stable, so the hot path
/// bumps an already-resolved metric without a lookup.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. References stay valid for the registry's lifetime.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Lookup without creation (nullptr when absent).
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// {"counters":{...},"gauges":{...},"histograms":{...}} with all keys in
  /// lexicographic order; histograms export count/sum/min/max/mean and the
  /// p50/p95/p99 accessors. Byte-identical across identical runs.
  std::string ToJson() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// "base{key=value}" / "base{k1=v1,k2=v2}" series-name builders.
std::string Labeled(std::string_view base, std::string_view key,
                    std::string_view value);
std::string Labeled(std::string_view base, std::string_view key,
                    int64_t value);
std::string Labeled(std::string_view base, std::string_view k1,
                    std::string_view v1, std::string_view k2,
                    std::string_view v2);

}  // namespace lhrs::telemetry

#endif  // LHRS_TELEMETRY_METRICS_H_
