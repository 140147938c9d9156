#include "telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "telemetry/json.h"

namespace lhrs::telemetry {

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < kSub) return static_cast<size_t>(value);
  const uint32_t octave = 63 - std::countl_zero(value);  // floor(log2(v)).
  const uint64_t sub = (value >> (octave - kSubBits)) - kSub;
  return kSub + (octave - kSubBits) * kSub + static_cast<size_t>(sub);
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  if (index < kSub) return index;
  const size_t j = index - kSub;
  const uint32_t octave = kSubBits + static_cast<uint32_t>(j / kSub);
  const uint64_t sub = j % kSub;
  return (kSub + sub) << (octave - kSubBits);
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  if (index < kSub) return index;
  const size_t j = index - kSub;
  const uint32_t octave = kSubBits + static_cast<uint32_t>(j / kSub);
  return BucketLowerBound(index) + ((uint64_t{1} << (octave - kSubBits)) - 1);
}

void Histogram::Record(uint64_t value) {
  const size_t index = BucketIndex(value);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

uint64_t Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * count_));
  rank = std::max<uint64_t>(rank, 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return std::clamp(BucketUpperBound(i), min(), max_);
    }
  }
  return max_;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":" + std::to_string(c.value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":" + std::to_string(g.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":{\"count\":" + std::to_string(h.count());
    out += ",\"sum\":" + std::to_string(h.sum());
    out += ",\"min\":" + std::to_string(h.min());
    out += ",\"max\":" + std::to_string(h.max());
    out += ",\"mean\":" + JsonNumber(h.mean());
    out += ",\"p50\":" + std::to_string(h.p50());
    out += ",\"p95\":" + std::to_string(h.p95());
    out += ",\"p99\":" + std::to_string(h.p99());
    out += "}";
  }
  out += "}}";
  return out;
}

std::string Labeled(std::string_view base, std::string_view key,
                    std::string_view value) {
  std::string out;
  out.reserve(base.size() + key.size() + value.size() + 3);
  out.append(base).append("{").append(key).append("=").append(value).append(
      "}");
  return out;
}

std::string Labeled(std::string_view base, std::string_view key,
                    int64_t value) {
  return Labeled(base, key, std::to_string(value));
}

std::string Labeled(std::string_view base, std::string_view k1,
                    std::string_view v1, std::string_view k2,
                    std::string_view v2) {
  std::string out;
  out.reserve(base.size() + k1.size() + v1.size() + k2.size() + v2.size() +
              5);
  out.append(base).append("{").append(k1).append("=").append(v1).append(",");
  out.append(k2).append("=").append(v2).append("}");
  return out;
}

}  // namespace lhrs::telemetry
