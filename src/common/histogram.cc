#include "src/common/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "src/common/logging.h"

namespace demi {

namespace {
constexpr std::size_t kSubBuckets = 64;  // 2^kSubBucketBits
}  // namespace

std::size_t Histogram::BucketFor(std::uint64_t value) {
  if (value < kSubBuckets) {
    return static_cast<std::size_t>(value);
  }
  const int shift = std::bit_width(value) - 7;
  const std::size_t sub = static_cast<std::size_t>(value >> shift) - kSubBuckets;
  return kSubBuckets + static_cast<std::size_t>(shift) * kSubBuckets + sub;
}

std::uint64_t Histogram::BucketUpperBound(std::size_t index) {
  if (index < kSubBuckets) {
    return index;
  }
  const std::size_t shift = (index - kSubBuckets) / kSubBuckets;
  const std::size_t sub = (index - kSubBuckets) % kSubBuckets;
  return ((kSubBuckets + sub + 1) << shift) - 1;
}

void Histogram::Record(std::uint64_t value) { RecordN(value, 1); }

void Histogram::RecordN(std::uint64_t value, std::uint64_t count) {
  if (count == 0) {
    return;
  }
  const std::size_t bucket = BucketFor(value);
  if (bucket >= buckets_.size()) {
    buckets_.resize(bucket + 1);  // geometric capacity growth keeps this amortised O(1)
  }
  buckets_[bucket] += count;
  count_ += count;
  sum_ += value * count;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

std::uint64_t Histogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::min(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

void Histogram::Merge(const Histogram& other) {
  buckets_.resize(std::max(buckets_.size(), other.buckets_.size()));
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram Histogram::DiffSince(const Histogram& earlier) const {
  DEMI_CHECK(buckets_.size() >= earlier.buckets_.size());
  DEMI_CHECK(count_ >= earlier.count_);
  Histogram out;
  out.buckets_.resize(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t before = i < earlier.buckets_.size() ? earlier.buckets_[i] : 0;
    DEMI_CHECK(buckets_[i] >= before);
    const std::uint64_t n = buckets_[i] - before;
    out.buckets_[i] = n;
    if (n == 0) {
      continue;
    }
    out.count_ += n;
    // Bucket lower bound: 0 for the first linear bucket, else previous upper + 1.
    const std::uint64_t lo = i == 0 ? 0 : BucketUpperBound(i - 1) + 1;
    out.min_ = std::min(out.min_, lo);
    out.max_ = std::max(out.max_, BucketUpperBound(i));
  }
  out.sum_ = sum_ - earlier.sum_;
  // The lifetime extrema bound the window extrema from both sides; use them to
  // tighten the bucket-derived estimates.
  if (out.count_ > 0) {
    out.max_ = std::min(out.max_, max_);
    out.min_ = std::max(out.min_, min());
  }
  return out;
}

void Histogram::Reset() {
  buckets_.clear();
  count_ = 0;
  sum_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
}

std::string Histogram::Summary(const std::string& unit) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f%s p50=%llu%s p99=%llu%s p99.9=%llu%s max=%llu%s",
                static_cast<unsigned long long>(count_), mean(), unit.c_str(),
                static_cast<unsigned long long>(P50()), unit.c_str(),
                static_cast<unsigned long long>(P99()), unit.c_str(),
                static_cast<unsigned long long>(P999()), unit.c_str(),
                static_cast<unsigned long long>(max()), unit.c_str());
  return buf;
}

}  // namespace demi
